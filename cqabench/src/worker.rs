//! What every worker process shares: its options, the engine
//! configuration, the class of a query, and the traced replay of the
//! preparation steps inside `SharedSession::certain`.

use crate::reference::SetupClock;
use crate::report::Outcome;
use crate::spec::{Spec, THREADS};
use crate::trace::Tracer;
use cqa::{Complexity, CqaEngine, EngineConfig, RoutePolicy, RoutingConfig};
use cqa_model::Database;
use cqa_query::Query;
use cqa_solvers::components::{
    q_connected_components_if_fragmented, q_connected_components_with_solutions,
};
use cqa_solvers::SolutionSet;
use std::cell::Cell;

/// One worker process's job.
pub struct WorkerCtx {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: u64,
    /// Stop after set-up and report only `setup_s`.
    pub setup_only: bool,
    /// Run the output checks after the timed phase.
    pub check: bool,
    /// Test-only fault injection: flip one recorded verdict before the
    /// checks, which must then fail.
    pub flip: bool,
    pub tracer: Tracer,
    /// Started with the worker process.
    pub setup_clock: Cell<Option<SetupClock>>,
}

impl WorkerCtx {
    /// Arguments for the generator child.
    pub fn gen_args(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.spec.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--scale".into(),
            self.spec.scale.name().into(),
            "--trace".into(),
            "0".into(),
        ]
    }

    /// Record `setup_s` now (the first timed operation is next), see
    /// [`SetupClock`].
    pub fn setup_done(&self, out: &mut Outcome) {
        let clock = self.setup_clock.take().expect("set-up ends once");
        let (scaled, cpu) = clock.stop();
        out.metric("setup_s", scaled, "s", 1);
        out.metric("setup.cpu_s", cpu, "s", 1);
    }

    /// Flip the first verdict of a list when fault injection is on.
    pub fn maybe_flip(&self, verdicts: &mut [bool]) {
        if self.flip {
            if let Some(v) = verdicts.first_mut() {
                *v = !*v;
            }
        }
    }
}

/// The engine configuration of every session, served or in-process.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default().with_threads(THREADS)
}

/// Which solver answers a query's first sight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverClass {
    /// Trivial and the `Cert_k` classes.
    CertK,
    /// Theorem 10.5: per-component `Cert_k` or `¬matching`.
    Combined,
    /// coNP-complete: brute force.
    Brute,
}

impl SolverClass {
    pub fn of(complexity: Complexity) -> SolverClass {
        match complexity {
            Complexity::Trivial | Complexity::PTimeCert2 | Complexity::PTimeCertK => {
                SolverClass::CertK
            }
            Complexity::PTimeCombined => SolverClass::Combined,
            Complexity::CoNpComplete => SolverClass::Brute,
        }
    }

    /// The span name of a first-sight `certain` call of this class; its
    /// self time is the solver layer's.
    pub fn span(self) -> &'static str {
        match self {
            SolverClass::CertK => "solvers.certk",
            SolverClass::Combined => "solvers.combined",
            SolverClass::Brute => "solvers.brute",
        }
    }
}

/// Counts the traced replay of a first-sight solve produces.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrepCounts {
    pub solutions: usize,
    pub components: usize,
}

/// Replay, as children of the first-sight `certain` span `parent`, the
/// preparation `SharedSession::certain` does before it solves:
/// classification, solution enumeration, and the component partition the
/// engine's default routing asks for. Subtracting them leaves the
/// solver's self time in the parent.
pub fn replay_preparation(
    tracer: &Tracer,
    parent: Option<usize>,
    request: u64,
    query: &Query,
    db: &Database,
) -> PrepCounts {
    let (engine, _) = tracer.time("core.classify", parent, request, || {
        CqaEngine::with_config(query.clone(), engine_config())
    });
    let (solutions, _) = tracer.time("solvers.enumerate", parent, request, || {
        SolutionSet::enumerate(query, db)
    });
    let routing = RoutingConfig::default();
    let complexity = engine.classification().complexity;
    let (components, _) = tracer.time("solvers.partition", parent, request, || match complexity {
        Complexity::PTimeCert2 | Complexity::PTimeCertK
            if routing.policy == RoutePolicy::Auto && db.len() >= routing.min_facts =>
        {
            q_connected_components_if_fragmented(query, db, &solutions, routing.min_components)
                .map_or(0, |c| c.len())
        }
        Complexity::PTimeCombined => {
            q_connected_components_with_solutions(query, db, &solutions).len()
        }
        _ => 0,
    });
    PrepCounts {
        solutions: solutions.len(),
        components,
    }
}
