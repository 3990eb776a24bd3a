//! Workload definitions: names, input sizes, queries and traffic rates.
//!
//! Every parameter a run depends on lives here, so the results file can
//! record them next to the metrics (`Spec::params`).

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `cqa batch` in-process, no server: load three texts, answer their
    /// queries cold.
    BatchCold,
    /// Warm cache-hit reads over one persistent connection, closed loop.
    ServeRead,
    /// Open-loop reads beside open-loop live updates.
    ServeRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BatchCold, Workload::ServeRead, Workload::ServeRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch_cold",
            Workload::ServeRead => "serve_read",
            Workload::ServeRw => "serve_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is what the benchmark measures; `Tiny` is the
/// seconds-long smoke size the benchmark's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// Queries asked of every `[2, 1]` text: q3, three more shapes, and q3
/// again (a cache hit).
pub const QUERIES_2_1: [&str; 5] = [
    "R(x | y) R(y | z)",
    "R(x | y) R(x | z)",
    "R(y | x) R(x | x)",
    "R(y | x) R(x | y)",
    "R(x | y) R(y | z)",
];

/// Queries asked of the `[3, 1]` text: q5, q6, the two coNP-complete
/// shapes, and q6 again (a cache hit).
pub const QUERIES_3_1: [&str; 5] = [
    "R(x | y x) R(y | x u)",
    "R(x | y z) R(z | x y)",
    "R(y | v v) R(u | y v)",
    "R(z | z v) R(u | v z)",
    "R(x | y z) R(z | x y)",
];

/// How one input text is generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TextKind {
    /// The large q3 chain family (`write_large_q3`), seeded.
    Chain,
    /// The contested q3 funnel family (`write_large_contested_q3`).
    Contested,
    /// The mixed-batch skew preset over q6's `[3, 1]` signature, seeded.
    Arity3,
}

impl TextKind {
    pub fn name(self) -> &'static str {
        match self {
            TextKind::Chain => "chain",
            TextKind::Contested => "contested",
            TextKind::Arity3 => "arity3",
        }
    }

    pub fn queries(self) -> &'static [&'static str; 5] {
        match self {
            TextKind::Chain | TextKind::Contested => &QUERIES_2_1,
            TextKind::Arity3 => &QUERIES_3_1,
        }
    }
}

/// Value domain of the arity-3 text. The mixed-batch preset's 12 values
/// funnel every join through a handful of hot keys, one giant component
/// whose brute-force cost varied threefold between seeds; 32 values
/// fragment it into many small components with a steady cost.
pub const ARITY3_VALUE_DOMAIN: usize = 32;

/// Funnel width and certain fraction of the contested text.
pub const CONTESTED_WIDTH: usize = 100;
pub const CONTESTED_CERTAIN_FRACTION: f64 = 0.5;

/// Engine solver threads and server worker threads (fixed, not read from
/// the host, so runs on different hosts do the same work).
pub const THREADS: usize = 2;

/// Delta scripts: operations per script and the insert share.
pub const DELTA_OPS: usize = 4;
pub const DELTA_INSERT_RATIO: f64 = 0.7;

/// Every parameter of one workload at one scale.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub scale: Scale,
    /// Texts and their target fact counts.
    pub texts: Vec<(TextKind, usize)>,
    /// `batch_cold`: nominal seconds per cold pass; a run makes
    /// `max(1, seconds / pass_seconds)` passes.
    pub pass_seconds: u64,
    /// `serve_rw`: open-loop read and update rates per second.
    pub read_rate: f64,
    pub update_rate: f64,
    /// `serve_read`: share of reads that are five-query batches.
    pub batch_share: f64,
    /// Setups per run whose median is `setup_s`.
    pub setups: usize,
}

impl Spec {
    pub fn new(workload: Workload, scale: Scale) -> Spec {
        let full = scale == Scale::Full;
        let pick = |f: usize, t: usize| if full { f } else { t };
        let texts = match workload {
            Workload::BatchCold => vec![
                (TextKind::Chain, pick(200_000, 4_000)),
                (TextKind::Contested, pick(100_000, 3_000)),
                (TextKind::Arity3, pick(100_000, 1_000)),
            ],
            Workload::ServeRead => vec![
                (TextKind::Chain, pick(50_000, 2_000)),
                (TextKind::Arity3, pick(20_000, 1_000)),
            ],
            Workload::ServeRw => vec![(TextKind::Chain, pick(10_000, 2_000))],
        };
        Spec {
            workload,
            scale,
            texts,
            pass_seconds: 4,
            read_rate: if full { 1000.0 } else { 2000.0 },
            // At full scale 40 updates/s; the tiny run needs 200 updates
            // in about a second for `rw.update_p95_ms` to have ten samples
            // beyond it.
            update_rate: if full { 40.0 } else { 250.0 },
            batch_share: 0.1,
            setups: 9,
        }
    }

    /// Delta scripts a run needs: one warm-up plus one per due update.
    pub fn scripts_needed(&self, seconds: u64) -> usize {
        if self.workload == Workload::ServeRw {
            1 + self.updates_due(seconds)
        } else {
            0
        }
    }

    pub fn updates_due(&self, seconds: u64) -> usize {
        (self.update_rate * seconds as f64).round() as usize
    }

    pub fn reads_due(&self, seconds: u64) -> usize {
        (self.read_rate * seconds as f64).round() as usize
    }

    pub fn passes(&self, seconds: u64) -> usize {
        ((seconds / self.pass_seconds) as usize).max(1)
    }

    /// Every parameter as `(name, value)` pairs for the results file.
    pub fn params(&self, seconds: u64) -> Vec<(String, String)> {
        let mut out = vec![
            ("workload".into(), self.workload.name().into()),
            ("scale".into(), self.scale.name().into()),
            ("threads".into(), THREADS.to_string()),
            ("setups".into(), self.setups.to_string()),
        ];
        for (kind, facts) in &self.texts {
            out.push((format!("{}.facts_target", kind.name()), facts.to_string()));
            out.push((
                format!("{}.queries", kind.name()),
                kind.queries().join("; "),
            ));
        }
        if self.texts.iter().any(|(k, _)| *k == TextKind::Contested) {
            out.push(("contested.width".into(), CONTESTED_WIDTH.to_string()));
            out.push((
                "contested.certain_fraction".into(),
                CONTESTED_CERTAIN_FRACTION.to_string(),
            ));
        }
        if self.texts.iter().any(|(k, _)| *k == TextKind::Arity3) {
            out.push((
                "arity3.value_domain".into(),
                ARITY3_VALUE_DOMAIN.to_string(),
            ));
        }
        match self.workload {
            Workload::BatchCold => {
                out.push(("passes".into(), self.passes(seconds).to_string()));
            }
            Workload::ServeRead => {
                out.push(("loop".into(), "closed, 1 connection".into()));
                out.push(("batch_share".into(), self.batch_share.to_string()));
            }
            Workload::ServeRw => {
                out.push(("loop".into(), "open, 2 connections".into()));
                out.push(("read_rate_per_s".into(), self.read_rate.to_string()));
                out.push(("update_rate_per_s".into(), self.update_rate.to_string()));
                out.push(("delta.ops".into(), DELTA_OPS.to_string()));
                out.push(("delta.locality".into(), "Mixed".into()));
                out.push(("delta.insert_ratio".into(), DELTA_INSERT_RATIO.to_string()));
            }
        }
        out
    }
}
