//! The cancellation-latency acceptance test behind the BASELINES.md
//! "mid-fixpoint cancellation" row: on a workload whose uncancelled
//! fixpoint takes seconds, a deadline that expires mid-fixpoint must be
//! honoured within ~100 ms — roughly one worklist block's worth of
//! work — not after the whole fixpoint completes.
//!
//! The deadline is not a constant: an uncancelled fixpoint is timed on
//! a separate session first, and the deadline is a quarter of it, so it
//! lands inside the fixpoint on debug and release builds alike. Each
//! session's cache is warmed with an already-cancelled run first
//! (solution enumeration is deliberately not cancellable — it is pure
//! preparation and is kept even on cancel), so the timed requests spend
//! their time inside the fixpoint proper, which is where the per-block
//! [`CancelToken`] polls live.

use cqa::solvers::CancelToken;
use cqa::{EngineConfig, SharedSession};
use cqa_model::{Database, Elem, Fact, Signature};
use cqa_query::{examples, Query};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chain length per build profile, each sized so that the uncancelled
/// fixpoint clears the 2 s guard with margin: about 3.5 s on a 2-CPU VM
/// in either profile (a debug build runs this fixpoint about 4× slower).
const CHAIN: i64 = if cfg!(debug_assertions) {
    500_000
} else {
    2_000_000
};

/// A session over `db` whose cache holds the solution set but no
/// verdict: the warm-up request runs under a raised token.
fn warmed_session(db: &Arc<Database>, q: &Query) -> SharedSession {
    let session = SharedSession::new(Arc::clone(db), EngineConfig::default().with_threads(1));
    let raised = CancelToken::new();
    raised.cancel();
    assert!(
        session.certain_cancellable(q, &raised).is_err(),
        "a cancelled warm-up must not emit a verdict"
    );
    session
}

#[test]
fn mid_fixpoint_cancellation_lands_within_the_latency_budget() {
    // A chain of facts i → i+1: q-connected into one huge component, so
    // the fixpoint grinds through hundreds of thousands of blocks.
    let mut db = Database::new(Signature::new(2, 1).unwrap());
    for i in 0..CHAIN {
        db.insert(Fact::r(vec![Elem::int(i), Elem::int(i + 1)]))
            .unwrap();
    }
    let db = Arc::new(db);
    let q = examples::q3();

    // Reference: the fixpoint uncancelled, on its own session. It must
    // dwarf the deadline derived from it for the measurement below to
    // mean anything.
    let reference = warmed_session(&db, &q);
    let t0 = Instant::now();
    let answer = reference
        .certain_cancellable(&q, &CancelToken::new())
        .expect("calm run must complete");
    let fixpoint = t0.elapsed();
    drop(reference);
    assert!(answer.certain, "the chain family is consistent");
    assert!(
        fixpoint >= Duration::from_secs(2),
        "workload too small to prove anything: uncancelled fixpoint {fixpoint:?}"
    );

    // The measured run: the deadline expires a quarter of the way into
    // the fixpoint and must be honoured within ~100 ms (the overshoot
    // measures under 1 ms in either profile; the rest is scheduler
    // headroom).
    let session = warmed_session(&db, &q);
    let deadline = fixpoint / 4;
    let token = CancelToken::deadline_in(deadline);
    let t1 = Instant::now();
    let cancelled = session.certain_cancellable(&q, &token);
    let latency = t1.elapsed();
    assert!(
        cancelled.is_err(),
        "the deadline {deadline:?} must cancel this run (uncancelled {fixpoint:?})"
    );
    let overshoot = latency.saturating_sub(deadline);
    assert!(
        overshoot <= Duration::from_millis(100),
        "cancellation overshot the deadline by {overshoot:?} (latency {latency:?})"
    );
}
