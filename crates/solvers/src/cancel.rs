//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheaply clonable handle carrying a shared flag
//! **and** an optional deadline. Every solver entry point takes one —
//! [`certk_view`](crate::certk_view) for `Cert_k`,
//! [`certain_brute_over`](crate::certain_brute_over) for the search, and
//! the component fan-out of
//! [`DynamicComponents::solve`](crate::DynamicComponents::solve) — and polls it
//! at bounded intervals: once per seeded fact, once per worklist block
//! derivation, once per brute-force budget tranche. A token raised (or
//! expired) mid-fixpoint therefore stops the run within roughly one
//! block's worth of work, not after the whole solve. Callers with nothing
//! to cancel pass [`CancelToken::new`], which never fires.
//!
//! Cancellation is observational only: it never changes a verdict, it
//! only withholds one. CQA verdicts are pure functions of
//! `(db, query)`, so a cancelled solve is always safely retryable —
//! rerunning it (with a calmer token) reproduces the byte-identical
//! answer the uncancelled run would have produced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps between token polls in the linear passes that prepare a solve
/// (the support, its partition and its view) and in a `Cert_k` run's
/// set-up.
pub(crate) const POLL_STRIDE: usize = 4096;

/// A shared cancellation handle: an explicit flag plus an optional
/// deadline. Clones share the flag (and carry the same deadline), so a
/// token handed to a fan-out of worker threads is raised for all of them
/// at once.
///
/// The deadline is folded into the flag on observation: the first
/// [`CancelToken::is_cancelled`] poll at or past the deadline raises the
/// shared flag, so subsequent polls (on any clone) are a single relaxed
/// load. A token with no deadline and an unraised flag never consults
/// the clock.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that cancels at `deadline` (or earlier, via
    /// [`CancelToken::cancel`]).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            deadline: Some(deadline),
            ..CancelToken::default()
        }
    }

    /// A token that cancels `timeout` from now.
    pub fn deadline_in(timeout: Duration) -> CancelToken {
        // Saturate instead of panicking on absurd timeouts (u64::MAX ms
        // overflows Instant on some platforms): no deadline is the only
        // faithful reading of "unreachably far in the future".
        match Instant::now().checked_add(timeout) {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        }
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Raise the flag: every clone observes cancellation from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has this token been cancelled (explicitly, or by its deadline
    /// passing)? This is the solvers' poll; it is cheap enough to call
    /// once per block derivation or search node.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_calm_and_cancel_is_shared() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
        let clone = t.clone();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn deadline_in_the_past_cancels_and_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let clone = t.clone();
        assert!(t.is_cancelled());
        // The observation latched the shared flag: the clone sees it
        // without consulting its own deadline.
        assert!(clone.is_cancelled());
    }

    #[test]
    fn far_deadline_does_not_cancel() {
        let t = CancelToken::deadline_in(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
        let t = CancelToken::deadline_in(Duration::from_secs(u64::MAX));
        assert!(!t.is_cancelled(), "saturating timeout means no deadline");
    }
}
