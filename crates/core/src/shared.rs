//! Query sessions: load a database once, answer many queries.
//!
//! Every [`CqaEngine::certain`] call re-derives the expensive
//! intermediates — the sort-merge-joined [`SolutionSet`] and the q-connected
//! component partition — and re-solves, even when the same query is asked
//! against the same database again. A [`SharedSession`] is the one
//! session type: `cqa batch`, `cqa update` and every database resident in
//! `cqa serve` answer through one.
//!
//! * it **owns** its database behind an [`Arc`], so a server's session
//!   manager can evict the session while in-flight requests keep a live
//!   handle;
//! * `certain` takes `&self` — concurrent requests for *different*
//!   queries proceed without blocking each other, while concurrent first
//!   sights of the *same* query block on one [`OnceLock`] initialisation
//!   and one entry lock (exactly one classification / solution
//!   enumeration ever runs);
//! * per query it caches the classified engine, the enumerated solution
//!   set (never built for a `Trivial` query, which one block scan
//!   answers), and the solved [`CertainAnswer`] itself: the database is
//!   immutable for the session's lifetime, so the verdict is a pure
//!   function of the query and a repeat request costs a map lookup.
//!   Next to the answer, the entry keeps what the first completed solve
//!   computed as the query's live state: a `Trivial` query's block
//!   flags, or a component solve's store (each component's blocks, as
//!   block lists rather than views so nothing borrows the database,
//!   beside its verdict) together with the solution set, which the state
//!   then owns: the entry drops its own handle, so the set is held once.
//!
//! Cache keys are the *normalised* query text ([`Query::display`]), so
//! `R(x|y) R(y|z)` and `R(x | y)  R(y | z)` share an entry.
//!
//! Verdicts are identical to [`CqaEngine::certain`] — the one solve per
//! query feeds the same solutions and the same routing decision into
//! the same solvers — which is what the `server_parity` differential
//! suite pins.
//!
//! ## Live updates
//!
//! A session's database is immutable, which is what makes the verdict
//! cache sound — so an *update* produces a **successor session**
//! ([`SharedSession::with_delta`]): the delta is applied to a clone of
//! the database, which shares with it every chunk and shard of the fact
//! store the delta does not write (so the clone, the patch and the later
//! drop of the predecessor cost O(delta), not O(n)), and every query
//! already answered here is carried over
//! with its verdict *patched incrementally* (via its live state —
//! untouched q-connected components keep their verdicts, dirty ones
//! re-solve from scratch).
//! The predecessor stays fully consistent for in-flight holders; the
//! `cqa serve` manager swaps the successor in atomically, so a request
//! always sees either the whole old state or the whole new one, never a
//! half-applied hybrid. See `docs/DELTAS.md`.

use crate::delta::{DeltaStats, QueryDeltaState};
use crate::engine::{CancelledSolve, CertainAnswer, CqaEngine, EngineConfig};
use cqa_model::{Database, DeltaReport, Fact, ModelError};
use cqa_query::Query;
use cqa_solvers::{CancelToken, SolutionSet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Aggregate counters of a [`SharedSession`]'s lifetime, for `--stats`
/// summaries and cache-effectiveness tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// `certain` calls answered.
    pub queries: usize,
    /// Distinct queries seen over the session's lifetime (cache entries
    /// ever created; keyed by normalised text).
    pub distinct_queries: usize,
    /// Calls answered from a cached verdict. The first call for each
    /// distinct query is never a hit.
    pub cache_hits: usize,
}

/// A per-query cache slot. The engine and answer are lazily initialised
/// under [`OnceLock`], so racing first requests for one query do the
/// expensive work exactly once; later requests read lock-free. `live`
/// holds the query's solution set, enumerated once under its lock, until
/// a completed solve leaves a state, which is set before `answer` and
/// then owns the set; a successor session takes it.
#[derive(Default)]
struct SharedEntry {
    engine: OnceLock<CqaEngine>,
    answer: OnceLock<CertainAnswer>,
    live: Mutex<Live>,
}

/// What a [`SharedEntry`] keeps beside its answer: one handle on the
/// query's solution set at most, so a successor patches it in place.
#[derive(Default)]
enum Live {
    /// Nothing yet, or taken by a successor session.
    #[default]
    Empty,
    /// The solution set, before any completed solve left a state or after
    /// one that leaves none (the literal route, the brute force).
    Solutions(Arc<SolutionSet>),
    /// A completed solve's state, which owns the solution set if the
    /// query has one.
    State(QueryDeltaState),
}

impl SharedEntry {
    /// The query's solution set on `db`: the entry's or its state's, or,
    /// on first use, enumerated under the entry's lock, so racing first
    /// requests enumerate once.
    fn solutions(&self, query: &Query, db: &Database) -> Arc<SolutionSet> {
        let mut live = self.live.lock().expect("session entry lock poisoned");
        let kept = match &*live {
            Live::Solutions(solutions) => Some(solutions),
            Live::State(state) => state.solutions(),
            Live::Empty => None,
        };
        if let Some(solutions) = kept {
            return Arc::clone(solutions);
        }
        let solutions = Arc::new(SolutionSet::enumerate(query, db));
        *live = Live::Solutions(Arc::clone(&solutions));
        solutions
    }
}

/// An owned classify-once, analyse-once, answer-many handle on one
/// database, shareable across threads.
///
/// ```
/// use cqa::{EngineConfig, SharedSession};
/// use cqa_model::{Database, Fact, Signature};
/// use cqa_query::parse_query;
/// use std::sync::Arc;
///
/// let mut db = Database::new(Signature::new(2, 1).unwrap());
/// db.insert(Fact::from_names(["a", "b"])).unwrap();
/// db.insert(Fact::from_names(["b", "c"])).unwrap();
///
/// let session = SharedSession::new(Arc::new(db), EngineConfig::default());
/// let q3 = parse_query("R(x | y) R(y | z)").unwrap();
/// assert!(session.certain(&q3).certain);
/// assert!(session.certain(&q3).certain); // cached: no re-enumeration
/// assert_eq!(session.stats().cache_hits, 1);
/// ```
pub struct SharedSession {
    db: Arc<Database>,
    config: EngineConfig,
    entries: Mutex<HashMap<String, Arc<SharedEntry>>>,
    delta_stats: Mutex<DeltaStats>,
    queries: AtomicUsize,
    distinct: AtomicUsize,
    cache_hits: AtomicUsize,
}

impl SharedSession {
    /// A session owning `db`; every query first seen is classified with
    /// `config`.
    pub fn new(db: Arc<Database>, config: EngineConfig) -> SharedSession {
        SharedSession {
            db,
            config,
            entries: Mutex::new(HashMap::new()),
            delta_stats: Mutex::new(DeltaStats::default()),
            queries: AtomicUsize::new(0),
            distinct: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
        }
    }

    /// The session's database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The configuration queries are classified and solved with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Approximate resident bytes of the session's database — the number
    /// the `cqa serve` memory budget accounts and evicts by. What the
    /// session keeps per query is not counted: the solution set of every
    /// query that is not `Trivial`, O(facts), and the live state its first
    /// solve left (a component partition and one verdict per component,
    /// or one flag per block). Counting every resident category is item 7
    /// of `ROADMAP.md`, "no unaccounted memory in the server".
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    /// Lifetime counters, in the shape `cqa batch --stats` reports.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.queries.load(Ordering::Relaxed),
            distinct_queries: self.distinct.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// The cache slot for `query`, creating it (empty) on first sight.
    /// The map lock is held only for the lookup/insert, never while
    /// classifying or enumerating.
    fn entry(&self, query: &Query) -> Arc<SharedEntry> {
        let key = query.display();
        let mut entries = self.entries.lock().expect("session map lock poisoned");
        if let Some(entry) = entries.get(&key) {
            return Arc::clone(entry);
        }
        self.distinct.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SharedEntry::default());
        entries.insert(key, Arc::clone(&entry));
        entry
    }

    /// Solve `query` on the session's database under `token`, reusing
    /// (or building, on first sight) the entry's classification and, when
    /// the solve asks for it, its solution set. Both are kept even when
    /// the solve is cancelled. A `Trivial` query never enumerates. A
    /// completed solve stores the state it leaves in the entry, in place
    /// of the entry's handle on the solution set; the caller then commits
    /// the answer.
    fn solve(
        &self,
        entry: &SharedEntry,
        query: &Query,
        token: &CancelToken,
    ) -> Result<CertainAnswer, CancelledSolve> {
        let engine = entry
            .engine
            .get_or_init(|| CqaEngine::with_config(query.clone(), self.config));
        let (answer, state) = engine.solve(
            &self.db,
            || entry.solutions(engine.query(), &self.db),
            token,
        )?;
        if let Some(state) = state {
            // The state owns the solution set now: the entry's own handle
            // goes, so a successor patches the set in place.
            *entry.live.lock().expect("session entry lock poisoned") = Live::State(state);
        }
        Ok(answer)
    }

    /// Decide `db ⊨ certain(query)`, reusing (or building, on first
    /// sight) the cached classification, solution set *and verdict* for
    /// this query. Safe to call from many threads at once: racing first
    /// requests for one query single-flight the solve on the entry's
    /// [`OnceLock`]. This is [`SharedSession::certain_cancellable`]'s
    /// solve with a token that never fires.
    pub fn certain(&self, query: &Query) -> CertainAnswer {
        let entry = self.entry(query);
        let hit = entry.answer.get().is_some();
        let answer = entry
            .answer
            .get_or_init(|| {
                self.solve(&entry, query, &CancelToken::new())
                    .expect("a never-raised token cannot cancel the solve")
            })
            .clone();
        self.queries.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        answer
    }

    /// The cached verdict for `query`, or `None` when no solve of it has
    /// completed on this session. Never solves, never creates a cache
    /// entry and counts nothing: a caller that answers from it reports
    /// how many it answered with [`SharedSession::count_cached`], so a
    /// batch can check every query before it counts any.
    pub fn cached(&self, query: &Query) -> Option<CertainAnswer> {
        let entries = self.entries.lock().expect("session map lock poisoned");
        entries.get(&query.display())?.answer.get().cloned()
    }

    /// Count `n` queries answered from [`SharedSession::cached`]
    /// verdicts: each moves `queries` and `cache_hits` by one, as a cache
    /// hit through [`SharedSession::certain`] does.
    pub fn count_cached(&self, n: usize) {
        self.queries.fetch_add(n, Ordering::Relaxed);
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// [`SharedSession::certain`] under a [`CancelToken`]: a cached
    /// verdict is returned immediately (nothing left to cancel), a first
    /// solve polls the token mid-fixpoint and returns `Err` with partial
    /// evidence when it fires.
    ///
    /// A cancelled run **never populates the verdict cache** — only a
    /// completed solve commits its answer, so a later retry (or a
    /// concurrent patient request) still runs and caches the real
    /// verdict. The classification and solution enumeration stay under
    /// their [`OnceLock`]s and are kept even when the solve is cancelled:
    /// they are pure preparation, and the retry reuses them.
    /// Racing deadline-carrying first requests for one query may each
    /// run the solve (unlike [`SharedSession::certain`], which
    /// single-flights it); the first to finish commits, and both return
    /// the same pure verdict.
    pub fn certain_cancellable(
        &self,
        query: &Query,
        token: &CancelToken,
    ) -> Result<CertainAnswer, CancelledSolve> {
        let entry = self.entry(query);
        if let Some(answer) = entry.answer.get() {
            self.queries.fetch_add(1, Ordering::Relaxed);
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(answer.clone());
        }
        let answer = self.solve(&entry, query, token)?;
        let _ = entry.answer.set(answer.clone());
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(answer)
    }

    /// Lifetime incremental-update counters (summed over this session and
    /// the predecessors it was derived from).
    pub fn delta_stats(&self) -> DeltaStats {
        *self.delta_stats.lock().expect("delta stats lock poisoned")
    }

    /// Apply a delta and return the **successor session**: a new
    /// [`SharedSession`] owning the post-delta database, with every query
    /// this session has already answered carried over — its verdict
    /// patched incrementally rather than re-solved from scratch.
    ///
    /// Per carried query: untouched q-connected components keep their
    /// verdicts verbatim; components in the dirty region re-solve from
    /// scratch, on the caller's thread. The state patched is
    /// the one the query's first solve left in its entry, with the
    /// solution set it owns, and it moves to the successor, so a *chain*
    /// of updates keeps patching; this session keeps answering from its
    /// own (still valid) verdicts. A query answered on the literal route
    /// left no state: the successor takes its solution set, patches it
    /// in place and solves every component of the post-delta support. A
    /// second successor of one session finds the states and sets taken,
    /// and such a query gets a state built from a fresh enumeration.
    /// coNP-complete queries carry nothing (their next request re-solves
    /// lazily), and queries whose first solve never completed are
    /// dropped.
    ///
    /// Observability counters (`queries`, `distinct_queries`,
    /// `cache_hits`, [`DeltaStats`]) carry over so a served database's
    /// stats stay monotone across updates.
    ///
    /// Errors (arity mismatch) leave this session untouched.
    pub fn with_delta(
        &self,
        inserts: &[Fact],
        retracts: &[Fact],
    ) -> Result<(SharedSession, DeltaReport), ModelError> {
        let mut db = (*self.db).clone();
        let report = db.apply_delta(inserts, retracts)?;
        let entries = self
            .entries
            .lock()
            .expect("session map lock poisoned")
            .clone();
        Ok((self.successor(Arc::new(db), &report, entries), report))
    }

    /// [`SharedSession::with_delta`] for a session nothing reads any
    /// more, such as a one-shot `cqa update`'s: when this session holds
    /// the database's only handle, the delta is applied in place instead
    /// of to a copy-on-write clone, whose first write into each shared
    /// chunk and map shard copies it. Both paths patch each query's
    /// solution set in place, so that clone is the whole difference: with
    /// one fresh fact inserted into a generated 10⁶-fact database and the
    /// five CI batch queries answered, `with_delta` took 72–162 ms
    /// (median 87, 14 runs) and `into_delta` 8–15 ms (median 11, 7 runs),
    /// release build on a 2-vCPU VM. An error consumes the session.
    pub fn into_delta(
        mut self,
        inserts: &[Fact],
        retracts: &[Fact],
    ) -> Result<(SharedSession, DeltaReport), ModelError> {
        let placeholder = Arc::new(Database::new(*self.db.signature()));
        let shared = std::mem::replace(&mut self.db, placeholder);
        let mut db = Arc::try_unwrap(shared).unwrap_or_else(|db| (*db).clone());
        let report = db.apply_delta(inserts, retracts)?;
        let entries = std::mem::take(self.entries.get_mut().expect("session map lock poisoned"));
        Ok((self.successor(Arc::new(db), &report, entries), report))
    }

    /// The session of `db`, which `report`'s delta made from this
    /// session's database, carrying `entries` (this session's, taken or
    /// shared): see [`SharedSession::with_delta`].
    fn successor(
        &self,
        db: Arc<Database>,
        report: &DeltaReport,
        entries: HashMap<String, Arc<SharedEntry>>,
    ) -> SharedSession {
        let mut step = DeltaStats::default();
        let mut next_entries: HashMap<String, Arc<SharedEntry>> = HashMap::new();
        for (key, entry) in entries {
            // Only a completed solve of a supported class is carried.
            let engine = match (entry.answer.get(), entry.engine.get()) {
                (Some(_), Some(engine)) if QueryDeltaState::supports(engine) => engine.clone(),
                _ => continue,
            };
            let live =
                std::mem::take(&mut *entry.live.lock().expect("session entry lock poisoned"));
            let state = match live {
                Live::State(mut state) => {
                    step.absorb(&state.apply(&engine, &db, report));
                    Some(state)
                }
                // A literal-route answer left no state: its solution set,
                // taken rather than shared, is patched in place.
                Live::Solutions(mut solutions) => {
                    Arc::make_mut(&mut solutions).apply_delta(&db, report);
                    QueryDeltaState::new(&engine, &db, Some(solutions))
                }
                Live::Empty => QueryDeltaState::new(&engine, &db, None),
            };
            let state = state.expect("a supported class has a state");
            let fresh = SharedEntry {
                answer: OnceLock::from(state.answer(&engine)),
                engine: OnceLock::from(engine),
                live: Mutex::new(Live::State(state)),
            };
            next_entries.insert(key, Arc::new(fresh));
        }
        step.delta_applied = 1; // one delta, however many queries it patched
        let mut stats = self.delta_stats();
        stats.absorb(&step);
        SharedSession {
            db,
            config: self.config,
            entries: Mutex::new(next_entries),
            delta_stats: Mutex::new(stats),
            queries: AtomicUsize::new(self.queries.load(Ordering::Relaxed)),
            distinct: AtomicUsize::new(self.distinct.load(Ordering::Relaxed)),
            cache_hits: AtomicUsize::new(self.cache_hits.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnsweredBy, Complexity, RoutePolicy};
    use cqa_model::{Fact, Signature};
    use cqa_query::{examples, parse_query};
    use cqa_solvers::{certain_brute, support_partition};

    fn db2(rows: &[[&str; 2]]) -> Arc<Database> {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        Arc::new(db)
    }

    fn multi_component_db() -> Arc<Database> {
        db2(&[
            ["a", "b"],
            ["b", "c"],
            ["p", "q"],
            ["p", "x"],
            ["q", "r"],
            ["z", "z"],
        ])
    }

    #[test]
    fn shared_session_matches_cold_engine() {
        let db = multi_component_db();
        let session = SharedSession::new(Arc::clone(&db), EngineConfig::default());
        for q in [examples::q3(), examples::q4(), examples::q5()] {
            let cold = CqaEngine::new(q.clone()).certain(&db);
            let warm = session.certain(&q);
            assert_eq!(cold.certain, warm.certain, "{}", q.display());
            assert_eq!(cold.answered_by, warm.answered_by, "{}", q.display());
            // Repeat hits the cache with the same verdict.
            assert_eq!(session.certain(&q).certain, cold.certain);
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.distinct_queries, 3);
        assert_eq!(stats.cache_hits, 3);
    }

    #[test]
    fn session_answers_match_cold_engine_answers() {
        let db = multi_component_db();
        let session = SharedSession::new(Arc::clone(&db), EngineConfig::default());
        let queries = [examples::q3(), examples::q4(), examples::q5()];
        for q in &queries {
            let cold = CqaEngine::new(q.clone()).certain(&db);
            let warm = session.certain(q);
            assert_eq!(cold.certain, warm.certain, "{}", q.display());
            assert_eq!(cold.answered_by, warm.answered_by, "{}", q.display());
            assert_eq!(cold.certain, certain_brute(q, &db), "{}", q.display());
        }
        // Second pass: all hits, same answers.
        for q in &queries {
            let cold = CqaEngine::new(q.clone()).certain(&db);
            assert_eq!(session.certain(q).certain, cold.certain);
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.distinct_queries, 3);
        assert_eq!(stats.cache_hits, 3);
    }

    #[test]
    fn normalised_query_text_shares_a_cache_entry() {
        let session = SharedSession::new(db2(&[["a", "b"], ["b", "c"]]), EngineConfig::default());
        let spaced = parse_query("R(x | y) R(y | z)").unwrap();
        let dense = parse_query("R(x|y) R(y|z)").unwrap();
        assert!(session.certain(&spaced).certain);
        assert!(session.certain(&dense).certain);
        let stats = session.stats();
        assert_eq!(stats.distinct_queries, 1, "normalised text is the key");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn session_serves_conp_queries_via_brute_force() {
        let q2 = examples::q2();
        let mut db = Database::new(Signature::new(4, 2).unwrap());
        db.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        db.insert(Fact::from_names(["b", "c", "a", "d"])).unwrap();
        let db = Arc::new(db);
        let session = SharedSession::new(Arc::clone(&db), EngineConfig::default());
        let engine = CqaEngine::new(q2.clone());
        assert_eq!(engine.classification().complexity, Complexity::CoNpComplete);
        let warm = session.certain(&q2);
        assert_eq!(warm.answered_by, AnsweredBy::BruteForce);
        assert_eq!(warm.certain, engine.certain(&db).certain);
        // The cached verdict serves the repeat.
        assert_eq!(session.certain(&q2).certain, warm.certain);
        assert_eq!(session.stats().cache_hits, 1);
    }

    #[test]
    fn concurrent_same_query_enumerates_once() {
        let db = multi_component_db();
        let session = SharedSession::new(db, EngineConfig::default());
        let q3 = examples::q3();
        let verdicts = minipool::par_map(4, &[(); 16], |_| session.certain(&q3).certain);
        assert!(verdicts.iter().all(|&v| v));
        let stats = session.stats();
        assert_eq!(stats.queries, 16);
        assert_eq!(stats.distinct_queries, 1, "one entry, one enumeration");
        // Every call after the first prepared one is a hit; racing first
        // calls may miss the `hit` flag but never re-enumerate.
        assert!(stats.cache_hits >= 1);
    }

    #[test]
    fn cancelled_solve_never_populates_the_cache() {
        let db = multi_component_db();
        let session = SharedSession::new(db, EngineConfig::default());
        let q3 = examples::q3();
        let raised = CancelToken::new();
        raised.cancel();
        assert!(session.certain_cancellable(&q3, &raised).is_err());
        // The cancelled run committed nothing: the patient retry solves
        // and gets the real verdict, with zero cache hits so far.
        assert_eq!(session.stats().cache_hits, 0);
        let calm = CancelToken::new();
        let answer = session
            .certain_cancellable(&q3, &calm)
            .expect("a calm token cannot cancel");
        assert!(answer.certain);
        // And the completed solve did commit: the next call is a hit,
        // even under a raised token (a cached verdict has nothing left
        // to cancel).
        assert!(session.certain_cancellable(&q3, &raised).unwrap().certain);
        assert_eq!(session.stats().cache_hits, 1);
    }

    #[test]
    fn cached_reads_without_solving_or_counting() {
        let session = SharedSession::new(multi_component_db(), EngineConfig::default());
        let q3 = examples::q3();
        // Unseen: no verdict, and the look-up creates no entry.
        assert!(session.cached(&q3).is_none());
        assert_eq!(session.stats(), SessionStats::default());
        let solved = session.certain(&q3);
        let cached = session.cached(&q3).expect("a completed solve is cached");
        assert_eq!(format!("{cached:?}"), format!("{solved:?}"));
        // Reading counts nothing; the caller counts what it answered.
        assert_eq!(session.stats().queries, 1);
        session.count_cached(2);
        let stats = session.stats();
        assert_eq!(
            (stats.queries, stats.cache_hits, stats.distinct_queries),
            (3, 2, 1)
        );
    }

    #[test]
    fn with_delta_patches_cached_verdicts() {
        let db = db2(&[["a", "b"], ["p", "q"], ["p", "x"]]);
        let session = SharedSession::new(db, EngineConfig::default());
        let q3 = examples::q3();
        assert!(!session.certain(&q3).certain);

        // Growth delta completes the chain: the successor's cached
        // verdict flips without a from-scratch solve.
        let (s1, report) = session
            .with_delta(&[Fact::from_names(["b", "c"])], &[])
            .unwrap();
        assert!(report.growth_only());
        assert!(s1.certain(&q3).certain);
        assert_eq!(s1.delta_stats().delta_applied, 1);
        // The carried verdict is a cache hit, and predecessor counters
        // carried over (1 query + this hit).
        assert_eq!(s1.stats().queries, 2);
        assert!(s1.stats().cache_hits >= 1);
        // The predecessor still answers from its own, unchanged database.
        assert!(!session.certain(&q3).certain);

        // A retract chains off the successor's incremental state.
        let (s2, report) = s1.with_delta(&[], &[Fact::from_names(["b", "c"])]).unwrap();
        assert!(!report.growth_only());
        assert!(!s2.certain(&q3).certain);
        assert_eq!(s2.delta_stats().delta_applied, 2);
        // The p block holds no solution, so no component verdict was
        // ever there to retain.
        assert_eq!(s2.delta_stats().verdicts_retained, 0);

        // Differential: every successor agrees with a cold engine on its
        // own database.
        for s in [&s1, &s2] {
            let cold = CqaEngine::new(q3.clone()).certain(s.db());
            assert_eq!(s.certain(&q3).certain, cold.certain);
        }
    }

    #[test]
    fn first_update_patches_the_state_the_cold_solve_left() {
        // Support components {a, b}, {p, q} and {d, e}; the z block holds
        // no solution.
        let db = db2(&[
            ["a", "b"],
            ["b", "c"],
            ["p", "q"],
            ["p", "x"],
            ["q", "r"],
            ["d", "e"],
            ["e", "f"],
            ["z", "w"],
        ]);
        let q3 = examples::q3();
        let config = EngineConfig::default().with_route(RoutePolicy::Component);
        let session = SharedSession::new(Arc::clone(&db), config);
        let before = support_partition(&db, &SolutionSet::enumerate(&q3, &db));
        assert_eq!(before.len(), 3);
        session.certain(&q3);

        // a→y touches block a only: its component is the dirty region.
        let (next, _) = session
            .with_delta(&[Fact::from_names(["a", "y"])], &[])
            .unwrap();
        let after = support_partition(next.db(), &SolutionSet::enumerate(&q3, next.db()));
        let ay = next.db().id_of(&Fact::from_names(["a", "y"])).unwrap();
        let a = next.db().block_of(ay);
        let dirty = after.iter().find(|g| g.contains(&a)).unwrap();
        let stats = next.delta_stats();
        assert_eq!(stats.blocks_reseeded, dirty.len() as u64);
        assert_eq!(stats.verdicts_retained, before.len() as u64 - 1);
        let cold = CqaEngine::with_config(q3.clone(), config).certain(next.db());
        assert_eq!(
            format!("{:?}", next.certain(&q3)),
            format!("{cold:?}"),
            "the carried answer is the cold one, stats included"
        );
    }

    impl SharedEntry {
        /// The solution set the entry holds, itself or through its state.
        fn solutions_kept(&self) -> Option<*const SolutionSet> {
            match &*self.live.lock().unwrap() {
                Live::Solutions(solutions) => Some(Arc::as_ptr(solutions)),
                Live::State(state) => state.solutions().map(Arc::as_ptr),
                Live::Empty => None,
            }
        }
    }

    #[test]
    fn the_first_update_patches_the_set_the_cold_solve_enumerated() {
        let config = EngineConfig::default().with_route(RoutePolicy::Component);
        let session = SharedSession::new(multi_component_db(), config);
        let q3 = examples::q3();
        session.certain(&q3);
        let cold = session
            .entry(&q3)
            .solutions_kept()
            .expect("a component solve keeps its set");
        let (next, _) = session
            .with_delta(&[Fact::from_names(["c", "d"])], &[])
            .unwrap();
        // One handle on the set, owned by the state, so the successor's
        // state patched the cold allocation rather than a copy of it.
        let patched = next
            .entry(&q3)
            .solutions_kept()
            .expect("the state owns its set");
        assert!(std::ptr::eq(cold, patched), "the solution set was copied");
        assert!(
            session.entry(&q3).solutions_kept().is_none(),
            "taken, not shared"
        );
        let fresh = CqaEngine::with_config(q3.clone(), config).certain(next.db());
        assert_eq!(format!("{:?}", next.certain(&q3)), format!("{fresh:?}"));
    }

    #[test]
    fn a_solution_free_query_keeps_an_empty_store() {
        // No fact's value is another fact's key: q3 has no solution.
        let session = SharedSession::new(db2(&[["a", "b"], ["c", "d"]]), EngineConfig::default());
        let q3 = examples::q3();
        assert!(!session.certain(&q3).certain);
        let entry = session.entry(&q3);
        let live = entry.live.lock().unwrap();
        let Live::State(state) = &*live else {
            panic!("a solution-free solve leaves a state");
        };
        let kept = format!("{state:?}");
        assert!(
            kept.contains("comp_of_block: [], comps: {}"),
            "the store holds no block index: {kept}"
        );
    }

    #[test]
    fn a_cancelled_solve_is_not_carried() {
        let config = EngineConfig::default().with_route(RoutePolicy::Component);
        let session = SharedSession::new(multi_component_db(), config);
        let q3 = examples::q3();
        let raised = CancelToken::new();
        raised.cancel();
        assert!(session.certain_cancellable(&q3, &raised).is_err());
        let entry = session.entry(&q3);
        let committed = matches!(*entry.live.lock().unwrap(), Live::State(_));
        assert!(!committed, "no state committed");

        let (next, _) = session
            .with_delta(&[Fact::from_names(["c", "d"])], &[])
            .unwrap();
        assert!(next.cached(&q3).is_none(), "nothing carried");
        assert_eq!(next.delta_stats().blocks_reseeded, 0);
        let cold = CqaEngine::with_config(q3.clone(), config).certain(next.db());
        assert_eq!(format!("{:?}", next.certain(&q3)), format!("{cold:?}"));
    }

    #[test]
    fn with_delta_drops_unanswered_and_brute_force_queries() {
        let mut db = cqa_model::Database::new(Signature::new(4, 2).unwrap());
        db.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        db.insert(Fact::from_names(["b", "c", "a", "d"])).unwrap();
        let session = SharedSession::new(Arc::new(db), EngineConfig::default());
        let q2 = examples::q2();
        let before = session.certain(&q2);

        let (next, _) = session
            .with_delta(&[Fact::from_names(["x", "y", "z", "w"])], &[])
            .unwrap();
        // The coNP query was not carried: the next request re-solves
        // against the new database (still correct, just not incremental).
        let after = next.certain(&q2);
        assert_eq!(
            after.certain,
            CqaEngine::new(q2.clone()).certain(next.db()).certain
        );
        assert_eq!(before.answered_by, after.answered_by);
    }

    #[test]
    fn with_delta_rejects_bad_arity_and_leaves_session_intact() {
        let db = db2(&[["a", "b"]]);
        let session = SharedSession::new(db, EngineConfig::default());
        let q3 = examples::q3();
        assert!(!session.certain(&q3).certain);
        let err = session.with_delta(&[Fact::from_names(["a", "b", "c"])], &[]);
        assert!(err.is_err());
        assert!(!session.certain(&q3).certain);
        assert_eq!(session.delta_stats().delta_applied, 0);
    }

    #[test]
    fn trivial_query_is_answered_without_a_solution_set() {
        // A star: 2,000 blocks whose facts all share the value `hub`.
        // R(x | y) R(z | y) joins every pair of them (4·10⁶ solutions),
        // yet it is equivalent to one atom and needs none.
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for i in 0..2_000 {
            db.insert(Fact::from_names([format!("k{i}"), "hub".to_string()]))
                .unwrap();
        }
        let session = SharedSession::new(Arc::new(db), EngineConfig::default());
        let q = parse_query("R(x | y) R(z | y)").unwrap();
        let answer = session.certain(&q);
        assert!(answer.certain);
        assert_eq!(answer.answered_by, AnsweredBy::Trivial);
        assert!(session.entry(&q).solutions_kept().is_none());

        // The successor carries the query as block flags: still no
        // solution set, and the same answer as a cold engine.
        let (next, _) = session
            .with_delta(&[Fact::from_names(["k0", "spoke"])], &[])
            .unwrap();
        let patched = next.certain(&q);
        assert_eq!(
            format!("{patched:?}"),
            format!("{:?}", CqaEngine::new(q.clone()).certain(next.db()))
        );
        assert!(next.entry(&q).solutions_kept().is_none());
    }

    #[test]
    fn session_outlives_external_drop_of_the_map_slot() {
        // An "evicted" session (the manager dropped its Arc) keeps
        // answering for holders of the handle.
        let db = db2(&[["a", "b"], ["b", "c"]]);
        let session = Arc::new(SharedSession::new(db, EngineConfig::default()));
        let held = Arc::clone(&session);
        drop(session);
        assert!(held.certain(&examples::q3()).certain);
        assert!(held.approx_bytes() > 0);
    }
}
