//! Multi-database session management: get-or-load with single-flight
//! loading and LRU eviction under a byte budget.
//!
//! The manager maps database paths to [`SharedSession`]s. Three
//! properties the unit and stress suites pin:
//!
//! * **single-flight loads** — N threads racing `get_or_load` on a cold
//!   path trigger exactly one file load; the losers block on the same
//!   [`OnceLock`] and share the result. Failed loads are forgotten, so
//!   a later retry (say, after the file appears) loads again.
//! * **LRU eviction** — with `memory_budget = Some(b)`, after each load
//!   the manager drops least-recently-used sessions until the resident
//!   approximate bytes (per [`Database::approx_bytes`]) fit in `b`. The
//!   just-requested session is never evicted, so one oversized database
//!   still serves (budget permitting nothing else). Eviction drops the
//!   manager's `Arc` only: in-flight requests holding the session keep
//!   answering, and the next request for that path reloads from disk.
//! * **monotone accounting** — `loads`, `session_hits` and `evictions`
//!   only grow; `resident_bytes` always equals the sum over currently
//!   loaded sessions.
//!
//! [`Database::approx_bytes`]: cqa_model::Database::approx_bytes

use crate::DeltaScript;
use cqa::{EngineConfig, SharedSession};
use cqa_model::{Database, DeltaReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How the manager turns a database path into a [`Database`]. Injected
/// by the caller (the CLI passes its fact-file loader) so this crate
/// stays independent of the file-format layer.
pub type Loader = Arc<dyn Fn(&str) -> Result<Database, String> + Send + Sync>;

/// One map slot: a lazily initialised load outcome plus an LRU stamp.
/// Racing loaders block inside the [`OnceLock`]; the stamp is advanced
/// on every `get_or_load` or `resident` touch.
struct Slot {
    cell: OnceLock<Result<Arc<SharedSession>, String>>,
    last_used: AtomicU64,
}

/// Counters describing the manager's lifetime behaviour, surfaced over
/// the wire by the `stats` method and printed by `cqa serve --stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Sessions currently resident (loaded, not evicted).
    pub sessions: usize,
    /// Database loads performed (cold `get_or_load`s, including reloads
    /// after eviction; failed loads count — the work happened).
    pub loads: usize,
    /// `get_or_load` and `resident` calls answered by an
    /// already-resident session.
    pub session_hits: usize,
    /// Sessions evicted to fit the memory budget.
    pub evictions: usize,
    /// Approximate bytes of all resident databases.
    pub resident_bytes: usize,
    /// Queries answered across resident sessions (evicted sessions take
    /// their counters with them).
    pub queries: usize,
    /// Distinct queries across resident sessions.
    pub distinct_queries: usize,
    /// Per-query cache hits across resident sessions.
    pub cache_hits: usize,
    /// Requests refused at admission with the `overloaded` code (filled
    /// in by the server; the manager itself reports 0).
    pub shed: usize,
    /// Requests whose deadline expired mid-solve and were answered
    /// `deadline-exceeded` with partial evidence (server-filled).
    pub cancelled: usize,
    /// Peak number of admitted requests waiting for a worker at any one
    /// instant (server-filled).
    pub queue_peak: usize,
    /// Deltas applied across resident sessions (successor sessions carry
    /// their predecessors' counters, so an updated database's count is
    /// monotone; evicted sessions take theirs with them).
    pub delta_applied: u64,
    /// Blocks of the components re-solved after deltas, across resident
    /// sessions — the size of the dirty regions.
    pub blocks_reseeded: u64,
    /// Component verdicts retained verbatim across deltas (untouched
    /// q-connected components), across resident sessions.
    pub verdicts_retained: u64,
}

/// Why an [`SessionManager::apply_update`] failed. Maps onto the wire
/// codes `load-failed` / `bad-delta`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The target database could not be loaded.
    LoadFailed(String),
    /// The delta itself was rejected (arity or key-length mismatch with
    /// the database's signature). The session is unchanged.
    BadDelta(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::LoadFailed(m) | UpdateError::BadDelta(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The shared session table behind `cqa serve`.
pub struct SessionManager {
    loader: Loader,
    config: EngineConfig,
    memory_budget: Option<usize>,
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    /// Serialises [`SessionManager::apply_update`]s: two concurrent
    /// updates to one path must chain (successor of successor), never
    /// fork from the same predecessor and silently lose one delta.
    update_lock: Mutex<()>,
    clock: AtomicU64,
    loads: AtomicUsize,
    session_hits: AtomicUsize,
    evictions: AtomicUsize,
}

impl SessionManager {
    /// A manager loading databases with `loader`, classifying queries
    /// with `config`, and keeping resident databases under
    /// `memory_budget` approximate bytes (`None`: never evict).
    pub fn new(
        loader: Loader,
        config: EngineConfig,
        memory_budget: Option<usize>,
    ) -> SessionManager {
        SessionManager {
            loader,
            config,
            memory_budget,
            slots: Mutex::new(HashMap::new()),
            update_lock: Mutex::new(()),
            clock: AtomicU64::new(1),
            loads: AtomicUsize::new(0),
            session_hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The session for `path`, loading it if absent. Concurrent calls
    /// for one cold path perform a single load. `Err` is the loader's
    /// message (surfaced as a `load-failed` wire error) and is not
    /// cached: the next call retries the load.
    pub fn get_or_load(&self, path: &str) -> Result<Arc<SharedSession>, String> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut slots = self.slots.lock().expect("manager map lock poisoned");
            let slot = slots
                .entry(path.to_string())
                .or_insert_with(|| {
                    Arc::new(Slot {
                        cell: OnceLock::new(),
                        last_used: AtomicU64::new(0),
                    })
                })
                .clone();
            slot.last_used.store(stamp, Ordering::Relaxed);
            slot
        };
        // A fully loaded slot is a hit; count before get_or_init so a
        // racing first load isn't misreported.
        let resident = matches!(slot.cell.get(), Some(Ok(_)));
        if resident {
            self.session_hits.fetch_add(1, Ordering::Relaxed);
        }
        let outcome = slot.cell.get_or_init(|| {
            self.loads.fetch_add(1, Ordering::Relaxed);
            (self.loader)(path).map(|db| Arc::new(SharedSession::new(Arc::new(db), self.config)))
        });
        match outcome {
            Ok(session) => {
                let session = Arc::clone(session);
                if !resident {
                    self.enforce_budget(path);
                }
                Ok(session)
            }
            Err(msg) => {
                let msg = msg.clone();
                // Forget the failed slot (if it is still ours) so a
                // retry reloads instead of replaying the cached error.
                let mut slots = self.slots.lock().expect("manager map lock poisoned");
                if let Some(current) = slots.get(path) {
                    if Arc::ptr_eq(current, &slot) {
                        slots.remove(path);
                    }
                }
                Err(msg)
            }
        }
    }

    /// The session for `path` if it is already loaded; never loads, and
    /// never waits on a load in flight. A hit stamps the LRU clock and
    /// counts in `session_hits`, as [`SessionManager::get_or_load`] does
    /// for a resident path.
    pub fn resident(&self, path: &str) -> Option<Arc<SharedSession>> {
        let slots = self.slots.lock().expect("manager map lock poisoned");
        let slot = slots.get(path)?;
        let Some(Ok(session)) = slot.cell.get() else {
            return None;
        };
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(stamp, Ordering::Relaxed);
        self.session_hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(session))
    }

    /// Apply an insert/retract delta to the database at `path`, loading
    /// it first if absent, and **atomically swap in the successor
    /// session**: the predecessor's answered queries are carried over
    /// with their verdicts patched incrementally
    /// ([`SharedSession::with_delta`]).
    ///
    /// Atomicity: the successor is fully built *before* the table slot
    /// is replaced under the map lock, so a concurrent request sees
    /// either the whole pre-delta session or the whole post-delta one —
    /// never a half-applied hybrid. In-flight holders of the predecessor
    /// keep answering against the old (consistent) database, exactly as
    /// eviction already allows. Concurrent updates are serialised, so
    /// every delta lands on the latest successor and none is lost.
    ///
    /// The script is checked against the database's signature first
    /// ([`DeltaScript::check_for`], the check `cqa update` makes).
    pub fn apply_update(
        &self,
        path: &str,
        script: &DeltaScript,
    ) -> Result<(Arc<SharedSession>, DeltaReport), UpdateError> {
        let _serial = self.update_lock.lock().expect("update lock poisoned");
        let session = self.get_or_load(path).map_err(UpdateError::LoadFailed)?;
        script
            .check_for(session.db().signature())
            .map_err(UpdateError::BadDelta)?;
        let (next, report) = session
            .with_delta(&script.inserts, &script.retracts)
            .map_err(|e| UpdateError::BadDelta(e.to_string()))?;
        let next = Arc::new(next);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut slots = self.slots.lock().expect("manager map lock poisoned");
            let slot = Arc::new(Slot {
                cell: OnceLock::new(),
                last_used: AtomicU64::new(stamp),
            });
            // A fresh OnceLock is always settable; the Err arm is
            // unreachable (and the value lacks Debug for expect()).
            let _ = slot.cell.set(Ok(Arc::clone(&next)));
            slots.insert(path.to_string(), slot);
        }
        self.enforce_budget(path);
        Ok((next, report))
    }

    /// Evict least-recently-used resident sessions (never `keep`) until
    /// the budget fits. Slots still mid-load have unknown size and are
    /// skipped; they are accounted when their own load completes.
    ///
    /// Victims leave the map under its lock but are dropped after the
    /// lock is released: freeing an evicted database is the costly part,
    /// and every request's `get_or_load` waits on that lock.
    fn enforce_budget(&self, keep: &str) {
        let Some(budget) = self.memory_budget else {
            return;
        };
        let mut victims: Vec<Arc<Slot>> = Vec::new();
        let mut slots = self.slots.lock().expect("manager map lock poisoned");
        loop {
            let mut total = 0usize;
            let mut lru: Option<(&String, u64)> = None;
            for (path, slot) in slots.iter() {
                let Some(Ok(session)) = slot.cell.get() else {
                    continue;
                };
                total += session.approx_bytes();
                if path == keep {
                    continue;
                }
                let stamp = slot.last_used.load(Ordering::Relaxed);
                if lru.map_or(true, |(_, best)| stamp < best) {
                    lru = Some((path, stamp));
                }
            }
            if total <= budget {
                break;
            }
            let Some((victim, _)) = lru else {
                // Only `keep` (or nothing) is resident; an oversized
                // database is allowed to stand alone.
                break;
            };
            let victim = victim.clone();
            victims.extend(slots.remove(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(slots);
        drop(victims);
    }

    /// Lifetime counters plus the current resident set's aggregates.
    pub fn stats(&self) -> ManagerStats {
        let slots = self.slots.lock().expect("manager map lock poisoned");
        let mut stats = ManagerStats {
            loads: self.loads.load(Ordering::Relaxed),
            session_hits: self.session_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..ManagerStats::default()
        };
        for slot in slots.values() {
            let Some(Ok(session)) = slot.cell.get() else {
                continue;
            };
            stats.sessions += 1;
            stats.resident_bytes += session.approx_bytes();
            let s = session.stats();
            stats.queries += s.queries;
            stats.distinct_queries += s.distinct_queries;
            stats.cache_hits += s.cache_hits;
            let d = session.delta_stats();
            stats.delta_applied += d.delta_applied;
            stats.blocks_reseeded += d.blocks_reseeded;
            stats.verdicts_retained += d.verdicts_retained;
        }
        stats
    }

    /// The engine configuration sessions are created with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The configured memory budget, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;
    use std::sync::atomic::AtomicUsize;

    /// A loader serving synthetic in-memory databases: path "db:N" gets
    /// a chain of N paired facts; any other path fails. Counts calls.
    fn counting_loader(calls: Arc<AtomicUsize>) -> Loader {
        Arc::new(move |path: &str| {
            calls.fetch_add(1, Ordering::SeqCst);
            let n: usize = path
                .strip_prefix("db:")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("no such database: {path}"))?;
            let mut db = Database::new(Signature::new(2, 1).unwrap());
            for i in 0..n {
                db.insert(Fact::from_names([format!("a{i}"), format!("a{}", i + 1)]))
                    .map_err(|e| e.to_string())?;
            }
            Ok(db)
        })
    }

    /// A script inserting `rows`, declaring key length `key_len`.
    fn script(rows: &[[&str; 2]], key_len: usize) -> DeltaScript {
        DeltaScript {
            inserts: rows.iter().map(|r| Fact::from_names(*r)).collect(),
            retracts: Vec::new(),
            key_len: Some(key_len),
        }
    }

    fn manager(budget: Option<usize>) -> (Arc<SessionManager>, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let m = SessionManager::new(
            counting_loader(Arc::clone(&calls)),
            EngineConfig::default(),
            budget,
        );
        (Arc::new(m), calls)
    }

    #[test]
    fn get_or_load_caches_and_counts_hits() {
        let (m, calls) = manager(None);
        let s1 = m.get_or_load("db:4").unwrap();
        let s2 = m.get_or_load("db:4").unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = m.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.session_hits, 1);
        assert_eq!(stats.evictions, 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn resident_never_loads_but_touches_and_counts() {
        let (probe, _) = manager(None);
        let one = probe.get_or_load("db:6").unwrap().approx_bytes();
        let (m, calls) = manager(Some(one * 2 + one / 2));
        assert!(m.resident("db:6").is_none(), "absent: no load");
        assert!(m.resident("nope").is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        let loaded = m.get_or_load("db:6").unwrap();
        m.get_or_load("db:7").unwrap();
        let hit = m.resident("db:6").expect("loaded");
        assert!(Arc::ptr_eq(&hit, &loaded));
        assert_eq!(m.stats().session_hits, 1);
        // The touch made db:7 the LRU session, so it is the one evicted.
        m.get_or_load("db:8").unwrap();
        assert!(m.resident("db:6").is_some());
        assert!(m.resident("db:7").is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(m.stats().session_hits, 2);
    }

    #[test]
    fn failed_loads_are_not_cached() {
        let (m, calls) = manager(None);
        assert!(m.get_or_load("nope").is_err());
        assert!(m.get_or_load("nope").is_err());
        // Both calls actually tried: failures are forgotten, so a path
        // that starts existing later would be picked up.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(m.stats().sessions, 0);
        assert_eq!(m.stats().loads, 2);
    }

    #[test]
    fn lru_eviction_order_under_budget() {
        // Budget fits roughly two of the three databases.
        let (probe, _) = manager(None);
        let one = probe.get_or_load("db:6").unwrap().approx_bytes();
        let (m, calls) = manager(Some(one * 2 + one / 2));
        m.get_or_load("db:6").unwrap();
        m.get_or_load("db:7").unwrap();
        m.get_or_load("db:6").unwrap(); // touch: 7 is now LRU
        m.get_or_load("db:8").unwrap(); // evicts db:7
        let stats = m.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.sessions, 2);
        // db:6 survived (was touched), db:7 did not.
        m.get_or_load("db:6").unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3, "db:6 still resident");
        m.get_or_load("db:7").unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            4,
            "db:7 reloaded after eviction"
        );
    }

    #[test]
    fn oversized_database_stands_alone() {
        let (m, _) = manager(Some(1));
        let s = m.get_or_load("db:50").unwrap();
        assert!(s.approx_bytes() > 1);
        let stats = m.stats();
        assert_eq!(
            stats.sessions, 1,
            "the just-loaded session is never evicted"
        );
        // Loading a second db evicts the first (it is LRU and over
        // budget), never the incoming one.
        m.get_or_load("db:3").unwrap();
        let stats = m.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn evicted_sessions_keep_serving_their_holders() {
        let (m, _) = manager(Some(1));
        let held = m.get_or_load("db:4").unwrap();
        m.get_or_load("db:5").unwrap(); // evicts db:4 from the table
        assert_eq!(m.stats().evictions, 1);
        // The in-flight holder still answers, with the same verdict a
        // fresh load gives.
        let verdict = held.certain(&examples::q3()).certain;
        let reloaded = m.get_or_load("db:4").unwrap();
        assert!(
            !Arc::ptr_eq(&held, &reloaded),
            "reload made a fresh session"
        );
        assert_eq!(reloaded.certain(&examples::q3()).certain, verdict);
    }

    #[test]
    fn accounting_is_monotone_and_resident_bytes_track_the_table() {
        let (m, _) = manager(Some(10_000));
        let mut last = ManagerStats::default();
        for i in [3usize, 9, 4, 3, 27, 9, 3, 40, 2] {
            let path = format!("db:{i}");
            let _ = m.get_or_load(&path);
            let now = m.stats();
            assert!(now.loads >= last.loads, "loads grew");
            assert!(now.session_hits >= last.session_hits, "hits grew");
            assert!(now.evictions >= last.evictions, "evictions grew");
            assert!(
                m.memory_budget().map_or(true, |b| now.resident_bytes <= b) || now.sessions == 1,
                "over budget only when a single oversized session stands alone"
            );
            last = now;
        }
    }

    #[test]
    fn concurrent_cold_get_or_load_is_single_flight() {
        let (m, calls) = manager(None);
        let sessions = minipool::par_map(8, &[(); 32], |_| m.get_or_load("db:12").unwrap());
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one load for 32 racers");
        assert!(sessions.iter().all(|s| Arc::ptr_eq(s, &sessions[0])));
        let stats = m.stats();
        assert_eq!(stats.loads, 1);
        // Everyone except racers that arrived before the load finished
        // is a hit; the sum is bounded by the call count.
        assert!(stats.session_hits <= 31);
    }

    #[test]
    fn four_thread_minipool_stress_mixed_paths() {
        // 4 workers × 64 tasks across 5 databases under a tight budget:
        // correctness (every verdict matches a cold engine) and sane
        // counters, while evictions churn the table.
        let (probe, _) = manager(None);
        let unit = probe.get_or_load("db:5").unwrap().approx_bytes();
        let (m, _) = manager(Some(unit * 2));
        let q3 = examples::q3();
        let expect: Vec<bool> = (0..5)
            .map(|i| {
                let s = probe.get_or_load(&format!("db:{}", i + 4)).unwrap();
                s.certain(&q3).certain
            })
            .collect();
        let tasks: Vec<usize> = (0..64).map(|t| t % 5).collect();
        let verdicts = minipool::par_map(4, &tasks, |&i| {
            let s = m.get_or_load(&format!("db:{}", i + 4)).unwrap();
            s.certain(&q3).certain
        });
        for (t, v) in tasks.iter().zip(&verdicts) {
            assert_eq!(*v, expect[*t], "db:{}", t + 4);
        }
        let stats = m.stats();
        assert!(stats.evictions > 0, "tight budget must evict");
        // Every database was cold at least once (racers arriving while
        // a load is in flight count as neither load nor hit, so the two
        // counters need not sum to the call count).
        assert!(stats.loads >= 5);
        assert!(stats.loads + stats.session_hits <= 64);
        assert!(stats.sessions <= 2);
    }

    #[test]
    fn apply_update_swaps_in_a_warm_successor_atomically() {
        let (m, calls) = manager(None);
        let before = m.get_or_load("db:2").unwrap();
        // Answer a query first so the successor has a verdict to carry.
        let q3 = examples::q3();
        let was_certain = before.certain(&q3).certain;
        let grow = script(&[["a2", "a3"]], 1);
        let (after, report) = m.apply_update("db:2", &grow).unwrap();
        assert_eq!(report.inserted.len(), 1);
        assert!(report.growth_only());
        // In-flight holders keep their consistent snapshot; the manager
        // now serves the successor, and nothing was reloaded from disk.
        assert_eq!(before.db().len(), 2);
        assert_eq!(before.certain(&q3).certain, was_certain);
        assert_eq!(after.db().len(), 3);
        let served = m.get_or_load("db:2").unwrap();
        assert!(Arc::ptr_eq(&served, &after), "successor is resident");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no reload");
        // The delta counters surface through manager stats.
        let stats = m.stats();
        assert_eq!(stats.delta_applied, 1);
        // Chained deltas accumulate (set semantics: re-inserting is a
        // no-op delta but still counts as an application).
        let (_, report) = m.apply_update("db:2", &grow).unwrap();
        assert!(report.inserted.is_empty(), "set semantics: no-op re-insert");
        assert_eq!(m.stats().delta_applied, 2);
    }

    #[test]
    fn apply_update_rejects_bad_deltas_and_missing_databases() {
        let (m, _) = manager(None);
        let err = m
            .apply_update("nope", &DeltaScript::default())
            .err()
            .expect("load must fail");
        assert!(matches!(err, UpdateError::LoadFailed(_)), "{err}");
        // Key length 2 against the chain loader's [2, 1] signature.
        let err = m
            .apply_update("db:2", &script(&[["x", "y"]], 2))
            .err()
            .expect("bad key len");
        assert!(matches!(err, UpdateError::BadDelta(_)), "{err}");
        // A wrong-arity fact is caught by the model layer.
        let f3 = DeltaScript {
            inserts: vec![Fact::from_names(["x", "y", "z"])],
            retracts: Vec::new(),
            key_len: Some(1),
        };
        let err = m.apply_update("db:2", &f3).err().expect("bad arity");
        assert!(matches!(err, UpdateError::BadDelta(_)), "{err}");
        // The session survives every rejected delta untouched.
        assert_eq!(m.get_or_load("db:2").unwrap().db().len(), 2);
        assert_eq!(m.stats().delta_applied, 0);
    }
}
