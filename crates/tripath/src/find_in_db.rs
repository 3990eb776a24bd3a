//! Detect a tripath *inside* a concrete database (`D` contains a tripath
//! iff some `Θ ⊆ D` is one — Section 7).
//!
//! Used by the Proposition 8.2 experiments ("if `D` does not admit a
//! tripath then `certain(q) = Cert_k(q)`") and by property tests tying the
//! symbolic search to concrete instances.

use crate::structure::{g_of_center, TpBlock, Tripath, TripathKind};
use cqa_model::{BlockId, Database, Elem, FactId};
use cqa_query::Query;
use cqa_solvers::SolutionSet;
use std::collections::{BTreeSet, HashSet};

/// Result of scanning a database for tripaths.
#[derive(Clone, Debug, Default)]
pub struct DetectOutcome {
    /// A contained fork-tripath, if found.
    pub fork: Option<Tripath>,
    /// A contained triangle-tripath, if found.
    pub triangle: Option<Tripath>,
    /// `true` when the node budget was hit before the scan finished.
    pub exhausted: bool,
}

impl DetectOutcome {
    /// Did the database contain any tripath?
    pub fn contains_tripath(&self) -> bool {
        self.fork.is_some() || self.triangle.is_some()
    }
}

/// One in-database arm chain: `(partner, frontier)` fact ids.
type DbChain = Vec<(FactId, FactId)>;

struct Detector<'a> {
    q: &'a Query,
    db: &'a Database,
    sols: &'a SolutionSet,
    budget: u64,
    exhausted: bool,
}

impl<'a> Detector<'a> {
    fn spend(&mut self) -> bool {
        if self.budget == 0 {
            self.exhausted = true;
            return false;
        }
        self.budget -= 1;
        true
    }

    /// Terminating chains from `start`, avoiding `used` blocks. Chains of
    /// length ≥ `min_len` only (the up arm needs ≥ 1 step).
    fn chains(
        &mut self,
        start: FactId,
        g: &BTreeSet<Elem>,
        used: &HashSet<BlockId>,
        min_len: usize,
        max_depth: usize,
        limit: usize,
    ) -> Vec<DbChain> {
        let mut out = Vec::new();
        let mut chain: DbChain = Vec::new();
        let mut used = used.clone();
        self.chains_rec(
            start, g, &mut used, min_len, max_depth, limit, &mut chain, &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn chains_rec(
        &mut self,
        current: FactId,
        g: &BTreeSet<Elem>,
        used: &mut HashSet<BlockId>,
        min_len: usize,
        max_depth: usize,
        limit: usize,
        chain: &mut DbChain,
        out: &mut Vec<DbChain>,
    ) {
        if out.len() >= limit || !self.spend() {
            return;
        }
        let sig = self.q.signature();
        if chain.len() >= min_len && !g.is_subset(&self.db.fact(current).key_set(sig)) {
            out.push(chain.clone());
        }
        if chain.len() >= max_depth {
            return;
        }
        let block = self.db.block_of(current);
        for &partner in self.db.block(block) {
            if partner == current {
                continue;
            }
            for next in self.sols.partners(partner) {
                let nb = self.db.block_of(next);
                if used.contains(&nb) || nb == block {
                    continue;
                }
                used.insert(nb);
                chain.push((partner, next));
                self.chains_rec(next, g, used, min_len, max_depth, limit, chain, out);
                chain.pop();
                used.remove(&nb);
                if out.len() >= limit {
                    return;
                }
            }
        }
    }
}

/// Scan `db` for contained tripaths of `q`. `budget` bounds search nodes.
pub fn find_tripath_in_db(q: &Query, db: &Database, budget: u64) -> DetectOutcome {
    let sols = SolutionSet::enumerate(q, db);
    let mut det = Detector {
        q,
        db,
        sols: &sols,
        budget,
        exhausted: false,
    };
    let mut outcome = DetectOutcome::default();
    let sig = q.signature();

    'centers: for (e_id, _) in db.facts() {
        let ds: Vec<FactId> = sols.firsts_of(e_id).to_vec();
        let fs: Vec<FactId> = sols.seconds_of(e_id).to_vec();
        for &d_id in &ds {
            for &f_id in &fs {
                if outcome.fork.is_some() && outcome.triangle.is_some() {
                    break 'centers;
                }
                let (d, e, f) = (db.fact(d_id), db.fact(e_id), db.fact(f_id));
                if db.key_equal(d_id, e_id) || db.key_equal(e_id, f_id) || db.key_equal(d_id, f_id)
                {
                    continue;
                }
                let triangle = sols.holds(f_id, d_id);
                if (triangle && outcome.triangle.is_some()) || (!triangle && outcome.fork.is_some())
                {
                    continue;
                }
                let g = g_of_center(q, d, e, f);
                let used: HashSet<BlockId> = [d_id, e_id, f_id]
                    .into_iter()
                    .map(|i| db.block_of(i))
                    .collect();
                if let Some(tp) = det.try_center(e_id, d_id, f_id, &g, &used) {
                    if let Ok((kind, _)) = tp.validate(q) {
                        match kind {
                            TripathKind::Fork => outcome.fork = Some(tp),
                            TripathKind::Triangle => outcome.triangle = Some(tp),
                        }
                    }
                }
                if det.exhausted {
                    outcome.exhausted = true;
                    break 'centers;
                }
            }
        }
    }
    let _ = sig;
    outcome
}

impl<'a> Detector<'a> {
    fn try_center(
        &mut self,
        e_id: FactId,
        d_id: FactId,
        f_id: FactId,
        g: &BTreeSet<Elem>,
        used: &HashSet<BlockId>,
    ) -> Option<Tripath> {
        const CHAIN_LIMIT: usize = 6;
        const MAX_DEPTH: usize = 8;
        let d_chains = self.chains(d_id, g, used, 0, MAX_DEPTH, CHAIN_LIMIT);
        if d_chains.is_empty() {
            return None;
        }
        for d_chain in &d_chains {
            let mut used_d = used.clone();
            for &(_, fr) in d_chain {
                used_d.insert(self.db.block_of(fr));
            }
            let f_chains = self.chains(f_id, g, &used_d, 0, MAX_DEPTH, CHAIN_LIMIT);
            for f_chain in &f_chains {
                let mut used_f = used_d.clone();
                for &(_, fr) in f_chain {
                    used_f.insert(self.db.block_of(fr));
                }
                let up_chains = self.chains(e_id, g, &used_f, 1, MAX_DEPTH, CHAIN_LIMIT);
                for up in &up_chains {
                    if let Some(tp) = self.assemble(e_id, d_id, f_id, up, d_chain, f_chain) {
                        return Some(tp);
                    }
                }
            }
        }
        None
    }

    fn assemble(
        &self,
        e_id: FactId,
        d_id: FactId,
        f_id: FactId,
        up: &DbChain,
        d_chain: &DbChain,
        f_chain: &DbChain,
    ) -> Option<Tripath> {
        let fact = |id: FactId| self.db.fact(id).to_fact();
        let mut blocks: Vec<TpBlock> = Vec::new();
        let n_up = up.len();
        blocks.push(TpBlock {
            a: Some(fact(up[n_up - 1].1)),
            b: None,
            parent: None,
        });
        for i in (1..n_up).rev() {
            let parent = blocks.len() - 1;
            blocks.push(TpBlock {
                a: Some(fact(up[i - 1].1)),
                b: Some(fact(up[i].0)),
                parent: Some(parent),
            });
        }
        let branching_idx = blocks.len();
        blocks.push(TpBlock {
            a: Some(fact(e_id)),
            b: Some(fact(up[0].0)),
            parent: Some(branching_idx - 1),
        });
        for (start, chain) in [(d_id, d_chain), (f_id, f_chain)] {
            let mut parent = branching_idx;
            if chain.is_empty() {
                blocks.push(TpBlock {
                    a: None,
                    b: Some(fact(start)),
                    parent: Some(parent),
                });
                continue;
            }
            blocks.push(TpBlock {
                a: Some(fact(chain[0].0)),
                b: Some(fact(start)),
                parent: Some(parent),
            });
            parent = blocks.len() - 1;
            for i in 1..chain.len() {
                blocks.push(TpBlock {
                    a: Some(fact(chain[i].0)),
                    b: Some(fact(chain[i - 1].1)),
                    parent: Some(parent),
                });
                parent = blocks.len() - 1;
            }
            blocks.push(TpBlock {
                a: None,
                b: Some(fact(chain.last()?.1)),
                parent: Some(parent),
            });
        }
        Some(Tripath { blocks })
    }
}

/// Does `db` contain any tripath of `q` (up to the budget)?
pub fn db_admits_tripath(q: &Query, db: &Database, budget: u64) -> bool {
    find_tripath_in_db(q, db, budget).contains_tripath()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_tripaths, SearchConfig};
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    #[test]
    fn symbolic_witness_is_detected_concretely() {
        // The symbolic search's q2 fork, dumped into a database, must be
        // re-found by the in-database detector.
        let q = examples::q2();
        let out = search_tripaths(&q, &SearchConfig::default());
        let tp = out.fork.expect("q2 fork witness");
        let db = tp.database(&q);
        let det = find_tripath_in_db(&q, &db, 1_000_000);
        assert!(
            det.fork.is_some(),
            "detector must find the embedded fork-tripath"
        );
    }

    #[test]
    fn plain_chain_contains_no_tripath() {
        // A q2 database with a single solution chain has no branching fact
        // at all.
        let mut db = Database::new(Signature::new(4, 2).unwrap());
        db.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        db.insert(Fact::from_names(["b", "c", "a", "d"])).unwrap();
        let det = find_tripath_in_db(&examples::q2(), &db, 1_000_000);
        assert!(!det.contains_tripath());
        assert!(!det.exhausted);
    }

    #[test]
    fn q6_triangle_database() {
        // Embed the symbolic q6 triangle witness and re-detect it.
        let q = examples::q6();
        let out = search_tripaths(&q, &SearchConfig::default());
        let tp = out.triangle.expect("q6 triangle witness");
        let db = tp.database(&q);
        let det = find_tripath_in_db(&q, &db, 1_000_000);
        assert!(det.triangle.is_some());
        assert!(det.fork.is_none());
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        let q = examples::q2();
        let out = search_tripaths(&q, &SearchConfig::default());
        let db = out.fork.expect("fork").database(&q);
        let det = find_tripath_in_db(&q, &db, 3);
        assert!(det.exhausted || det.contains_tripath());
    }
}
