//! Million-fact workload generation.
//!
//! The generators in the crate root top out at a few thousand facts —
//! enough for correctness experiments, far from the ROADMAP's
//! production-scale regime. This module generates `q3`-shaped databases
//! of arbitrary size with two controllable knobs:
//!
//! * **inconsistency ratio** — the fraction of blocks that receive
//!   conflicting facts (width ≥ 2); `0.0` yields a consistent database,
//!   `1.0` contests every block;
//! * **block-width distribution** — conflicted blocks draw their width
//!   uniformly from `min_width..=max_width`.
//!
//! The database is a forest of disjoint key chains (`chain_len` blocks
//! per component), so the q-connected components stay small and numerous
//! — the shape that rewards the per-component parallel solvers — and the
//! solution structure is the familiar [`q3_chain_db`] /
//! [`q3_escape_db`] mix: a conflicted block's extra facts point at
//! private dead-end values, so a fully-conflicted component is
//! falsifiable while an untouched chain is certain.
//!
//! Construction is **deterministic and concurrent**: every component
//! derives its own RNG from `(seed, component index)`, components are
//! built in parallel chunks on the `minipool` scoped pool, and all
//! element interning goes through `cqa-model`'s sharded store — the
//! output is byte-identical at every thread count. Use
//! [`large_q3_db`] for an in-memory [`Database`] and [`write_large_q3`]
//! to stream the fact-file format (see `docs/FORMAT.md`) to any
//! [`std::io::Write`] without materialising a database at all.
//!
//! The chain family above keeps blocks narrow; the **contested** family
//! ([`ContestedWorkloadConfig`] / [`large_contested_q3_db`] /
//! [`write_large_contested_q3`]) instead builds wide shared-block funnels
//! — the `Cert_k` antichain stress shape — at arbitrary scale, with a
//! [`certain_fraction`](ContestedWorkloadConfig::certain_fraction) knob
//! controlling how many clusters are certain (the rest falsifiable).
//!
//! [`q3_chain_db`]: crate::q3_chain_db
//! [`q3_escape_db`]: crate::q3_escape_db

use cqa_model::{Database, Elem, Fact, Signature};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// Parameters for the large `q3` workload family. All generators derived
/// from one config are deterministic functions of the config (including
/// across thread counts).
#[derive(Clone, Copy, Debug)]
pub struct LargeWorkloadConfig {
    /// Target total fact count. The actual count is the closest multiple
    /// of whole components (components are never split); see
    /// [`LargeWorkloadConfig::component_count`].
    pub facts: usize,
    /// Fraction of chain blocks that receive conflicting facts, in
    /// `0.0..=1.0`.
    pub inconsistency: f64,
    /// Smallest width of a conflicted block (`≥ 2`).
    pub min_width: usize,
    /// Largest width of a conflicted block (`≥ min_width`).
    pub max_width: usize,
    /// Chain blocks per q-connected component (`≥ 1`).
    pub chain_len: usize,
    /// RNG seed; same seed, same workload.
    pub seed: u64,
    /// Construction fan-out (`1` = sequential; the default is the host's
    /// available parallelism). Never affects the generated facts.
    pub threads: usize,
}

impl LargeWorkloadConfig {
    /// A config targeting `facts` total facts with the default shape:
    /// 50% conflicted blocks of width 2–3, 8-block chains.
    pub fn new(facts: usize) -> LargeWorkloadConfig {
        LargeWorkloadConfig {
            facts,
            inconsistency: 0.5,
            min_width: 2,
            max_width: 3,
            chain_len: 8,
            seed: 0xC0FFEE,
            threads: minipool::max_threads(),
        }
    }

    /// Number of components generated: `facts` divided by the expected
    /// per-component fact count (at least 1).
    pub fn component_count(&self) -> usize {
        let expected_width = (self.min_width + self.max_width) as f64 / 2.0;
        let per_component =
            self.chain_len as f64 * (1.0 + self.inconsistency * (expected_width - 1.0));
        ((self.facts as f64 / per_component).round() as usize).max(1)
    }

    fn validate(&self) {
        assert!(self.facts >= 1, "facts must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.inconsistency),
            "inconsistency ratio must lie in 0.0..=1.0, got {}",
            self.inconsistency
        );
        assert!(
            self.min_width >= 2,
            "conflicted blocks need width >= 2, got min_width {}",
            self.min_width
        );
        assert!(
            self.max_width >= self.min_width,
            "max_width {} below min_width {}",
            self.max_width,
            self.min_width
        );
        assert!(self.chain_len >= 1, "chain_len must be at least 1");
    }
}

impl Default for LargeWorkloadConfig {
    fn default() -> LargeWorkloadConfig {
        LargeWorkloadConfig::new(1_000_000)
    }
}

/// What a generator actually produced (the config's `facts` is a target;
/// whole components round it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LargeWorkloadStats {
    /// Facts generated.
    pub facts: usize,
    /// Blocks generated (= components × chain_len).
    pub blocks: usize,
    /// q-connected components generated.
    pub components: usize,
    /// Blocks that received conflicting facts.
    pub conflicted_blocks: usize,
}

/// One component's facts, deterministically derived from
/// `(cfg.seed, component index)`.
fn component_facts(cfg: &LargeWorkloadConfig, c: usize, conflicted: &mut usize) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            .wrapping_add((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let key = |i: usize| Elem::named(format!("c{c}k{i}"));
    let mut out = Vec::with_capacity(cfg.chain_len * 2);
    for i in 0..cfg.chain_len {
        out.push(Fact::r(vec![key(i), key(i + 1)]));
        if rng.gen_bool(cfg.inconsistency) {
            *conflicted += 1;
            let width = rng.gen_range(cfg.min_width..=cfg.max_width);
            for j in 0..width - 1 {
                // Conflicting facts point at private dead-end values, so a
                // fully-conflicted component admits a falsifying repair.
                out.push(Fact::r(vec![key(i), Elem::named(format!("c{c}x{i}_{j}"))]));
            }
        }
    }
    out
}

/// Component indices grouped into chunks for the parallel builders: big
/// enough to amortise per-task overhead, small enough to balance.
fn chunk_ranges(components: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = (components / (threads.max(1) * 8)).max(64).min(components);
    (0..components)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(components))
        .collect()
}

/// Build the workload in memory. Element interning runs concurrently on
/// the sharded store (`cfg.threads` workers); the fact set is identical
/// at every thread count.
pub fn large_q3_db(cfg: &LargeWorkloadConfig) -> Database {
    cfg.validate();
    let m = cfg.component_count();
    let ranges = chunk_ranges(m, cfg.threads);
    let chunks: Vec<Vec<Fact>> = minipool::par_map(cfg.threads, &ranges, |range| {
        let mut conflicted = 0;
        let mut facts = Vec::new();
        for c in range.clone() {
            facts.extend(component_facts(cfg, c, &mut conflicted));
        }
        facts
    });
    let mut db = Database::new(Signature::new(2, 1).expect("q3 signature"));
    for chunk in chunks {
        for f in chunk {
            db.insert(f).expect("generated facts share the signature");
        }
    }
    db
}

/// Stream the workload to `w` in the fact-file format (`docs/FORMAT.md`)
/// without building a [`Database`]: components are rendered in parallel
/// chunks, one bounded batch of chunks at a time, and written in order —
/// peak memory is one batch (≲ a few chunks per thread) regardless of
/// `facts`. The output starts with a `#` comment recording the config,
/// and is byte-identical at every thread count.
pub fn write_large_q3<W: Write>(
    cfg: &LargeWorkloadConfig,
    w: &mut W,
) -> io::Result<LargeWorkloadStats> {
    cfg.validate();
    let m = cfg.component_count();
    writeln!(
        w,
        "# cqa large-q3 workload: facts~{} inconsistency={} width={}..={} chain_len={} seed={}",
        cfg.facts, cfg.inconsistency, cfg.min_width, cfg.max_width, cfg.chain_len, cfg.seed
    )?;
    let mut stats = LargeWorkloadStats {
        facts: 0,
        blocks: m * cfg.chain_len,
        components: m,
        conflicted_blocks: 0,
    };
    let ranges = chunk_ranges(m, cfg.threads);
    // Render batch-by-batch so only one batch of rendered text is ever
    // alive: 2 chunks per thread keeps every worker busy while the
    // previous batch drains to `w`.
    for batch in ranges.chunks((cfg.threads.max(1) * 2).max(1)) {
        let rendered: Vec<(String, usize, usize)> =
            minipool::par_map(cfg.threads, batch, |range| {
                let mut text = String::new();
                let mut facts = 0usize;
                let mut conflicted = 0usize;
                for c in range.clone() {
                    for f in component_facts(cfg, c, &mut conflicted) {
                        // Signature is [2, 1]: one key position, one value
                        // position; write! appends in place (no per-fact
                        // temporary String).
                        use std::fmt::Write as _;
                        let _ = writeln!(text, "R({} | {})", f.at(0), f.at(1));
                        facts += 1;
                    }
                }
                (text, facts, conflicted)
            });
        for (text, facts, conflicted) in rendered {
            w.write_all(text.as_bytes())?;
            stats.facts += facts;
            stats.conflicted_blocks += conflicted;
        }
    }
    Ok(stats)
}

/// Parameters for the **contested** large family: clusters shaped like
/// [`q3_certain_db`](crate::q3_certain_db) — `width` two-fact blocks all
/// funnelling into one shared hub/tail pair, every repair satisfying
/// `q3` — so antichain membership lists over the shared blocks grow with
/// `width`. This is the `Cert_k` stress shape: the wider the funnel, the
/// harder a naive fact-keyed antichain index degrades (see the
/// `cert2_q3/contested` series in `BASELINES.md`).
///
/// [`ContestedWorkloadConfig::certain_fraction`] makes the family
/// *certain-heavy* rather than all-certain: the given fraction of
/// clusters keeps the certain funnel shape, the rest are rebuilt as
/// falsifiable funnels (every contested choice escapes to a private dead
/// end and the hub block is contested too, so one repair avoids all
/// solutions). Certain clusters are spread evenly across the cluster
/// index range, so every prefix of the component order mixes both
/// kinds.
///
/// Generation is deterministic (no RNG: the shape is fixed by the
/// config) and chunk-parallel like the chain family; the output never
/// depends on `threads`.
#[derive(Clone, Copy, Debug)]
pub struct ContestedWorkloadConfig {
    /// Target total fact count. Whole clusters round it: a certain
    /// cluster has `2·width + 2` facts, a falsifiable one `2·width + 3`.
    pub facts: usize,
    /// Contested two-fact blocks per cluster (`≥ 1`).
    pub width: usize,
    /// Fraction of clusters that are certain, in `0.0..=1.0` (default
    /// `1.0`, the historical all-certain family). Clusters are assigned
    /// deterministically: cluster `c` is certain iff
    /// `⌊(c+1)·f⌋ > ⌊c·f⌋`, spreading `round(m·f)` certain clusters
    /// evenly over the index range.
    pub certain_fraction: f64,
    /// Construction fan-out (`1` = sequential). Never affects the
    /// generated facts.
    pub threads: usize,
}

impl ContestedWorkloadConfig {
    /// A config targeting `facts` total facts with the given funnel width
    /// (all clusters certain, the historical shape).
    pub fn new(facts: usize, width: usize) -> ContestedWorkloadConfig {
        ContestedWorkloadConfig {
            facts,
            width,
            certain_fraction: 1.0,
            threads: minipool::max_threads(),
        }
    }

    /// This configuration with an explicit certain-cluster fraction.
    pub fn with_certain_fraction(mut self, fraction: f64) -> ContestedWorkloadConfig {
        self.certain_fraction = fraction;
        self
    }

    /// Number of clusters generated: `facts` divided by the expected
    /// per-cluster fact count (at least 1).
    pub fn cluster_count(&self) -> usize {
        let per_cluster =
            2.0 * self.width as f64 + 2.0 + (1.0 - self.certain_fraction.clamp(0.0, 1.0));
        ((self.facts as f64 / per_cluster).round() as usize).max(1)
    }

    /// Is cluster `c` of this config a certain funnel? Deterministic
    /// even spreading: certain iff the scaled index crosses an integer.
    fn cluster_is_certain(&self, c: usize) -> bool {
        let f = self.certain_fraction.clamp(0.0, 1.0);
        (((c + 1) as f64) * f).floor() > ((c as f64) * f).floor()
    }

    fn validate(&self) {
        assert!(self.facts >= 1, "facts must be at least 1");
        assert!(self.width >= 1, "funnel width must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.certain_fraction),
            "certain fraction must lie in 0.0..=1.0, got {}",
            self.certain_fraction
        );
    }
}

/// One contested cluster. Certain shape: `R(tail | sink)`,
/// `R(hub | tail)`, and for each `i < width` the contested block
/// `{R(wᵢ | tail), R(wᵢ | hub)}` — both choices reach a satisfied tail,
/// so every repair satisfies `q3`. Falsifiable shape: the `wᵢ` escapes
/// point at private dead ends (`R(wᵢ | tail)` vs `R(wᵢ | dᵢ)`) and the
/// hub block is contested by a dead-end escape of its own, so the repair
/// picking every escape has no solution.
fn contested_cluster_facts(cfg: &ContestedWorkloadConfig, c: usize) -> Vec<Fact> {
    let width = cfg.width;
    let certain = cfg.cluster_is_certain(c);
    let hub = Elem::named(format!("c{c}h"));
    let tail = Elem::named(format!("c{c}t"));
    let sink = Elem::named(format!("c{c}s"));
    let mut out = Vec::with_capacity(2 * width + 3);
    out.push(Fact::r(vec![tail, sink]));
    out.push(Fact::r(vec![hub, tail]));
    if !certain {
        out.push(Fact::r(vec![hub, Elem::named(format!("c{c}hd"))]));
    }
    for i in 0..width {
        let w = Elem::named(format!("c{c}w{i}"));
        out.push(Fact::r(vec![w, tail]));
        if certain {
            out.push(Fact::r(vec![w, hub]));
        } else {
            out.push(Fact::r(vec![w, Elem::named(format!("c{c}d{i}"))]));
        }
    }
    out
}

/// Build the contested workload in memory (chunk-parallel interning, fact
/// set independent of the thread count).
pub fn large_contested_q3_db(cfg: &ContestedWorkloadConfig) -> Database {
    cfg.validate();
    let m = cfg.cluster_count();
    let ranges = chunk_ranges(m, cfg.threads);
    let chunks: Vec<Vec<Fact>> = minipool::par_map(cfg.threads, &ranges, |range| {
        let mut facts = Vec::new();
        for c in range.clone() {
            facts.extend(contested_cluster_facts(cfg, c));
        }
        facts
    });
    let mut db = Database::new(Signature::new(2, 1).expect("q3 signature"));
    for chunk in chunks {
        for f in chunk {
            db.insert(f).expect("generated facts share the signature");
        }
    }
    db
}

/// Stream the contested workload to `w` in the fact-file format without
/// building a [`Database`] — same batched parallel rendering as
/// [`write_large_q3`], byte-identical at every thread count.
pub fn write_large_contested_q3<W: Write>(
    cfg: &ContestedWorkloadConfig,
    w: &mut W,
) -> io::Result<LargeWorkloadStats> {
    cfg.validate();
    let m = cfg.cluster_count();
    writeln!(
        w,
        "# cqa contested-q3 workload: facts~{} width={} certain-fraction={}",
        cfg.facts, cfg.width, cfg.certain_fraction
    )?;
    let mut stats = LargeWorkloadStats {
        facts: 0,
        blocks: m * (cfg.width + 2),
        components: m,
        conflicted_blocks: 0,
    };
    let ranges = chunk_ranges(m, cfg.threads);
    for batch in ranges.chunks((cfg.threads.max(1) * 2).max(1)) {
        let rendered: Vec<(String, usize, usize)> =
            minipool::par_map(cfg.threads, batch, |range| {
                let mut text = String::new();
                let mut facts = 0usize;
                let mut conflicted = 0usize;
                for c in range.clone() {
                    for f in contested_cluster_facts(cfg, c) {
                        use std::fmt::Write as _;
                        let _ = writeln!(text, "R({} | {})", f.at(0), f.at(1));
                        facts += 1;
                    }
                    // A falsifiable cluster contests its hub block too.
                    conflicted += cfg.width + usize::from(!cfg.cluster_is_certain(c));
                }
                (text, facts, conflicted)
            });
        for (text, facts, conflicted) in rendered {
            w.write_all(text.as_bytes())?;
            stats.facts += facts;
            stats.conflicted_blocks += conflicted;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::examples;
    use cqa_solvers::CertKConfig;

    fn small(facts: usize, inconsistency: f64) -> LargeWorkloadConfig {
        LargeWorkloadConfig {
            facts,
            inconsistency,
            seed: 42,
            ..LargeWorkloadConfig::new(facts)
        }
    }

    #[test]
    fn consistent_when_ratio_zero() {
        let cfg = small(500, 0.0);
        let db = large_q3_db(&cfg);
        assert!(db.is_consistent());
        assert_eq!(db.len(), cfg.component_count() * cfg.chain_len);
        assert_eq!(db.block_count(), db.len());
    }

    #[test]
    fn fully_conflicted_when_ratio_one() {
        let cfg = LargeWorkloadConfig {
            min_width: 3,
            max_width: 3,
            ..small(300, 1.0)
        };
        let db = large_q3_db(&cfg);
        let m = cfg.component_count();
        assert_eq!(db.block_count(), m * cfg.chain_len);
        assert_eq!(db.len(), 3 * m * cfg.chain_len);
        for b in db.block_ids() {
            assert_eq!(db.block(b).len(), 3, "every block contested at width 3");
        }
    }

    #[test]
    fn output_identical_across_thread_counts() {
        let base = small(400, 0.5);
        let mut outs = Vec::new();
        for threads in [1usize, 2, 7] {
            let cfg = LargeWorkloadConfig { threads, ..base };
            let mut buf = Vec::new();
            let stats = write_large_q3(&cfg, &mut buf).unwrap();
            outs.push((buf, stats));
        }
        for (buf, stats) in &outs[1..] {
            assert_eq!(buf, &outs[0].0, "bytes drifted with thread count");
            assert_eq!(stats, &outs[0].1);
        }
    }

    #[test]
    fn written_facts_match_in_memory_database() {
        let cfg = small(250, 0.4);
        let db = large_q3_db(&cfg);
        let mut buf = Vec::new();
        let stats = write_large_q3(&cfg, &mut buf).unwrap();
        assert_eq!(stats.facts, db.len());
        assert_eq!(stats.blocks, db.block_count());
        let text = String::from_utf8(buf).unwrap();
        let lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(lines, db.len());
    }

    #[test]
    fn fact_count_tracks_target() {
        for (facts, ratio) in [(1_000, 0.0), (2_000, 0.5), (3_000, 1.0)] {
            let cfg = small(facts, ratio);
            let db = large_q3_db(&cfg);
            let err = (db.len() as f64 - facts as f64).abs() / facts as f64;
            assert!(
                err < 0.15,
                "generated {} facts for target {facts} (ratio {ratio})",
                db.len()
            );
        }
    }

    #[test]
    fn verdict_stable_across_solver_thread_counts() {
        let db = large_q3_db(&small(600, 0.6));
        let q3 = examples::q3();
        let cfg = CertKConfig::new(2);
        let seq = cqa_solvers::certain_combined(&q3, &db, cfg.with_threads(1));
        let par = cqa_solvers::certain_combined(&q3, &db, cfg.with_threads(4));
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn components_stay_disjoint() {
        let cfg = small(400, 0.5);
        let db = large_q3_db(&cfg);
        let comps = cqa_solvers::q_connected_components(&examples::q3(), &db);
        assert_eq!(comps.len(), cfg.component_count());
    }

    #[test]
    fn contested_clusters_are_certain_components() {
        let cfg = ContestedWorkloadConfig {
            threads: 2,
            ..ContestedWorkloadConfig::new(500, 10)
        };
        let db = large_contested_q3_db(&cfg);
        let m = cfg.cluster_count();
        assert_eq!(db.len(), m * (2 * cfg.width + 2));
        assert_eq!(db.block_count(), m * (cfg.width + 2));
        let q3 = examples::q3();
        let comps = cqa_solvers::q_connected_components(&q3, &db);
        assert_eq!(comps.len(), m, "one q-connected component per cluster");
        // Every cluster is certain, so the whole database is.
        assert!(cqa_solvers::cert2(&q3, &db).is_certain());
        let combined = cqa_solvers::certain_combined(&q3, &db, CertKConfig::new(2).with_threads(2));
        assert!(combined.certain);
        assert!(combined.components.iter().all(|v| v.certain));
    }

    #[test]
    fn contested_stream_matches_in_memory_database() {
        let cfg = ContestedWorkloadConfig {
            threads: 3,
            ..ContestedWorkloadConfig::new(300, 7)
        };
        let db = large_contested_q3_db(&cfg);
        let mut buf = Vec::new();
        let stats = write_large_contested_q3(&cfg, &mut buf).unwrap();
        assert_eq!(stats.facts, db.len());
        assert_eq!(stats.blocks, db.block_count());
        assert_eq!(stats.components, cfg.cluster_count());
        assert_eq!(stats.conflicted_blocks, cfg.cluster_count() * cfg.width);
        let text = String::from_utf8(buf).unwrap();
        let lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(lines, db.len());
        // Byte-identical across thread counts.
        for threads in [1usize, 5] {
            let mut other = Vec::new();
            write_large_contested_q3(&ContestedWorkloadConfig { threads, ..cfg }, &mut other)
                .unwrap();
            assert_eq!(String::from_utf8(other).unwrap(), text);
        }
    }

    #[test]
    fn contested_certain_fraction_controls_the_verdict() {
        let q3 = examples::q3();
        // Fraction 0: every cluster falsifiable, database not certain.
        let none = ContestedWorkloadConfig::new(400, 6).with_certain_fraction(0.0);
        let db = large_contested_q3_db(&none);
        assert!(!cqa_solvers::certain_brute(&q3, &db));
        assert!(!cqa_solvers::cert2(&q3, &db).is_certain());
        let comps = cqa_solvers::q_connected_components(&q3, &db);
        assert_eq!(
            comps.len(),
            none.cluster_count(),
            "falsifiable clusters stay single components"
        );

        // Fraction 0.5: about half the clusters certain, evenly spread,
        // so the database is certain and roughly half the per-cluster
        // verdicts are.
        let half = ContestedWorkloadConfig::new(600, 6).with_certain_fraction(0.5);
        let db = large_contested_q3_db(&half);
        assert!(cqa_solvers::cert2(&q3, &db).is_certain());
        let combined = cqa_solvers::certain_combined(&q3, &db, CertKConfig::new(2).with_threads(1));
        let certain_clusters = combined.components.iter().filter(|v| v.certain).count();
        let m = half.cluster_count();
        assert!(
            certain_clusters >= m / 3 && certain_clusters <= 2 * m / 3 + 1,
            "{certain_clusters}/{m} certain clusters for fraction 0.5"
        );
        // The first certain cluster appears early (even spreading).
        let first_certain = combined.components.iter().position(|v| v.certain);
        assert!(first_certain.unwrap() <= 2, "{first_certain:?}");

        // Streamed output matches the in-memory database here too.
        let mut buf = Vec::new();
        let stats = write_large_contested_q3(&half, &mut buf).unwrap();
        assert_eq!(stats.facts, db.len());
        assert_eq!(stats.blocks, db.block_count());
        let inconsistent_blocks = db.block_ids().filter(|&b| db.block(b).len() >= 2).count();
        assert_eq!(stats.conflicted_blocks, inconsistent_blocks);
    }

    #[test]
    #[should_panic(expected = "certain fraction")]
    fn contested_rejects_bad_fraction() {
        let cfg = ContestedWorkloadConfig::new(100, 2).with_certain_fraction(1.5);
        let _ = large_contested_q3_db(&cfg);
    }

    #[test]
    #[should_panic(expected = "funnel width")]
    fn contested_rejects_zero_width() {
        let _ = large_contested_q3_db(&ContestedWorkloadConfig::new(100, 0));
    }

    #[test]
    #[should_panic(expected = "inconsistency ratio")]
    fn rejects_bad_ratio() {
        let cfg = LargeWorkloadConfig {
            inconsistency: 1.5,
            ..LargeWorkloadConfig::new(100)
        };
        let _ = large_q3_db(&cfg);
    }
}
