//! `cqa fleet` — differential validation over random query fleets.
//!
//! The PR 6 differential harness mutates *databases* under the paper's
//! fixed exemplar queries. This module closes the other half of the
//! space: it draws seeded random query fleets
//! ([`cqa_workloads::queries`]), pairs each query with skewed database
//! families ([`cqa_workloads::skew`]), and cross-checks the whole
//! classify → route → solve pipeline on every (query, database) pair:
//!
//! * **classification determinism** — `classify` twice, same verdict;
//! * **display → parse → classify stability** — the canonical display
//!   form re-parses to the same query with the same classification;
//! * **route agreement** — the literal, component and auto engine routes
//!   ([`route_engines`]) all return the same verdict (modulo budget
//!   exhaustion);
//! * **`Cert_k` reference parity** — the block-indexed fixpoint agrees
//!   with the frozen seed-era `certk::reference` evaluator;
//! * **ground truth** — verdicts are compared against the budgeted brute
//!   force: exact equality where exactness is a theorem (Trivial
//!   queries, Theorem 6.1's `Cert_2` class, and the coNP class where the
//!   engine *is* the brute force), and the sound direction
//!   (`Certain ⇒ certain`) everywhere else.
//!
//! The one-sided check in the last bullet is deliberate: Theorem 8.1
//! proves `Cert_k` complete only for an enormous `k`
//! (`k = 2^{2κ+1} + κ − 1`), while the engines run a practical `k`.
//! A pair where brute force proves certainty that `Cert_k` at the
//! configured `k` cannot reach is *expected* incompleteness, reported as
//! a `k-incomplete` count rather than a disagreement. A disagreement in
//! any other direction is a bug; [`QueryHarness::check_db`] reports it
//! with the full query text and serialised database so it can be
//! minimised into `crates/fuzz/regressions/querydiff/`.

use crate::dbfmt::write_database;
use crate::{CliError, CmdOut, Flags};
use cqa::solvers::certk::reference::certk_reference;
use cqa::solvers::{certain_brute_budgeted, certk, BruteOutcome, CertKConfig, CertKOutcome};
use cqa::{classify, Classification, Complexity, Confidence, CqaEngine, EngineConfig, RoutePolicy};
use cqa_model::Database;
use cqa_query::{parse_query, Query};
use cqa_workloads::{derive_seed, random_distinct_queries, random_queries, skewed_db};
use cqa_workloads::{QueryGenConfig, SkewFamily};
use std::fmt::Write as _;

/// Node budget for the ground-truth brute force of the differential
/// harnesses (this fleet and the fuzz targets); exhausting it skips the
/// ground comparison for that pair (counted here, rejected by the fuzz
/// targets).
pub const BRUTE_BUDGET: u64 = 500_000;

/// Node budget for every `Cert_k` evaluation in the differential
/// harnesses.
pub const CERTK_BUDGET: u64 = 2_000_000;

/// The practical `k` the fleet engines run. `3` covers every exemplar
/// (`q5` needs 3 where the default engine uses 2) at tolerable cost.
pub const FLEET_K: usize = 3;

/// The route matrix the differential harnesses diff: the literal,
/// component and auto-routed engines for `query`, named by route and
/// thread count, each running `Cert_k` at `k` under [`CERTK_BUDGET`] and
/// the brute force under [`BRUTE_BUDGET`]. Building an engine classifies
/// the query, so callers build the matrix once per query.
pub fn route_engines(query: &Query, k: usize) -> Vec<(&'static str, CqaEngine)> {
    let engine = |route, threads| {
        let mut cfg = EngineConfig::default()
            .with_threads(threads)
            .with_route(route);
        cfg.certk.k = k;
        cfg.certk.node_budget = CERTK_BUDGET;
        cfg.brute_budget = BRUTE_BUDGET;
        CqaEngine::with_config(query.clone(), cfg)
    };
    vec![
        ("literal/t1", engine(RoutePolicy::Literal, 1)),
        ("component/t2", engine(RoutePolicy::Component, 2)),
        ("auto/t1", engine(RoutePolicy::Auto, 1)),
    ]
}

/// A cross-check failure: everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Which invariant broke (stable, greppable slug).
    pub kind: &'static str,
    /// The query, in concrete syntax.
    pub query: String,
    /// The database, serialised in the `docs/FORMAT.md` line format
    /// (empty for database-free failures such as classification
    /// instability).
    pub db: String,
    /// Human-readable detail: routes and verdicts involved.
    pub detail: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DISAGREEMENT [{}]: {}", self.kind, self.detail)?;
        writeln!(f, "  query: {}", self.query)?;
        if !self.db.is_empty() {
            writeln!(f, "  database:")?;
            for line in self.db.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Per-pair statistics [`QueryHarness::check_db`] reports back.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairStats {
    /// The ground-truth brute force ran out of budget; ground comparisons
    /// were skipped.
    pub brute_exhausted: bool,
    /// Brute force proved certainty the configured `Cert_k` could not
    /// derive (expected incompleteness, see the module docs).
    pub k_incomplete: bool,
    /// Number of engine routes that exhausted their budget on this pair.
    pub routes_exhausted: usize,
}

/// One fleet query with its engines built and its classification checked
/// for determinism and display→parse→classify stability.
pub struct QueryHarness {
    text: String,
    query: Query,
    classification: Classification,
    engines: Vec<(&'static str, CqaEngine)>,
}

/// The classification triple that must be reproducible.
fn triple(c: &Classification) -> (Complexity, &'static str, Confidence) {
    // `ClassificationRule` is Copy+Debug; the static name keeps the
    // comparison readable in failure output.
    (c.complexity, rule_name(c), c.confidence)
}

fn rule_name(c: &Classification) -> &'static str {
    match c.rule {
        cqa::ClassificationRule::OneAtomEquivalent => "OneAtomEquivalent",
        cqa::ClassificationRule::Theorem42 => "Theorem42",
        cqa::ClassificationRule::Theorem61 => "Theorem61",
        cqa::ClassificationRule::Theorem81 => "Theorem81",
        cqa::ClassificationRule::Theorem91 => "Theorem91",
        cqa::ClassificationRule::Theorem105 => "Theorem105",
    }
}

impl QueryHarness {
    /// Build the harness for one query: classify (twice), check the
    /// display round trip, and construct the engine route matrix.
    pub fn new(text: &str, query: Query) -> Result<QueryHarness, Box<Disagreement>> {
        let first = classify(&query);
        let second = classify(&query);
        if triple(&first) != triple(&second) {
            return Err(Box::new(Disagreement {
                kind: "classify-nondeterministic",
                query: text.to_string(),
                db: String::new(),
                detail: format!(
                    "classify(q) returned {:?} then {:?}",
                    triple(&first),
                    triple(&second)
                ),
            }));
        }
        let shown = query.display();
        let reparsed = parse_query(&shown).map_err(|e| {
            Box::new(Disagreement {
                kind: "display-parse-broken",
                query: text.to_string(),
                db: String::new(),
                detail: format!("display() = {shown:?} does not re-parse: {e}"),
            })
        })?;
        if reparsed != query {
            return Err(Box::new(Disagreement {
                kind: "display-parse-unstable",
                query: text.to_string(),
                db: String::new(),
                detail: format!("display() = {shown:?} re-parses to a different query"),
            }));
        }
        let re_classified = classify(&reparsed);
        if triple(&re_classified) != triple(&first) {
            return Err(Box::new(Disagreement {
                kind: "display-classify-unstable",
                query: text.to_string(),
                db: String::new(),
                detail: format!(
                    "classify after display round trip: {:?} vs {:?}",
                    triple(&re_classified),
                    triple(&first)
                ),
            }));
        }
        let engines = route_engines(&query, FLEET_K);
        Ok(QueryHarness {
            text: text.to_string(),
            query,
            classification: first,
            engines,
        })
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The (deterministic) classification.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Cross-check every route, the reference evaluator and the brute
    /// force on one database.
    pub fn check_db(&self, db: &Database) -> Result<PairStats, Box<Disagreement>> {
        let mut stats = PairStats::default();
        let fail = |kind: &'static str, detail: String| {
            Box::new(Disagreement {
                kind,
                query: self.text.clone(),
                db: write_database(db),
                detail,
            })
        };

        let ground = match certain_brute_budgeted(&self.query, db, BRUTE_BUDGET) {
            BruteOutcome::Certain => Some(true),
            BruteOutcome::NotCertain(_) => Some(false),
            BruteOutcome::BudgetExhausted => {
                stats.brute_exhausted = true;
                None
            }
        };

        // Route agreement: every non-exhausted route returns one verdict.
        let mut verdicts: Vec<(&'static str, bool)> = Vec::new();
        for (name, engine) in &self.engines {
            let ans = engine.certain(db);
            if ans.budget_exhausted {
                stats.routes_exhausted += 1;
                continue;
            }
            verdicts.push((name, ans.certain));
        }
        if let Some(&(first_name, first)) = verdicts.first() {
            for &(name, v) in &verdicts[1..] {
                if v != first {
                    return Err(fail(
                        "route-mismatch",
                        format!("route {first_name} says certain={first} but {name} says {v}"),
                    ));
                }
            }
        }

        // Ground truth, where we have it.
        if let (Some(ground), Some(&(name, verdict))) = (ground, verdicts.first()) {
            let exact = match self.classification.complexity {
                Complexity::Trivial | Complexity::CoNpComplete => true,
                Complexity::PTimeCert2 => self.classification.confidence == Confidence::Proved,
                Complexity::PTimeCertK | Complexity::PTimeCombined => false,
            };
            if exact && verdict != ground {
                return Err(fail(
                    "ground-mismatch",
                    format!(
                        "route {name} ({:?}, exactness proven) says certain={verdict} \
                         but brute force says {ground}",
                        self.classification.complexity
                    ),
                ));
            }
            if verdict && !ground {
                return Err(fail(
                    "unsound-certain",
                    format!(
                        "route {name} ({:?}) claims certain but brute force \
                         found a falsifying repair",
                        self.classification.complexity
                    ),
                ));
            }
            if !verdict && ground {
                stats.k_incomplete = true;
            }
        }

        // Block-indexed `Cert_k` vs the frozen reference evaluator, on the
        // classes the engines answer with `Cert_k` machinery.
        if self.classification.complexity != Complexity::CoNpComplete {
            let mut cfg = CertKConfig::new(FLEET_K).with_threads(1);
            cfg.node_budget = CERTK_BUDGET;
            let fast = certk(&self.query, db, cfg);
            let reference = certk_reference(&self.query, db, cfg);
            match (fast, reference) {
                (CertKOutcome::BudgetExhausted, _) | (_, CertKOutcome::BudgetExhausted) => {}
                (a, b) if a != b => {
                    return Err(fail(
                        "certk-reference-mismatch",
                        format!("certk (k={FLEET_K}) says {a:?} but certk_reference says {b:?}"),
                    ));
                }
                _ => {}
            }
            if fast == CertKOutcome::Certain && ground == Some(false) {
                return Err(fail(
                    "certk-unsound",
                    format!(
                        "certk (k={FLEET_K}) derived Certain but brute force \
                         found a falsifying repair"
                    ),
                ));
            }
        }
        Ok(stats)
    }
}

/// Fleet dimensions, from the CLI flags.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of random queries.
    pub queries: usize,
    /// Number of skewed databases per query (families rotate).
    pub dbs: usize,
    /// Base seed; queries and every (query, db) pair derive their own
    /// stream from it.
    pub seed: u64,
    /// Fact budget per database.
    pub max_facts: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            queries: 200,
            dbs: 3,
            seed: 0,
            max_facts: 48,
        }
    }
}

/// Run a fleet and summarise. Returns the first disagreement as an error.
pub fn run_fleet(cfg: &FleetConfig) -> Result<String, Box<Disagreement>> {
    let gen_cfg = QueryGenConfig::default();
    let fleet = random_queries(cfg.seed, cfg.queries, &gen_cfg);
    let mut pairs = 0usize;
    let mut brute_skipped = 0usize;
    let mut k_incomplete = 0usize;
    let mut routes_exhausted = 0usize;
    let mut by_complexity = std::collections::BTreeMap::<&'static str, usize>::new();
    let mut by_confidence = std::collections::BTreeMap::<&'static str, usize>::new();
    let mut by_family = std::collections::BTreeMap::<&'static str, usize>::new();
    for (i, g) in fleet.iter().enumerate() {
        let harness = QueryHarness::new(&g.text, g.query.clone())?;
        let c = harness.classification();
        *by_complexity
            .entry(complexity_name(c.complexity))
            .or_default() += 1;
        *by_confidence
            .entry(match c.confidence {
                Confidence::Proved => "Proved",
                Confidence::BoundedEvidence => "BoundedEvidence",
            })
            .or_default() += 1;
        for j in 0..cfg.dbs {
            let family = SkewFamily::ALL[j % SkewFamily::ALL.len()];
            let db = skewed_db(
                derive_seed(cfg.seed, i as u64, j as u64),
                &g.query,
                &family.config(cfg.max_facts),
            );
            let stats = harness.check_db(&db)?;
            pairs += 1;
            *by_family.entry(family.name()).or_default() += 1;
            brute_skipped += stats.brute_exhausted as usize;
            k_incomplete += stats.k_incomplete as usize;
            routes_exhausted += stats.routes_exhausted;
        }
    }
    let fmt_map = |m: &std::collections::BTreeMap<&'static str, usize>| {
        m.iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} queries x {} dbs (seed {}, ~{} facts/db, k={FLEET_K})",
        cfg.queries, cfg.dbs, cfg.seed, cfg.max_facts
    );
    let _ = writeln!(out, "pairs checked:   {pairs}");
    let _ = writeln!(out, "complexity:      {}", fmt_map(&by_complexity));
    let _ = writeln!(out, "confidence:      {}", fmt_map(&by_confidence));
    let _ = writeln!(out, "db families:     {}", fmt_map(&by_family));
    let _ = writeln!(
        out,
        "brute skipped:   {brute_skipped} (budget {BRUTE_BUDGET})"
    );
    let _ = writeln!(
        out,
        "k-incomplete:    {k_incomplete} (brute proved certainty beyond Cert_{FLEET_K}; expected)"
    );
    let _ = writeln!(out, "routes exhausted: {routes_exhausted}");
    let _ = writeln!(out, "disagreements:   0");
    Ok(out)
}

fn complexity_name(c: Complexity) -> &'static str {
    match c {
        Complexity::Trivial => "Trivial",
        Complexity::PTimeCert2 => "PTimeCert2",
        Complexity::PTimeCertK => "PTimeCertK",
        Complexity::PTimeCombined => "PTimeCombined",
        Complexity::CoNpComplete => "CoNpComplete",
    }
}

/// `cqa fleet` flag parsing + execution. `--corpus` switches to printing
/// the pinned-verdict classification table (the generator behind
/// `tests/data/classifier_corpus.tsv`).
pub fn cmd_fleet(args: &[&str]) -> Result<CmdOut, CliError> {
    let mut flags = Flags::new("fleet", args);
    let default = FleetConfig::default();
    let cfg = FleetConfig {
        queries: flags.value("--queries")?.unwrap_or(default.queries),
        dbs: flags.value("--dbs")?.unwrap_or(default.dbs),
        seed: flags.value("--seed")?.unwrap_or(default.seed),
        max_facts: flags.value("--max-facts")?.unwrap_or(default.max_facts),
    };
    let corpus = flags.switch("--corpus");
    flags.finish()?;
    if corpus {
        return Ok(CmdOut::from(corpus_table(cfg.seed, cfg.queries)));
    }
    match run_fleet(&cfg) {
        Ok(summary) => Ok(CmdOut::from(summary)),
        Err(d) => Err(CliError {
            message: d.to_string(),
            code: 3,
        }),
    }
}

/// The classifier corpus table: distinct generated queries with their
/// pinned verdicts, one tab-separated line each
/// (`display-form<TAB>Complexity<TAB>Rule<TAB>Confidence`).
pub fn corpus_table(seed: u64, n: usize) -> String {
    let mut out = String::new();
    for g in random_distinct_queries(seed, n, &QueryGenConfig::default()) {
        let c = classify(&g.query);
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:?}",
            g.query.display(),
            complexity_name(c.complexity),
            rule_name(&c),
            c.confidence
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplar_queries_pass_on_skewed_dbs() {
        for (name, q) in cqa_query::examples::all() {
            let harness = QueryHarness::new(&q.display(), q.clone())
                .unwrap_or_else(|d| panic!("{name}: {d}"));
            // q7's brute force is heavy; a couple of small dbs suffice.
            let facts = if name == "q7" { 12 } else { 40 };
            for (j, family) in SkewFamily::ALL.iter().enumerate() {
                let db = skewed_db(derive_seed(1, j as u64, 0), &q, &family.config(facts));
                harness
                    .check_db(&db)
                    .unwrap_or_else(|d| panic!("{name} on {}: {d}", family.name()));
            }
        }
    }

    #[test]
    fn small_fleet_is_clean_and_deterministic() {
        let cfg = FleetConfig {
            queries: 12,
            dbs: 2,
            seed: 7,
            max_facts: 24,
        };
        let a = run_fleet(&cfg).unwrap_or_else(|d| panic!("{d}"));
        let b = run_fleet(&cfg).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(a, b);
        assert!(a.contains("pairs checked:   24"), "{a}");
        assert!(a.contains("disagreements:   0"), "{a}");
    }

    #[test]
    fn corpus_table_is_deterministic_and_parses() {
        let t1 = corpus_table(3, 10);
        assert_eq!(t1, corpus_table(3, 10));
        for line in t1.lines() {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 4, "{line}");
            cqa_query::parse_query(cols[0]).expect("corpus query re-parses");
        }
    }

    #[test]
    fn fleet_flags_parse() {
        let out = cmd_fleet(&[
            "--queries",
            "4",
            "--dbs",
            "1",
            "--seed",
            "9",
            "--max-facts",
            "16",
        ])
        .unwrap();
        assert!(out.stdout.contains("4 queries x 1 dbs"), "{}", out.stdout);
        assert!(cmd_fleet(&["--bogus"]).is_err());
        assert!(cmd_fleet(&["--queries"]).is_err());
    }
}
