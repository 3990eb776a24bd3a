//! # cqa-cli — command-line front end
//!
//! ```text
//! cqa classify "R(x u | x y) R(u y | x z)"
//! cqa certain  "R(x | y) R(y | z)" employees.facts
//! cqa falsify  "R(x | y) R(y | z)" employees.facts
//! cqa batch    employees.facts queries.txt
//! cqa generate --facts 1000000 huge.facts
//! cqa gadget   "R(x u | x y) R(u y | x z)" formula.cnf
//! cqa solve    formula.cnf
//! ```
//!
//! The command implementations live here (testable); `main.rs` is a thin
//! dispatcher that reads each command's flags through the one [`flags`]
//! parser. Queries are checked against the database by
//! [`cqa_query::parse_query_for`]/[`cqa_query::parse_queries_for`], the
//! same check `cqa serve` makes. Database files use the [`dbfmt`] line format
//! (fully specified in `docs/FORMAT.md`), CNF files are DIMACS. Fact
//! files are **streamed** line-at-a-time through
//! [`dbfmt::read_database`] — `certain` on a million-line file never
//! buffers the file in memory — and `generate` writes workloads of
//! arbitrary size with the concurrent generators of `cqa-workloads`.
//! `batch` answers a whole queries file (one query per line; see
//! `docs/FORMAT.md`) against one database through a
//! [`cqa::SharedSession`], loading the database once instead of once per
//! query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbfmt;
pub mod flags;
pub mod fleet;
pub mod server_cli;

pub use flags::Flags;

use cqa::solvers::{certain_brute_over, BruteOutcome, CancelToken, SolutionSet};
use cqa::{classify, AnsweredBy, Complexity, Confidence, CqaEngine, RoutePolicy, SharedSession};
use cqa_model::Database;
use cqa_query::{parse_queries_for, parse_query, parse_query_for};
use cqa_sat::{parse_dimacs, solve, to_occ3_normal_form, SatResult};
use cqa_workloads::{
    write_large_contested_q3, write_large_q3, ContestedWorkloadConfig, LargeWorkloadConfig,
};
use std::fmt::Write as _;

/// A command's output: `stdout` carries the answer, `stderr` carries
/// optional diagnostics (the `--stats` summaries), so scripted callers can
/// diff verdicts without stripping instrumentation.
#[derive(Clone, Debug, Default)]
pub struct CmdOut {
    /// Text for standard output.
    pub stdout: String,
    /// Text for standard error (empty unless diagnostics were requested).
    pub stderr: String,
}

impl From<String> for CmdOut {
    fn from(stdout: String) -> CmdOut {
        CmdOut {
            stdout,
            stderr: String::new(),
        }
    }
}

/// A CLI failure: message plus suggested exit code.
#[derive(Clone, Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: u8,
}

impl CliError {
    /// A failure with exit code 2 (bad input).
    pub fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// `cqa classify <query>`: the dichotomy verdict with provenance.
pub fn cmd_classify(query: &str) -> Result<String, CliError> {
    let q = parse_query(query).map_err(|e| CliError::new(e.to_string()))?;
    let c = classify(&q);
    let mut out = String::new();
    let _ = writeln!(out, "query:       {}", q.display());
    let _ = writeln!(out, "complexity:  {:?}", c.complexity);
    let _ = writeln!(out, "rule:        {:?}", c.rule);
    let _ = writeln!(out, "confidence:  {:?}", c.confidence);
    if c.confidence == Confidence::BoundedEvidence {
        let _ = writeln!(
            out,
            "             (tripath search hit a budget; absence results are bounded evidence)"
        );
    }
    if let Some(tp) = &c.fork_witness {
        let _ = writeln!(out, "fork-tripath witness: {} blocks", tp.blocks.len());
    }
    if let Some(tp) = &c.triangle_witness {
        let _ = writeln!(out, "triangle-tripath witness: {} blocks", tp.blocks.len());
    }
    let algorithm = match c.complexity {
        Complexity::Trivial => "single-repair evaluation (first-order)",
        Complexity::PTimeCert2 => "greedy fixpoint Cert_2 (Theorem 6.1)",
        Complexity::PTimeCertK => "greedy fixpoint Cert_k (Theorem 8.1)",
        Complexity::PTimeCombined => "Cert_k ∨ ¬matching per component (Theorem 10.5)",
        Complexity::CoNpComplete => "no PTime algorithm (unless PTime = coNP); brute force",
    };
    let _ = writeln!(out, "algorithm:   {algorithm}");
    Ok(out)
}

/// `--threads N` (N ≥ 1), the thread cap of the solver, generator and
/// server commands; `None` = the default (available parallelism).
pub fn threads_flag(flags: &mut Flags) -> Result<Option<usize>, CliError> {
    match flags.value("--threads")? {
        Some(0) => Err(CliError::new("bad thread count \"0\" (want >= 1)")),
        n => Ok(n),
    }
}

/// `--route auto|literal|component` (`certain`, `batch`):
/// forces the engine's literal-vs-component evaluation route for PTime
/// `Cert_k` queries instead of the size/fragmentation heuristic.
pub fn route_flag(flags: &mut Flags) -> Result<Option<RoutePolicy>, CliError> {
    let Some(v) = flags.value::<String>("--route")? else {
        return Ok(None);
    };
    match v.as_str() {
        "auto" => Ok(Some(RoutePolicy::Auto)),
        "literal" => Ok(Some(RoutePolicy::Literal)),
        "component" => Ok(Some(RoutePolicy::Component)),
        other => Err(CliError::new(format!(
            "bad route {other:?} (want auto, literal or component)"
        ))),
    }
}

/// The engine configuration of `--threads` and `--route`.
fn engine_config(threads: Option<usize>, route: Option<RoutePolicy>) -> cqa::EngineConfig {
    let mut config = cqa::EngineConfig::default();
    if let Some(n) = threads {
        config = config.with_threads(n);
    }
    if let Some(policy) = route {
        config = config.with_route(policy);
    }
    config
}

/// Stream-load a fact file from disk ([`dbfmt::read_database`]; the file
/// is parsed line-at-a-time, never buffered whole).
pub fn load_db_file(path: &str) -> Result<Database, CliError> {
    let file = std::fs::File::open(path).map_err(|e| cannot_read(path, e))?;
    dbfmt::read_database(std::io::BufReader::new(file))
        .map_err(|e| CliError::new(format!("{path}: {e}")))
}

/// Read a whole text file (queries, delta script, DIMACS).
pub fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| cannot_read(path, e))
}

fn cannot_read(path: &str, e: std::io::Error) -> CliError {
    CliError::new(format!("cannot read {path}: {e}"))
}

/// A repair count as printed: `Database::repair_count` saturates at
/// `u128::MAX`, which stands for every count from 2^128 up.
fn repair_count_text(count: u128) -> String {
    if count == u128::MAX {
        "≥ 2^128".to_string()
    } else {
        count.to_string()
    }
}

/// `cqa certain <query> <db-file> [--threads N] [--route R] [--stats]`:
/// evaluate `certain(q)` on a (stream-loaded) database. `threads` caps
/// the per-component solver fan-out (`None` = available parallelism);
/// `route` overrides the engine's literal-vs-component heuristic; with
/// `want_stats` a solver-statistics summary goes to stderr.
pub fn cmd_certain(
    query: &str,
    db: &Database,
    threads: Option<usize>,
    route: Option<RoutePolicy>,
    want_stats: bool,
) -> Result<CmdOut, CliError> {
    let q = parse_query_for(query, db.signature()).map_err(|e| CliError::new(e.to_string()))?;
    let engine = CqaEngine::with_config(q, engine_config(threads, route));
    let started = std::time::Instant::now();
    let ans = engine.certain(db);
    let solve_ms = started.elapsed().as_millis();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "database:    {} facts, {} blocks, {} repairs",
        db.len(),
        db.block_count(),
        repair_count_text(db.repair_count())
    );
    let _ = writeln!(out, "complexity:  {:?}", engine.classification().complexity);
    let _ = writeln!(out, "certain:     {}", ans.certain);
    let _ = writeln!(out, "answered by: {:?}", ans.answered_by);
    if ans.budget_exhausted {
        let _ = writeln!(
            out,
            "warning:     budget exhausted; a 'false' may be a false negative"
        );
    }
    let mut err = String::new();
    if want_stats {
        let route_taken = match ans.answered_by {
            AnsweredBy::ComponentCertK => "component (per-component Cert_k fan-out)",
            AnsweredBy::Combined => "component (Theorem 10.5 combined solver)",
            AnsweredBy::CertK => "literal (whole-database Cert_k)",
            AnsweredBy::Trivial => "block scan (one-atom query, first-order)",
            AnsweredBy::BruteForce => "brute force (coNP-complete query)",
        };
        let _ = writeln!(err, "stats: route={route_taken}");
        if let Some(c) = ans.components {
            let _ = writeln!(err, "stats: components={c}");
        }
        if let Some(s) = ans.certk_stats {
            let _ = writeln!(
                err,
                "stats: fixpoint rounds={} members-inserted={} steps={}",
                s.rounds, s.inserted, s.steps
            );
            let _ = writeln!(
                err,
                "stats: antichain peak-live-members={} stale-slots-compacted={}",
                s.peak_members, s.stale_compacted
            );
            let _ = writeln!(
                err,
                "stats: worklist blocks-derived={} blocks-skipped={}",
                s.blocks_derived, s.blocks_skipped
            );
        }
        let _ = writeln!(err, "stats: solve-ms={solve_ms}");
    }
    Ok(CmdOut {
        stdout: out,
        stderr: err,
    })
}

/// `cqa batch <db-file> <queries-file> [--threads N] [--route R]
/// [--stats]`: answer many queries against one stream-loaded database
/// through a [`cqa::SharedSession`] — each distinct query is
/// classified, enumerated and solved once and repeats hit the verdict
/// cache, so N queries cost one load plus one solve per distinct query
/// instead of N cold invocations. The session owns a
/// clone of `db`, which shares its sealed fact chunks and index shards
/// rather than copying them.
///
/// The queries file holds one query per line (`R(x | y) R(y | z)`);
/// blank lines and `#` comments are skipped, and every line is parsed
/// before any is solved: the first malformed line fails the batch with
/// its line number, byte offset and text (the fact-file convention; full
/// grammar in `docs/FORMAT.md`). Output is
/// one verdict (`true`/`false`) per query line, in input order — exactly
/// the `certain:` value `cqa certain` would print for that query. With
/// `want_stats`, an aggregate summary goes to stderr.
pub fn cmd_batch(
    db: &Database,
    queries_text: &str,
    threads: Option<usize>,
    route: Option<RoutePolicy>,
    want_stats: bool,
) -> Result<CmdOut, CliError> {
    // The same check, positions and wording as the `cqa serve` batch
    // handler: both call cqa_query::parse_queries_for.
    let queries = parse_queries_for(queries_text, db.signature()).map_err(CliError::new)?;
    let session = SharedSession::new(
        std::sync::Arc::new(db.clone()),
        engine_config(threads, route),
    );
    let mut out = String::new();
    let started = std::time::Instant::now();
    for q in &queries {
        let _ = writeln!(out, "{}", session.certain(q).certain);
    }
    let solve_ms = started.elapsed().as_millis();
    let stats = session.stats();
    let mut err = String::new();
    if want_stats {
        let _ = writeln!(
            err,
            "stats: batch queries={} distinct={} cache-hits={}",
            stats.queries, stats.distinct_queries, stats.cache_hits
        );
        let _ = writeln!(
            err,
            "stats: batch database facts={} blocks={}",
            db.len(),
            db.block_count()
        );
        let _ = writeln!(err, "stats: batch solve-ms={solve_ms}");
    }
    Ok(CmdOut {
        stdout: out,
        stderr: err,
    })
}

/// `cqa update <db-file> <deltas-file> <queries-file> [--threads N]
/// [--recompute] [--stats]`: apply a delta script to a
/// database and answer a queries file on the result.
///
/// By default the queries are answered **incrementally**: they are
/// solved on the pre-delta database first (warming per-query caches),
/// the delta is applied through [`cqa::SharedSession::with_delta`]
/// (patched verdicts, dirty components re-solved), and the post-delta
/// verdicts are printed. With `recompute`, the delta is applied to the
/// raw database and every query is solved from scratch. The two modes
/// must print byte-identical stdout — the CI delta smoke diffs them,
/// which is the whole point of having both.
///
/// The delta script grammar is the signed fact-line format of the
/// server's `update` method (`+ R(a | b)` / `- R(a | b)`, `#` comments;
/// see `docs/DELTAS.md`), parsed and checked by
/// [`cqa_server::parse_update_script`] and
/// [`cqa_server::DeltaScript::check_for`], as the server's `update` is.
pub fn cmd_update(
    db: Database,
    deltas_text: &str,
    queries_text: &str,
    threads: Option<usize>,
    recompute: bool,
    want_stats: bool,
) -> Result<CmdOut, CliError> {
    let script = cqa_server::parse_update_script(deltas_text).map_err(CliError::new)?;
    script.check_for(db.signature()).map_err(CliError::new)?;
    // Every query is parsed before any is solved, so malformed input
    // fails identically on both modes.
    let queries = parse_queries_for(queries_text, db.signature()).map_err(CliError::new)?;
    let config = engine_config(threads, None);
    let mut out = String::new();
    let mut err = String::new();
    let started = std::time::Instant::now();
    if recompute {
        let mut db = db;
        let report = db
            .apply_delta(&script.inserts, &script.retracts)
            .map_err(|e| CliError::new(e.to_string()))?;
        let session = SharedSession::new(std::sync::Arc::new(db), config);
        for q in &queries {
            let _ = writeln!(out, "{}", session.certain(q).certain);
        }
        let db = session.db();
        if want_stats {
            let _ = writeln!(
                err,
                "stats: update mode=recompute facts={} inserted={} retracted={}",
                db.len(),
                report.inserted.len(),
                report.retracted.len()
            );
        }
    } else {
        let session = SharedSession::new(std::sync::Arc::new(db), config);
        // Warm the pre-delta caches: this is what makes the incremental
        // path incremental rather than a fancy cold solve.
        for q in &queries {
            let _ = session.certain(q);
        }
        let (next, report) = session
            .into_delta(&script.inserts, &script.retracts)
            .map_err(|e| CliError::new(e.to_string()))?;
        for q in &queries {
            let _ = writeln!(out, "{}", next.certain(q).certain);
        }
        if want_stats {
            let ds = next.delta_stats();
            let _ = writeln!(
                err,
                "stats: update mode=incremental facts={} inserted={} retracted={} \
                 touched-blocks={} fresh-blocks={} growth-only={}",
                next.db().len(),
                report.inserted.len(),
                report.retracted.len(),
                report.touched.len(),
                report.fresh_blocks.len(),
                report.growth_only()
            );
            let _ = writeln!(
                err,
                "stats: update delta-applied={} blocks-reseeded={} verdicts-retained={}",
                ds.delta_applied, ds.blocks_reseeded, ds.verdicts_retained
            );
        }
    }
    if want_stats {
        let _ = writeln!(
            err,
            "stats: update solve-ms={}",
            started.elapsed().as_millis()
        );
    }
    Ok(CmdOut {
        stdout: out,
        stderr: err,
    })
}

/// `cqa falsify <query> <db-file> [budget] [--stats]`: exhibit a
/// falsifying repair, if any. The query must have the database's
/// signature, as for `certain`.
pub fn cmd_falsify(
    query: &str,
    db: &Database,
    budget: u64,
    want_stats: bool,
) -> Result<CmdOut, CliError> {
    let q = parse_query_for(query, db.signature()).map_err(|e| CliError::new(e.to_string()))?;
    let mut out = String::new();
    let started = std::time::Instant::now();
    let solutions = SolutionSet::enumerate(&q, db);
    let outcome = certain_brute_over(db, &solutions, budget, &CancelToken::new())
        .expect("a never-raised token cannot cancel the search");
    let solve_ms = started.elapsed().as_millis();
    match outcome {
        BruteOutcome::Certain => {
            let _ = writeln!(out, "certain: every repair satisfies the query");
        }
        BruteOutcome::NotCertain(r) => {
            let _ = writeln!(out, "not certain — falsifying repair ({} facts):", r.len());
            for &id in r.facts() {
                let _ = writeln!(out, "  {}", db.fact(id));
            }
        }
        BruteOutcome::BudgetExhausted => {
            let _ = writeln!(out, "inconclusive: search budget ({budget}) exhausted");
        }
    }
    let mut err = String::new();
    if want_stats {
        let _ = writeln!(
            err,
            "stats: brute-force facts={} blocks={}",
            db.len(),
            db.block_count()
        );
        let _ = writeln!(err, "stats: solve-ms={solve_ms}");
    }
    Ok(CmdOut {
        stdout: out,
        stderr: err,
    })
}

/// `cqa generate [options] <out-file>`: write a large `q3`-shaped
/// workload (see [`cqa_workloads::large`]) to a fact file. Options:
/// `--facts N` (target size, default 1000000), `--inconsistency R`
/// (fraction of conflicted blocks, default 0.5), `--min-width A` /
/// `--max-width B` (conflicted block widths, default 2..=3),
/// `--chain-len L` (blocks per component, default 8), `--seed S`.
/// `--contested-width W` selects the *contested* family instead — wide
/// shared-block funnels of `W` contested blocks per cluster, the `Cert_k`
/// stress shape — and is incompatible with the chain-family shape flags;
/// `--certain-fraction F` (contested only, default 1.0) makes only that
/// fraction of clusters certain (the rest falsifiable).
/// `--skew FAMILY` selects a *skewed* family instead
/// (`uniform`, `zipf-contested`, `heavy-hitter` or `mixed-batch`, the
/// [`cqa_workloads::skew`] presets the fleet runner and the server load
/// harness use); it honours `--facts` and `--seed` and rejects the other
/// shape flags.
/// `--threads N` caps the construction fan-out; the file content never
/// depends on it.
pub fn cmd_generate(args: &[&str]) -> Result<String, CliError> {
    let mut flags = Flags::new("generate", args);
    let mut cfg = LargeWorkloadConfig::new(flags.value("--facts")?.unwrap_or(1_000_000));
    if let Some(n) = threads_flag(&mut flags)? {
        cfg.threads = n;
    }
    let contested_width: Option<usize> = flags.value("--contested-width")?;
    let certain_fraction = fraction(&mut flags, "--certain-fraction")?;
    let skew = match flags.value::<String>("--skew")? {
        None => None,
        Some(v) => Some(
            cqa_workloads::skew::SkewFamily::ALL
                .into_iter()
                .find(|f| f.name() == v)
                .ok_or_else(|| {
                    CliError::new(format!(
                        "unknown skew family {v:?} (want uniform, zipf-contested, heavy-hitter or mixed-batch)"
                    ))
                })?,
        ),
    };
    // The chain family's shape flags, by name, in the order given here.
    let mut chain_shape_flags: Vec<&str> = Vec::new();
    if let Some(r) = fraction(&mut flags, "--inconsistency")? {
        cfg.inconsistency = r;
        chain_shape_flags.push("--inconsistency");
    }
    for (name, field) in [
        ("--min-width", &mut cfg.min_width),
        ("--max-width", &mut cfg.max_width),
        ("--chain-len", &mut cfg.chain_len),
    ] {
        if let Some(n) = flags.value(name)? {
            *field = n;
            chain_shape_flags.push(name);
        }
    }
    if let Some(seed) = flags.value("--seed")? {
        cfg.seed = seed;
        chain_shape_flags.push("--seed");
    }
    let path = match flags.positionals()?.as_slice() {
        [path] => *path,
        [] => return Err(CliError::new("generate needs an output file")),
        _ => return Err(CliError::new("generate takes exactly one output file")),
    };
    if let Some(family) = skew {
        // The skewed families are presets: only the fact budget and the
        // seed are tunable, everything else is the family's signature.
        if contested_width.is_some() || certain_fraction.is_some() {
            return Err(CliError::new(
                "--skew selects a preset family; --contested-width/--certain-fraction do not apply",
            ));
        }
        if let Some(flag) = chain_shape_flags.iter().find(|f| **f != "--seed") {
            return Err(CliError::new(format!(
                "{flag} does not apply to the skewed families (--skew)"
            )));
        }
        if cfg.facts == 0 {
            return Err(CliError::new("need --facts >= 1"));
        }
        let q3 = cqa_query::examples::q3();
        let db = cqa_workloads::skew::skewed_db(cfg.seed, &q3, &family.config(cfg.facts));
        let text = dbfmt::write_database(&db);
        write_to_file(path, |w| std::io::Write::write_all(w, text.as_bytes()))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wrote {path}: {} facts, {} blocks (skew family {}, seed {})",
            db.len(),
            db.block_count(),
            family.name(),
            cfg.seed
        );
        return Ok(out);
    }
    if let Some(width) = contested_width {
        // The contested family is deterministic (no seed) and has its own
        // shape knob; mixing the chain-family shape flags in would be
        // silently ignored, so reject them instead.
        if let Some(flag) = chain_shape_flags.first() {
            return Err(CliError::new(format!(
                "{flag} does not apply to the contested family (--contested-width)"
            )));
        }
        if width == 0 || cfg.facts == 0 {
            return Err(CliError::new(
                "need --facts >= 1 and --contested-width >= 1",
            ));
        }
        let contested = ContestedWorkloadConfig {
            facts: cfg.facts,
            width,
            certain_fraction: certain_fraction.unwrap_or(1.0),
            threads: cfg.threads,
        };
        let stats = write_to_file(path, |w| write_large_contested_q3(&contested, w))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wrote {path}: {} facts, {} blocks, {} components ({} contested blocks, width {width}, certain fraction {})",
            stats.facts, stats.blocks, stats.components, stats.conflicted_blocks,
            contested.certain_fraction
        );
        return Ok(out);
    }
    if certain_fraction.is_some() {
        return Err(CliError::new(
            "--certain-fraction only applies to the contested family (--contested-width)",
        ));
    }
    if cfg.min_width < 2 || cfg.max_width < cfg.min_width || cfg.chain_len == 0 || cfg.facts == 0 {
        return Err(CliError::new(
            "need --facts >= 1, --chain-len >= 1 and 2 <= min-width <= max-width",
        ));
    }
    let stats = write_to_file(path, |w| write_large_q3(&cfg, w))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wrote {path}: {} facts, {} blocks, {} components ({} conflicted blocks)",
        stats.facts, stats.blocks, stats.components, stats.conflicted_blocks
    );
    Ok(out)
}

/// Create `path` and run `write` over a buffered writer, flushing at the
/// end; maps every I/O error to a [`CliError`] naming the path.
fn write_to_file<T>(
    path: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<T>,
) -> Result<T, CliError> {
    let io_err = |e: std::io::Error| CliError {
        message: format!("cannot write {path}: {e}"),
        code: 2,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut writer = std::io::BufWriter::new(file);
    let out = write(&mut writer).map_err(io_err)?;
    std::io::Write::flush(&mut writer).map_err(io_err)?;
    Ok(out)
}

/// A `0.0..=1.0` fraction flag of `generate`.
fn fraction(flags: &mut Flags, name: &str) -> Result<Option<f64>, CliError> {
    match flags.value::<f64>(name)? {
        Some(r) if !(0.0..=1.0).contains(&r) => Err(CliError::new(format!(
            "bad value \"{r}\" for {name} (want 0.0..=1.0)"
        ))),
        r => Ok(r),
    }
}

/// `cqa gadget <query> <dimacs>`: the Section 9 reduction as a tool —
/// normalises the formula and emits `D[φ]` in the fact-file format.
pub fn cmd_gadget(query: &str, dimacs_text: &str) -> Result<String, CliError> {
    let q = parse_query(query).map_err(|e| CliError::new(e.to_string()))?;
    let phi = parse_dimacs(dimacs_text).map_err(|e| CliError::new(e.to_string()))?;
    let norm = to_occ3_normal_form(&phi);
    let reduction = cqa_reductions::SatReduction::new(&q, &cqa_tripath::SearchConfig::default())
        .map_err(|e| CliError::new(e.to_string()))?;
    let db = reduction
        .database(&norm)
        .map_err(|e| CliError::new(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "# D[φ] for φ = {phi}");
    let _ = writeln!(out, "# normal form: {norm}");
    out.push_str(&dbfmt::write_database(&db));
    Ok(out)
}

/// `cqa solve <dimacs>`: the bundled DPLL solver.
pub fn cmd_solve(dimacs_text: &str) -> Result<String, CliError> {
    let phi = parse_dimacs(dimacs_text).map_err(|e| CliError::new(e.to_string()))?;
    match solve(&phi) {
        SatResult::Sat(assignment) => {
            let mut vars: Vec<_> = assignment.into_iter().collect();
            vars.sort_by_key(|(v, _)| *v);
            let mut out = String::from("SATISFIABLE\n");
            for (v, val) in vars {
                let _ = writeln!(out, "p{} = {}", v.0, val);
            }
            Ok(out)
        }
        SatResult::Unsat => Ok("UNSATISFIABLE\n".into()),
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "cqa — consistent query answering for two-atom self-join queries (PODS'24)

USAGE:
  cqa classify \"<query>\"
  cqa certain  \"<query>\" <db-file> [--threads N] [--route R] [--stats]
  cqa falsify  \"<query>\" <db-file> [node-budget] [--stats]
  cqa batch    <db-file> <queries-file> [--threads N] [--route R] [--stats]
  cqa update   <db-file> <deltas-file> <queries-file> [--threads N]
               [--recompute] [--stats]
  cqa generate [--facts N] [--inconsistency R] [--min-width A] [--max-width B]
               [--chain-len L] [--seed S] [--contested-width W]
               [--certain-fraction F] [--skew FAMILY] [--threads N] <out-file>
  cqa fleet    [--queries N] [--dbs M] [--seed S] [--max-facts F] [--corpus]
  cqa serve    [--addr HOST:PORT] [--memory-budget BYTES] [--threads N]
               [--max-queue N] [--stats]
  cqa client   [--deadline-ms N] [--retries N] [--retry-seed S] [--repeat N]
               <addr> ping|stats|shutdown
  cqa client   [...same flags] <addr> load <db> | certain <db> \"<query>\"
               | batch <db> <queries-file> | update <db> <deltas-file>
               | falsify <db> \"<query>\" [budget]
  cqa gadget   \"<query>\" <dimacs-file>
  cqa solve    <dimacs-file>

QUERY SYNTAX:     R(x u | x y) R(u y | x z)   (key positions before '|')
DB FILE SYNTAX:   one fact per line, e.g.  R(alice | bob)   ('#' comments);
                  full specification in docs/FORMAT.md. certain/falsify/batch
                  stream the file line-at-a-time (any size).
DELTAS FILE:      update: one signed fact per line — `+ R(a | b)` inserts
                  (the '+' is optional), `- R(a | b)` retracts; '#'
                  comments. Applied atomically; default mode re-answers
                  the queries incrementally (dirty components re-solved),
                  --recompute solves from scratch. The two print
                  byte-identical verdicts (CI diffs them). docs/DELTAS.md.
QUERIES FILE:     batch: one query per line, '#' comments, blank lines
                  skipped; one true/false verdict per line on stdout.
                  The database is loaded and analysed once (per-query
                  session cache), so N queries cost far less than N
                  single-shot runs. Spec in docs/FORMAT.md.
OPTIONS:          Flags follow the command word, in any order among its
                  arguments; a value flag is written `--name v` or
                  `--name=v`. A flag the command does not take is an error.
                  --threads N   solver / generator / server threads
                                (default: available parallelism; 1 = sequential)
                  --route R     certain/batch: auto | literal | component —
                                whole-database Cert_k vs per-component fan-out
                                (default auto: component on large fragmented DBs)
                  --stats       certain/falsify/batch/update/serve:
                                statistics on stderr
                  --contested-width W
                                generate the contested (wide shared block)
                                family instead of the chain family
                  --certain-fraction F
                                generate (contested only): fraction of
                                certain clusters (default 1.0)
                  --skew FAMILY generate a skewed-family database: uniform,
                                zipf-contested, heavy-hitter or mixed-batch
SERVER:           serve answers certain/falsify/batch requests over a
                  line-delimited JSON protocol (spec in docs/SERVER.md),
                  keeping per-database session caches under an optional
                  LRU --memory-budget (e.g. 64m). Excess load beyond
                  --max-queue waiting requests is shed with a coded
                  `overloaded` error + retry_after_ms hint; per-request
                  deadlines cancel mid-solve. client talks to it;
                  `client batch` output is byte-identical to `cqa batch`.
                  client --retries N retries only overloaded/transport
                  errors (seeded jitter via --retry-seed); --repeat N
                  reissues a request over one connection and asserts
                  byte-identical responses.
FLEET:            differentially validates the classify → route → solve
                  pipeline on a seeded random query fleet crossed with
                  skewed database families (see docs/QUERIES.md).
                  --corpus prints the pinned classification table instead
                  (the generator behind tests/data/classifier_corpus.tsv).
"
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q3: &str = "R(x | y) R(y | z)";
    const DB: &str = "R(alice | bob)\nR(alice | carol)\nR(bob | dave)\nR(carol | dave)\n";

    fn db(text: &str) -> Database {
        dbfmt::parse_database(text).unwrap()
    }

    #[test]
    fn classify_q2_reports_conp() {
        let out = cmd_classify("R(x u | x y) R(u y | x z)").unwrap();
        assert!(out.contains("CoNpComplete"), "{out}");
        assert!(out.contains("fork-tripath witness"), "{out}");
    }

    #[test]
    fn classify_rejects_bad_query() {
        assert!(cmd_classify("nonsense").is_err());
    }

    #[test]
    fn certain_answers_on_fact_file() {
        let out = cmd_certain(Q3, &db(DB), None, None, false).unwrap();
        assert!(out.stdout.contains("certain:     true"), "{}", out.stdout);
        assert!(out.stdout.contains("4 facts"), "{}", out.stdout);
        assert!(out.stderr.is_empty(), "no stats requested: {}", out.stderr);
    }

    #[test]
    fn certain_same_answer_across_thread_counts() {
        let seq = cmd_certain(Q3, &db(DB), Some(1), None, false).unwrap();
        let par = cmd_certain(Q3, &db(DB), Some(4), None, false).unwrap();
        assert_eq!(
            seq.stdout, par.stdout,
            "verdict must not depend on the thread count"
        );
    }

    #[test]
    fn certain_routes_agree_and_report_provenance() {
        let d = db(DB);
        let literal = cmd_certain(Q3, &d, None, Some(RoutePolicy::Literal), false).unwrap();
        let component = cmd_certain(Q3, &d, None, Some(RoutePolicy::Component), false).unwrap();
        assert!(
            literal.stdout.contains("answered by: CertK"),
            "{}",
            literal.stdout
        );
        assert!(
            component.stdout.contains("answered by: ComponentCertK"),
            "{}",
            component.stdout
        );
        let verdict = |o: &CmdOut| {
            o.stdout
                .lines()
                .find(|l| l.starts_with("certain:"))
                .map(String::from)
        };
        assert_eq!(verdict(&literal), verdict(&component));
    }

    #[test]
    fn certain_stats_summary_goes_to_stderr() {
        let out = cmd_certain(Q3, &db(DB), None, None, true).unwrap();
        assert!(out.stdout.contains("certain:     true"), "{}", out.stdout);
        assert!(out.stderr.contains("stats: route="), "{}", out.stderr);
        assert!(
            out.stderr.contains("stats: fixpoint rounds="),
            "{}",
            out.stderr
        );
        assert!(out.stderr.contains("peak-live-members="), "{}", out.stderr);
        assert!(out.stderr.contains("blocks-derived="), "{}", out.stderr);
        // The forced component route also reports its component count.
        let routed = cmd_certain(Q3, &db(DB), None, Some(RoutePolicy::Component), true).unwrap();
        assert!(
            routed.stderr.contains("stats: components="),
            "{}",
            routed.stderr
        );
        // A one-atom query is a block scan: no fixpoint counters.
        let scan = cmd_certain("R(x | y) R(x | z)", &db(DB), None, None, true).unwrap();
        assert!(
            scan.stderr.contains("stats: route=block scan"),
            "{}",
            scan.stderr
        );
        assert!(!scan.stderr.contains("fixpoint"), "{}", scan.stderr);
    }

    /// The `certain:` verdict value of a single-shot report.
    fn verdict_of(out: &CmdOut) -> String {
        out.stdout
            .lines()
            .find(|l| l.starts_with("certain:"))
            .map(|l| l.trim_start_matches("certain:").trim().to_string())
            .expect("report carries a certain: line")
    }

    #[test]
    fn batch_matches_sequential_single_shot_invocations() {
        let d = db(DB);
        // Mixed queries over the [2, 1] signature, with repeats, comments
        // and blank lines.
        let queries = "\
# employee-directory query mix
R(x | y) R(y | z)
R(x | y) R(z | y)   # trailing comment

R(x | y) R(y | x)
R(x|y) R(y|z)       # repeat of line 2, denser spelling
R(x | y) R(x | z)
";
        let batch = cmd_batch(&d, queries, None, None, true).unwrap();
        let batch_verdicts: Vec<&str> = batch.stdout.lines().collect();
        let single: Vec<String> = [
            "R(x | y) R(y | z)",
            "R(x | y) R(z | y)",
            "R(x | y) R(y | x)",
            "R(x|y) R(y|z)",
            "R(x | y) R(x | z)",
        ]
        .iter()
        .map(|q| verdict_of(&cmd_certain(q, &d, None, None, false).unwrap()))
        .collect();
        assert_eq!(batch_verdicts, single, "batch must equal single-shot runs");
        // The repeated query hits the session cache (4 distinct, 5 asked).
        assert!(
            batch.stderr.contains("queries=5 distinct=4 cache-hits=1"),
            "{}",
            batch.stderr
        );
        assert!(batch.stderr.contains("solve-ms="), "{}", batch.stderr);
    }

    #[test]
    fn batch_without_stats_keeps_stderr_empty() {
        let out = cmd_batch(&db(DB), "R(x | y) R(y | z)\n", None, None, false).unwrap();
        assert_eq!(out.stdout, "true\n");
        assert!(out.stderr.is_empty(), "{}", out.stderr);
    }

    #[test]
    fn batch_reports_error_positions() {
        let d = db(DB);
        // Line 3 is malformed; byte offset = len("# header\n") + len("R(x | y) R(y | z)\n").
        let queries = "# header\nR(x | y) R(y | z)\nnonsense query\n";
        let err = cmd_batch(&d, queries, None, None, false).unwrap_err();
        assert!(err.message.contains("queries line 3"), "{err}");
        assert!(err.message.contains("byte offset 27"), "{err}");
        assert!(err.message.contains("nonsense query"), "{err}");
        // Signature mismatches carry positions too.
        let err = cmd_batch(&d, "R(x y | z) R(z y | w)\n", None, None, false).unwrap_err();
        assert!(err.message.contains("queries line 1"), "{err}");
        assert!(err.message.contains("signature"), "{err}");
        // A queries file with nothing in it is an error, not an empty answer.
        let err = cmd_batch(&d, "# only comments\n\n", None, None, false).unwrap_err();
        assert!(err.message.contains("no queries"), "{err}");
    }

    #[test]
    fn certain_rejects_signature_mismatch() {
        let err = cmd_certain(Q3, &db("R(a b | c)\n"), None, None, false).unwrap_err();
        assert!(err.message.contains("signature"), "{err}");
    }

    #[test]
    fn falsify_prints_witness() {
        let d = db("R(alice | bob)\nR(alice | carol)\nR(bob | dave)\n");
        let out = cmd_falsify(Q3, &d, u64::MAX, false).unwrap();
        assert!(out.stdout.contains("not certain"), "{}", out.stdout);
        assert!(out.stdout.contains("R(alice carol)"), "{}", out.stdout);
        let certain_db = db("R(a | b)\nR(b | c)\n");
        let out2 = cmd_falsify(Q3, &certain_db, u64::MAX, false).unwrap();
        assert!(out2.stdout.contains("certain"), "{}", out2.stdout);
        let stats = cmd_falsify(Q3, &certain_db, u64::MAX, true).unwrap();
        assert!(
            stats.stderr.contains("stats: brute-force facts=2"),
            "{}",
            stats.stderr
        );
    }

    #[test]
    fn generate_writes_a_streamable_workload() {
        let dir = std::env::temp_dir().join(format!("cqa-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.facts");
        let path_str = path.to_str().unwrap();
        let out = cmd_generate(&[
            "--threads",
            "2",
            "--facts",
            "500",
            "--inconsistency",
            "0.5",
            "--seed",
            "11",
            path_str,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        // The generated file stream-loads and solves; verdicts agree
        // across thread counts.
        let loaded = load_db_file(path_str).unwrap();
        assert!(loaded.len() >= 400, "{} facts", loaded.len());
        let seq = cmd_certain(Q3, &loaded, Some(1), None, false).unwrap();
        let par = cmd_certain(Q3, &loaded, Some(4), None, false).unwrap();
        assert_eq!(seq.stdout, par.stdout);
        // Same config, same bytes: regenerating is reproducible.
        let path2 = dir.join("w2.facts");
        cmd_generate(&[
            "--threads",
            "1",
            "--facts",
            "500",
            "--inconsistency",
            "0.5",
            "--seed",
            "11",
            path2.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_rejects_bad_options() {
        assert!(cmd_generate(&[]).is_err()); // no output file
        assert!(cmd_generate(&["--facts"]).is_err()); // missing value
        assert!(cmd_generate(&["--facts", "x", "f"]).is_err());
        assert!(cmd_generate(&["--inconsistency", "2.0", "f"]).is_err());
        assert!(cmd_generate(&["--min-width", "1", "f"]).is_err());
        assert!(cmd_generate(&["--bogus", "f"]).is_err());
        assert!(cmd_generate(&["a", "b"]).is_err()); // two outputs
        assert!(cmd_generate(&["--contested-width", "0", "f"]).is_err());
        // The contested family has no seed/shape knobs from the chain family.
        assert!(cmd_generate(&["--contested-width", "4", "--seed", "1", "f"]).is_err());
        assert!(cmd_generate(&["--contested-width", "4", "--chain-len", "2", "f"]).is_err());
        // …and --certain-fraction belongs to the contested family only.
        assert!(cmd_generate(&["--certain-fraction", "0.5", "f"]).is_err());
        let bad = ["--contested-width", "4", "--certain-fraction", "1.5", "f"];
        assert!(cmd_generate(&bad).is_err());
        // The skewed families reject the other families' knobs (but take
        // --seed), and unknown family names are named in the error.
        assert!(cmd_generate(&["--skew", "sideways", "f"]).is_err());
        assert!(cmd_generate(&["--skew", "uniform", "--chain-len", "2", "f"]).is_err());
        let bad = ["--skew", "uniform", "--contested-width", "4", "f"];
        assert!(cmd_generate(&bad).is_err());
    }

    #[test]
    fn generate_skew_writes_a_deterministic_loadable_database() {
        let dir = std::env::temp_dir().join(format!("cqa-gen-skew-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.facts");
        let b = dir.join("b.facts");
        for path in [&a, &b] {
            let out = cmd_generate(&[
                "--facts",
                "200",
                "--skew",
                "mixed-batch",
                "--seed",
                "9",
                path.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("skew family mixed-batch"), "{out}");
        }
        // Same seed, same family → byte-identical files; and the output
        // round-trips through the loader with a sensible verdict.
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap()
        );
        let loaded = load_db_file(a.to_str().unwrap()).unwrap();
        assert!(loaded.len() >= 150, "{} facts", loaded.len());
        cmd_certain(Q3, &loaded, Some(1), None, false).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_contested_writes_a_certain_workload() {
        let dir = std::env::temp_dir().join(format!("cqa-gen-con-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.facts");
        let path_str = path.to_str().unwrap();
        let out = cmd_generate(&[
            "--threads",
            "2",
            "--facts",
            "600",
            "--contested-width",
            "16",
            path_str,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("width 16"), "{out}");
        let loaded = load_db_file(path_str).unwrap();
        assert!(loaded.len() >= 500, "{} facts", loaded.len());
        // Every cluster is certain, on both routes.
        let literal = cmd_certain(Q3, &loaded, Some(1), Some(RoutePolicy::Literal), false).unwrap();
        let routed =
            cmd_certain(Q3, &loaded, Some(2), Some(RoutePolicy::Component), false).unwrap();
        assert!(
            literal.stdout.contains("certain:     true"),
            "{}",
            literal.stdout
        );
        assert!(
            routed.stdout.contains("certain:     true"),
            "{}",
            routed.stdout
        );
        // A half-certain file is still certain overall (some cluster is),
        // and the literal and component routes agree on it.
        let half = dir.join("half.facts");
        let half_str = half.to_str().unwrap();
        let out = cmd_generate(&[
            "--threads",
            "2",
            "--facts",
            "600",
            "--contested-width",
            "8",
            "--certain-fraction",
            "0.5",
            half_str,
        ])
        .unwrap();
        assert!(out.contains("certain fraction 0.5"), "{out}");
        let loaded = load_db_file(half_str).unwrap();
        let verdict = |route| {
            let out = cmd_certain(Q3, &loaded, Some(2), Some(route), false).unwrap();
            let line = out.stdout.lines().find(|l| l.starts_with("certain:"));
            line.expect("a certain: line").to_string()
        };
        let literal = verdict(RoutePolicy::Literal);
        assert_eq!(literal, verdict(RoutePolicy::Component));
        assert_eq!(literal, "certain:     true");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_flag_parses_and_strips() {
        let args = ["q", "f", "--route", "literal"];
        let mut flags = Flags::new("certain", &args);
        assert_eq!(route_flag(&mut flags).unwrap(), Some(RoutePolicy::Literal));
        assert_eq!(flags.positionals().unwrap(), vec!["q", "f"]);
        let mut flags = Flags::new("certain", &["--route=component", "q", "f"]);
        assert_eq!(
            route_flag(&mut flags).unwrap(),
            Some(RoutePolicy::Component)
        );
        assert_eq!(flags.positionals().unwrap(), vec!["q", "f"]);
        let mut flags = Flags::new("certain", &["--route", "auto"]);
        assert_eq!(route_flag(&mut flags).unwrap(), Some(RoutePolicy::Auto));
        let mut flags = Flags::new("certain", &["q"]);
        assert_eq!(route_flag(&mut flags).unwrap(), None);
        let e = route_flag(&mut Flags::new("certain", &["--route"])).unwrap_err();
        assert!(e.message.contains("needs a value"), "{e}");
        let e = route_flag(&mut Flags::new("certain", &["--route", "fastest"])).unwrap_err();
        assert!(e.message.contains("bad route"), "{e}");
        let mut flags = Flags::new("certain", &["--stats", "q"]);
        assert!(flags.switch("--stats"));
        assert_eq!(flags.positionals().unwrap(), vec!["q"]);
        let mut flags = Flags::new("classify", &["q"]);
        assert!(!flags.switch("--stats"));
        assert_eq!(flags.positionals().unwrap(), vec!["q"]);
    }

    #[test]
    fn load_db_file_reports_positions() {
        let dir = std::env::temp_dir().join(format!("cqa-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.facts");
        std::fs::write(&path, "R(a | b)\nR(a b | c)\n").unwrap();
        let err = load_db_file(path.to_str().unwrap()).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.message.contains("line 2"), "{err}");
        assert!(err.message.contains("byte offset 9"), "{err}");
        assert!(err.message.contains("R(a b | c)"), "{err}");
    }

    #[test]
    fn threads_flag_parses_and_strips() {
        let mut flags = Flags::new("certain", &["q", "f", "--threads", "3"]);
        assert_eq!(threads_flag(&mut flags).unwrap(), Some(3));
        assert_eq!(flags.positionals().unwrap(), vec!["q", "f"]);
        let mut flags = Flags::new("batch", &["--threads=8", "q", "f"]);
        assert_eq!(threads_flag(&mut flags).unwrap(), Some(8));
        assert_eq!(flags.positionals().unwrap(), vec!["q", "f"]);
        let mut flags = Flags::new("classify", &["q"]);
        assert_eq!(threads_flag(&mut flags).unwrap(), None);
        assert_eq!(flags.positionals().unwrap(), vec!["q"]);
        let threads = |args: &[&str]| threads_flag(&mut Flags::new("certain", args));
        assert!(threads(&["--threads"])
            .unwrap_err()
            .message
            .contains("needs a value"));
        assert!(threads(&["--threads", "0"])
            .unwrap_err()
            .message
            .contains("bad thread count"));
        assert!(threads(&["--threads=0"])
            .unwrap_err()
            .message
            .contains("bad thread count"));
        assert!(threads(&["--threads", "lots"])
            .unwrap_err()
            .message
            .contains("bad value"));
        // A command that never reads --threads rejects it.
        let e = Flags::new("classify", &["q", "--threads", "4"])
            .positionals()
            .unwrap_err();
        assert!(
            e.message.contains("unknown classify option \"--threads\""),
            "{e}"
        );
    }

    #[test]
    fn solve_dimacs() {
        assert!(cmd_solve("p cnf 1 2\n1 0\n-1 0\n")
            .unwrap()
            .contains("UNSAT"));
        assert!(cmd_solve("p cnf 2 1\n1 -2 0\n")
            .unwrap()
            .starts_with("SATISFIABLE"));
        assert!(cmd_solve("p cnf x").is_err());
    }

    #[test]
    fn gadget_emits_parseable_database() {
        let out = cmd_gadget("R(x u | x y) R(u y | x z)", "p cnf 2 2\n1 2 0\n-1 -2 0\n").unwrap();
        let body: String = out
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        let db = crate::dbfmt::parse_database(&body).unwrap();
        assert!(db.len() > 10);
        for b in db.block_ids() {
            assert!(db.block(b).len() >= 2, "gadget blocks are contested");
        }
    }

    #[test]
    fn gadget_rejects_queries_without_fork_tripath() {
        let err = cmd_gadget("R(x | y z) R(z | x y)", "p cnf 2 2\n1 2 0\n-1 -2 0\n").unwrap_err();
        assert!(err.message.contains("fork"), "{err}");
    }

    #[test]
    fn update_incremental_matches_recompute() {
        // A mixed insert/retract script over the 4-fact diamond; two
        // queries so both cache entries get patched.
        let deltas = "# grow then shrink\n+ R(dave | emma)\n- R(alice | carol)\n";
        let queries = "R(x | y) R(y | z)\n# comment\nR(x | y) R(z | y)\n";
        let inc = cmd_update(db(DB), deltas, queries, None, false, true).unwrap();
        let rec = cmd_update(db(DB), deltas, queries, None, true, false).unwrap();
        assert_eq!(
            inc.stdout, rec.stdout,
            "incremental and from-scratch verdicts must be byte-identical"
        );
        assert_eq!(inc.stdout.lines().count(), 2, "{}", inc.stdout);
        assert!(inc.stderr.contains("mode=incremental"), "{}", inc.stderr);
        assert!(inc.stderr.contains("delta-applied=1"), "{}", inc.stderr);
    }

    #[test]
    fn update_rejects_bad_inputs_with_positions() {
        let e = cmd_update(db(DB), "# nothing\n", Q3, None, false, false).unwrap_err();
        assert!(e.message.contains("no operations"), "{e}");
        let e = cmd_update(db(DB), "+ nope\n", Q3, None, false, false).unwrap_err();
        assert!(e.message.contains("delta line 1"), "{e}");
        let e = cmd_update(db(DB), "+ R(a b |)\n", Q3, None, false, false).unwrap_err();
        assert!(e.message.contains("key length 2"), "{e}");
        let e = cmd_update(db(DB), "+ R(a | b)\n", "# none\n", None, false, false).unwrap_err();
        assert!(e.message.contains("no queries"), "{e}");
        let e = cmd_update(db(DB), "+ R(a | b)\n", "nonsense\n", None, false, false).unwrap_err();
        assert!(e.message.contains("queries line 1"), "{e}");
    }
}
