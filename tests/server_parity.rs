//! Differential suite: `cqa serve` answers are **byte-identical** to the
//! single-shot CLI, under concurrency, at 1 worker thread and at the
//! default pool width, and across forced mid-run LRU evictions.
//!
//! The reference side is the in-process CLI (`cmd_batch`, `cmd_certain`,
//! `cmd_falsify`); the candidate side talks to a real TCP server through
//! `cmd_client`, several clients at once. Any drift — verdicts, falsify
//! witness rendering, even batch error text — fails the diff.

use cqa_cli::server_cli::cmd_client;
use cqa_cli::{cmd_batch, cmd_certain, cmd_falsify, dbfmt, load_db_file};
use cqa_query::examples;
use cqa_server::{serve, Loader, ManagerStats, ServeConfig, ServerHandle};
use cqa_workloads::skew::SkewFamily;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounded falsify budget so brute force stays fast on every family;
/// both sides use the same number, so outcomes (including
/// budget-exhausted) stay comparable.
const FALSIFY_BUDGET: u64 = 200_000;

const QUERIES_TEXT: &str = "# mixed parity batch\n\
R(x | y) R(y | z)\n\
R(x | y) R(x | z)\n\
\n\
R(y | x) R(x | x)\n\
R(x | y) R(y | z)\n\
R(y | x) R(x | y)\n";

const CERTAIN_QUERIES: [&str; 3] = [
    "R(x | y) R(y | z)",
    "R(x | y) R(x | z)",
    "R(y | x) R(x | x)",
];

/// A scratch directory holding the three skewed parity databases.
struct Fixture {
    dir: PathBuf,
    dbs: Vec<String>,
    queries_file: String,
}

impl Fixture {
    fn new() -> Fixture {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cqa-server-parity-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let q3 = examples::q3();
        // Three families, three sizes: enough variety to exercise the
        // session manager, small enough for debug-build brute force.
        let shapes = [
            (SkewFamily::Uniform, 60usize, 11u64),
            (SkewFamily::MixedBatch, 120, 12),
            (SkewFamily::HeavyHitter, 48, 13),
        ];
        let mut dbs = Vec::new();
        for (family, facts, seed) in shapes {
            let db = cqa_workloads::skew::skewed_db(seed, &q3, &family.config(facts));
            let path = dir.join(format!("{}.facts", family.name()));
            std::fs::write(&path, dbfmt::write_database(&db)).unwrap();
            dbs.push(path.display().to_string());
        }
        let queries_file = dir.join("queries.txt").display().to_string();
        std::fs::write(&queries_file, QUERIES_TEXT).unwrap();
        Fixture {
            dir,
            dbs,
            queries_file,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn cli_loader() -> Loader {
    Arc::new(|path: &str| load_db_file(path).map_err(|e| e.message))
}

fn start_server(pool_threads: usize, memory_budget: Option<usize>) -> ServerHandle {
    let mut config = ServeConfig::new(cli_loader());
    config.addr = "127.0.0.1:0".to_string();
    config.threads = pool_threads;
    config.memory_budget = memory_budget;
    // One solver thread per request, like `cqa serve`: concurrency comes
    // from the pool, and verdicts are thread-count independent anyway.
    config.engine = cqa::EngineConfig::default().with_threads(1);
    serve(config).expect("bind parity server")
}

/// The single-shot CLI's answers for one database: the exact bytes the
/// server-side clients must reproduce.
struct Expected {
    batch_stdout: String,
    certain_lines: Vec<String>,
    falsify_stdout: String,
}

fn expected_for(db_path: &str) -> Expected {
    let db = load_db_file(db_path).unwrap();
    let batch_stdout = cmd_batch(&db, QUERIES_TEXT, Some(1), None, false)
        .unwrap()
        .stdout;
    let certain_lines = CERTAIN_QUERIES
        .iter()
        .map(|q| {
            let out = cmd_certain(q, &db, Some(1), None, false).unwrap().stdout;
            out.lines()
                .find(|l| l.starts_with("certain:"))
                .expect("cmd_certain prints a certain: line")
                .to_string()
        })
        .collect();
    let falsify_stdout = cmd_falsify(CERTAIN_QUERIES[0], &db, FALSIFY_BUDGET, false)
        .unwrap()
        .stdout;
    Expected {
        batch_stdout,
        certain_lines,
        falsify_stdout,
    }
}

/// One client's work item: run every request kind against one database
/// through a fresh `cqa client` connection and diff against the CLI.
fn run_client_schedule(addr: &str, db_path: &str, expected: &Expected, queries_file: &str) {
    let batch = cmd_client(&[addr, "batch", db_path, queries_file]).unwrap();
    assert_eq!(
        batch.stdout, expected.batch_stdout,
        "batch verdicts drifted for {db_path}"
    );
    for (q, want) in CERTAIN_QUERIES.iter().zip(&expected.certain_lines) {
        let got = cmd_client(&[addr, "certain", db_path, q]).unwrap();
        assert_eq!(
            got.stdout.trim_end(),
            want.as_str(),
            "certain drifted: {q} on {db_path}"
        );
    }
    let falsify = cmd_client(&[
        addr,
        "falsify",
        db_path,
        CERTAIN_QUERIES[0],
        &FALSIFY_BUDGET.to_string(),
    ])
    .unwrap();
    assert_eq!(
        falsify.stdout, expected.falsify_stdout,
        "falsify rendering drifted for {db_path}"
    );
}

/// The full differential: N concurrent clients × all databases × mixed
/// request kinds, each client rotating databases in a different order
/// (when a memory budget is set, this churns the LRU mid-run).
fn parity_run(pool_threads: usize, memory_budget: Option<usize>) -> ManagerStats {
    let fixture = Fixture::new();
    let expected: Vec<Expected> = fixture.dbs.iter().map(|p| expected_for(p)).collect();
    let server = start_server(pool_threads, memory_budget);
    let addr = server.addr().to_string();
    let expected = Arc::new(expected);
    let dbs = Arc::new(fixture.dbs.clone());
    let queries_file = fixture.queries_file.clone();
    let clients: Vec<_> = (0..6)
        .map(|c| {
            let addr = addr.clone();
            let expected = Arc::clone(&expected);
            let dbs = Arc::clone(&dbs);
            let queries_file = queries_file.clone();
            std::thread::spawn(move || {
                for round in 0..2 {
                    for step in 0..dbs.len() {
                        // Distinct rotations per client: client 0 walks
                        // 0,1,2, client 1 walks 1,2,0, ... so the LRU
                        // ordering keeps changing under concurrency.
                        let i = (c + step + round) % dbs.len();
                        run_client_schedule(&addr, &dbs[i], &expected[i], &queries_file);
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("parity client panicked");
    }
    server.manager_stats()
}

#[test]
fn server_matches_cli_with_one_worker_thread() {
    let stats = parity_run(1, None);
    assert_eq!(stats.evictions, 0, "no budget, no evictions");
    assert_eq!(stats.sessions, 3, "all three databases stay resident");
    assert!(stats.cache_hits > 0, "repeat queries must hit the cache");
}

#[test]
fn server_matches_cli_with_default_pool() {
    let stats = parity_run(0, None);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.sessions, 3);
}

#[test]
fn server_matches_cli_across_forced_evictions() {
    // Budget fits the largest database plus a sliver: at most two
    // resident at any time, so the 6 clients × 3 databases rotation
    // forces reload-after-evict over and over — verdicts must not care.
    let fixture = Fixture::new();
    let sizes: Vec<usize> = fixture
        .dbs
        .iter()
        .map(|p| load_db_file(p).unwrap().approx_bytes())
        .collect();
    drop(fixture);
    let budget = sizes.iter().copied().max().unwrap() + sizes.iter().copied().min().unwrap() / 2;
    let stats = parity_run(2, Some(budget));
    assert!(
        stats.evictions >= 1,
        "tight budget must evict mid-run (got {stats:?})"
    );
    assert!(
        stats.loads > 3,
        "evicted databases must have been reloaded (got {stats:?})"
    );
    assert!(stats.resident_bytes <= budget, "{stats:?} over {budget}");
}

/// Overload + retry differential: a one-worker, zero-queue server sheds
/// a storm of clients with `overloaded`, and `--retries` backoff must
/// carry every one of them to the exact CLI verdict — shedding may
/// delay an answer, never change it.
#[test]
fn shed_clients_eventually_succeed_via_retries_with_zero_divergence() {
    let fixture = Fixture::new();
    let expected = expected_for(&fixture.dbs[0]);
    let want = expected.certain_lines[0].clone();
    // "slow@<path>" naps before loading, so one request can pin the
    // single worker while the storm arrives.
    let loader: Loader = Arc::new(|path: &str| {
        let path = if let Some(rest) = path.strip_prefix("slow@") {
            std::thread::sleep(std::time::Duration::from_millis(700));
            rest
        } else {
            path
        };
        load_db_file(path).map_err(|e| e.message)
    });
    let mut config = ServeConfig::new(loader);
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 1;
    config.max_queue = Some(0); // one in flight, zero waiting
    config.engine = cqa::EngineConfig::default().with_threads(1);
    let server = serve(config).expect("bind overload server");
    let addr = server.addr().to_string();
    let db0 = fixture.dbs[0].clone();

    let occupant = {
        let (addr, db0, want) = (addr.clone(), db0.clone(), want.clone());
        std::thread::spawn(move || {
            let got = cmd_client(&[&addr, "certain", &format!("slow@{db0}"), CERTAIN_QUERIES[0]])
                .unwrap();
            assert_eq!(got.stdout.trim_end(), want, "occupant verdict drifted");
        })
    };
    // Give the occupant time to reach the worker before the storm.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let storm: Vec<_> = (0..5)
        .map(|c| {
            let (addr, db0, want) = (addr.clone(), db0.clone(), want.clone());
            std::thread::spawn(move || {
                let got = cmd_client(&[
                    "--retries",
                    "10",
                    "--retry-seed",
                    &c.to_string(),
                    &addr,
                    "certain",
                    &db0,
                    CERTAIN_QUERIES[0],
                ])
                .unwrap_or_else(|e| panic!("storm client {c} never landed: {}", e.message));
                assert_eq!(
                    got.stdout.trim_end(),
                    want,
                    "storm client {c} verdict drifted"
                );
            })
        })
        .collect();
    for client in storm {
        client.join().expect("storm client panicked");
    }
    occupant.join().expect("occupant panicked");
    let stats = server.manager_stats();
    assert!(
        stats.shed >= 1,
        "a zero-queue server under a 5-client storm must shed (got {stats:?})"
    );
    assert_eq!(stats.cancelled, 0, "no deadlines were set: {stats:?}");
}

/// Live updates under concurrency: a deterministic chain of delta
/// scripts is applied over the wire while several clients keep querying,
/// with barriers separating the epochs. Every epoch's answers — from
/// every client — must be byte-identical to a single-threaded replay
/// that applies the same deltas to an in-memory database and runs the
/// plain CLI. This is the serve-side acceptance gate of the incremental
/// path: successor sessions may never drift from recomputation,
/// and an update must never tear (queries see exactly the pre- or
/// post-update database, nothing in between — epochs pin which).
#[test]
fn updates_interleaved_with_queries_match_single_threaded_replay() {
    let fixture = Fixture::new();
    let db_path = fixture.dbs[0].clone();

    // Single-threaded replay: evolve an in-memory copy through three
    // seeded delta scripts, recording the CLI's answers per epoch.
    let mut replay = load_db_file(&db_path).unwrap();
    let key_len = replay.signature().key_len();
    let mut script_files: Vec<String> = Vec::new();
    let mut epoch_expected: Vec<Expected> = vec![expected_for(&db_path)];
    for (i, (seed, insert_ratio, locality)) in [
        (401u64, 0.6, cqa_workloads::DeltaLocality::SameBlock),
        (402, 0.6, cqa_workloads::DeltaLocality::Mixed),
        // Pure growth: new components appear and are re-solved, so
        // blocks_reseeded (blocks of re-solved components) must grow.
        (403, 1.0, cqa_workloads::DeltaLocality::CrossComponent),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = cqa_workloads::DeltaScriptConfig {
            ops: 10,
            insert_ratio,
            locality,
            domain: 5,
        };
        let ops = cqa_workloads::random_delta_ops(seed, &replay, &cfg);
        let text = cqa_workloads::render_delta_script(&ops, key_len);
        let path = fixture.dir.join(format!("delta-{i}.txt"));
        std::fs::write(&path, &text).unwrap();
        script_files.push(path.display().to_string());
        let (inserts, retracts) = cqa_workloads::split_delta_ops(&ops);
        let report = replay.apply_delta(&inserts, &retracts).unwrap();
        assert!(!report.is_noop(), "epoch {i} delta must change the db");
        // The CLI reference answers come from the evolved in-memory
        // database, written out so expected_for can reload it.
        let state_path = fixture.dir.join(format!("state-{i}.facts"));
        std::fs::write(&state_path, dbfmt::write_database(&replay)).unwrap();
        epoch_expected.push(expected_for(&state_path.display().to_string()));
    }

    let server = start_server(0, None);
    let addr = server.addr().to_string();
    let epochs = script_files.len();
    let clients = 4usize;
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let epoch_expected = Arc::new(epoch_expected);
    let script_files = Arc::new(script_files);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let db_path = db_path.clone();
            let queries_file = fixture.queries_file.clone();
            let barrier = Arc::clone(&barrier);
            let epoch_expected = Arc::clone(&epoch_expected);
            let script_files = Arc::clone(&script_files);
            std::thread::spawn(move || {
                for epoch in 0..=epochs {
                    // Everyone queries the settled epoch concurrently.
                    barrier.wait();
                    run_client_schedule(&addr, &db_path, &epoch_expected[epoch], &queries_file);
                    barrier.wait();
                    // One client advances the epoch over the wire; the
                    // barrier pair means no query is in flight across
                    // the swap, so each epoch's parity is exact.
                    if epoch < epochs && c == epoch % clients {
                        let out =
                            cmd_client(&[&addr, "update", &db_path, &script_files[epoch]]).unwrap();
                        assert!(
                            out.stdout.starts_with(&format!("updated {db_path}:")),
                            "unexpected update output: {}",
                            out.stdout
                        );
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("update parity client panicked");
    }
    let stats = server.manager_stats();
    assert_eq!(stats.delta_applied, epochs as u64, "{stats:?}");
    assert_eq!(
        stats.loads, 1,
        "updates must patch, never reload: {stats:?}"
    );
    assert!(stats.blocks_reseeded > 0, "{stats:?}");
}

/// Concurrent identical updates are set-semantic: when every client
/// races to apply the *same* delta script (the wire-retry shape), all of
/// them succeed, the delta lands exactly once per application with no
/// double effects, and the final answers equal the single replay.
#[test]
fn racing_identical_updates_stay_idempotent() {
    let fixture = Fixture::new();
    let db_path = fixture.dbs[2].clone();
    let mut replay = load_db_file(&db_path).unwrap();
    let key_len = replay.signature().key_len();
    let cfg = cqa_workloads::DeltaScriptConfig {
        ops: 8,
        insert_ratio: 0.5,
        locality: cqa_workloads::DeltaLocality::Mixed,
        domain: 4,
    };
    let ops = cqa_workloads::random_delta_ops(77, &replay, &cfg);
    let script_file = fixture.dir.join("race-delta.txt");
    std::fs::write(
        &script_file,
        cqa_workloads::render_delta_script(&ops, key_len),
    )
    .unwrap();
    let (inserts, retracts) = cqa_workloads::split_delta_ops(&ops);
    replay.apply_delta(&inserts, &retracts).unwrap();
    let state_path = fixture.dir.join("race-state.facts");
    std::fs::write(&state_path, dbfmt::write_database(&replay)).unwrap();
    let expected = expected_for(&state_path.display().to_string());
    let final_facts = replay.len();

    let server = start_server(0, None);
    let addr = server.addr().to_string();
    let script = script_file.display().to_string();
    let handles: Vec<_> = (0..5)
        .map(|_| {
            let (addr, db_path, script) = (addr.clone(), db_path.clone(), script.clone());
            std::thread::spawn(move || {
                let out = cmd_client(&[&addr, "update", &db_path, &script]).unwrap();
                // Whoever lands after the first application sees a pure
                // no-op — never an error, never a double effect.
                assert!(
                    out.stdout.contains(&format!("facts={final_facts}")),
                    "post-update fact count drifted: {}",
                    out.stdout
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("racing update client panicked");
    }
    run_client_schedule(&addr, &db_path, &expected, &fixture.queries_file);
    let stats = server.manager_stats();
    assert_eq!(
        stats.delta_applied, 5,
        "every race entrant applied: {stats:?}"
    );
    assert_eq!(stats.loads, 1, "{stats:?}");
}

#[test]
fn batch_error_text_matches_the_cli_byte_for_byte() {
    // The positioned error for a malformed batch line must be the same
    // string whether it came from `cqa batch` or over the wire.
    let fixture = Fixture::new();
    let bad = "R(x | y) R(y | z)\nR(x x | y) R(y | z)\n";
    let db = load_db_file(&fixture.dbs[0]).unwrap();
    let cli_err = cmd_batch(&db, bad, Some(1), None, false).unwrap_err();
    let server = start_server(1, None);
    let addr = server.addr().to_string();
    let bad_file = fixture.dir.join("bad.txt");
    std::fs::write(&bad_file, bad).unwrap();
    let client_err = cmd_client(&[
        &addr,
        "batch",
        &fixture.dbs[0],
        &bad_file.display().to_string(),
    ])
    .unwrap_err();
    // `cqa client` wraps the wire error as
    // "<file>: server error (bad-batch): <message>"; the message half
    // must equal the CLI text exactly.
    let marker = "server error (bad-batch): ";
    let at = client_err
        .message
        .find(marker)
        .unwrap_or_else(|| panic!("unexpected client error shape: {}", client_err.message));
    assert_eq!(
        &client_err.message[at + marker.len()..],
        cli_err.message,
        "batch error text drifted between the CLI and the wire"
    );
}

/// A query over another schema is refused with the same text by the
/// CLI and over the wire, for every request that takes a query: both
/// front ends check it through `cqa_query::parse_query_for`.
#[test]
fn signature_mismatch_text_matches_the_cli_for_certain_falsify_and_batch() {
    let fixture = Fixture::new();
    let db_path = &fixture.dbs[0];
    let db = load_db_file(db_path).unwrap();
    let wrong = "R(x y | z) R(z y | w)";
    let server = start_server(1, None);
    let addr = server.addr().to_string();
    let wire_message = |args: &[&str], code: &str| {
        let err = cmd_client(args).unwrap_err().message;
        let marker = format!("server error ({code}): ");
        let at = err
            .find(&marker)
            .unwrap_or_else(|| panic!("unexpected client error shape: {err}"));
        err[at + marker.len()..].to_string()
    };

    let cli = cmd_certain(wrong, &db, Some(1), None, false).unwrap_err();
    assert_eq!(
        cli.message,
        format!(
            "query signature [3, 2] does not match database signature {}",
            db.signature()
        )
    );
    let wire = wire_message(&[&addr, "certain", db_path, wrong], "signature-mismatch");
    assert_eq!(wire, cli.message, "certain");

    let cli = cmd_falsify(wrong, &db, FALSIFY_BUDGET, false).unwrap_err();
    let wire = wire_message(&[&addr, "falsify", db_path, wrong], "signature-mismatch");
    assert_eq!(wire, cli.message, "falsify");

    let text = format!("R(x | y) R(y | z)\n{wrong}\n");
    let cli = cmd_batch(&db, &text, Some(1), None, false).unwrap_err();
    assert!(
        cli.message.contains("does not match database signature"),
        "{cli}"
    );
    let batch_file = fixture.dir.join("wrong-schema.txt");
    std::fs::write(&batch_file, &text).unwrap();
    let batch_path = batch_file.display().to_string();
    let wire = wire_message(&[&addr, "batch", db_path, &batch_path], "bad-batch");
    assert_eq!(wire, cli.message, "batch");
}

/// The brute-force cancel path of `falsify`: a deadline that expires
/// mid-search withholds the outcome with the search's evidence, counts
/// as one cancellation, and leaves nothing behind — a patient retry
/// renders exactly what the single-shot CLI prints.
#[test]
fn falsify_deadline_cancels_the_brute_force_search_mid_tranche() {
    use cqa::sat::{to_occ3_normal_form, Cnf, Lit, PVar};
    use cqa_server::Client;
    use std::time::{Duration, Instant};

    // D[φ] for φ = all eight sign patterns over three variables: φ is
    // unsatisfiable, so the q2 image is certain (Lemma 9.2) and the
    // search has no falsifying repair to stop at. The budget bounds the
    // uncancelled run; both sides use the same one.
    const Q2: &str = "R(x u | x y) R(u y | x z)";
    const BUDGET: u64 = 30_000;
    let vars = [PVar(0), PVar(1), PVar(2)];
    let phi = Cnf::from_clauses((0..8u32).map(|signs| {
        vars.iter()
            .enumerate()
            .map(|(i, &v)| {
                if signs & (1 << i) == 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect::<Vec<_>>()
    }));
    let q2 = cqa_query::parse_query(Q2).unwrap();
    let reduction =
        cqa::reductions::SatReduction::new(&q2, &cqa::tripath::SearchConfig::default()).unwrap();
    let db = reduction.database(&to_occ3_normal_form(&phi)).unwrap();

    // Reference: the uncancelled search, timed. It must dwarf the
    // deadline below for the cancellation to land mid-search.
    let t0 = Instant::now();
    let want = cmd_falsify(Q2, &db, BUDGET, false).unwrap().stdout;
    let uncancelled = t0.elapsed();
    assert!(
        uncancelled >= Duration::from_millis(100),
        "workload too small to prove anything: uncancelled search took {uncancelled:?}"
    );
    let deadline_ms = (uncancelled.as_millis() / 10) as u64;

    let served = Arc::new(db);
    let loader: Loader = Arc::new(move |path: &str| match path {
        "gadget" => Ok((*served).clone()),
        _ => Err(format!("no such database: {path}")),
    });
    let mut config = ServeConfig::new(loader);
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 1;
    config.engine = cqa::EngineConfig::default().with_threads(1);
    let server = serve(config).expect("bind falsify server");
    let addr = server.addr().to_string();

    // Load first, so the deadline is spent in the search, not the load.
    let mut client = Client::connect(addr.as_str()).unwrap();
    client.load("gadget").unwrap();
    client.deadline_ms = Some(deadline_ms);
    let e = client
        .falsify("gadget", Q2, BUDGET)
        .expect_err("a deadline of a tenth of the search must cancel it");
    assert_eq!(e.code, "deadline-exceeded", "{e:?}");
    assert!(
        e.message.contains("brute-force search stopped mid-tranche"),
        "cancel-path message with the search's evidence, got: {}",
        e.message
    );
    assert_eq!(server.manager_stats().cancelled, 1);

    // The patient retry runs the whole search and renders it exactly as
    // the CLI does.
    let got = cmd_client(&[&addr, "falsify", "gadget", Q2, &BUDGET.to_string()]).unwrap();
    assert_eq!(got.stdout, want, "falsify rendering drifted after a cancel");
    assert_eq!(server.manager_stats().cancelled, 1);
}
