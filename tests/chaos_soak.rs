//! Chaos soak: clients hammer a real `cqa serve` instance **through**
//! the seeded fault-injection proxy ([`cqa_server::chaos`]) while it
//! delays, splits, drops and resets their traffic, and the suite pins
//! the three overload-hardening guarantees:
//!
//! 1. the server never wedges — every round completes inside the
//!    harness budget and the server still answers directly afterwards;
//! 2. every completed verdict is byte-identical to the single-shot CLI
//!    (faults may kill delivery, never flip an answer);
//! 3. every failure a client observes is a stable coded error or a
//!    clean reconnect — nothing escapes the error-code table.
//!
//! Runs a quick seeded pass by default; CI's chaos smoke stretches the
//! same test with `CQA_CHAOS_ROUNDS`.

use cqa_cli::{cmd_batch, dbfmt, load_db_file};
use cqa_query::examples;
use cqa_server::protocol::KNOWN_CODES;
use cqa_server::{chaos_proxy, serve, ChaosPlan, Client, Loader, RetryPolicy, ServeConfig};
use cqa_workloads::skew::SkewFamily;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const QUERIES_TEXT: &str = "R(x | y) R(y | z)\n\
R(x | y) R(x | z)\n\
R(y | x) R(x | x)\n\
R(y | x) R(x | y)\n";

/// One scratch database (skewed, partly contested) plus the CLI's
/// reference verdicts for it.
struct Fixture {
    dir: PathBuf,
    db_path: String,
    expected: Vec<bool>,
}

impl Fixture {
    fn new() -> Fixture {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cqa-chaos-soak-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let q3 = examples::q3();
        let db = cqa_workloads::skew::skewed_db(21, &q3, &SkewFamily::MixedBatch.config(90));
        let db_path = dir.join("soak.facts").display().to_string();
        std::fs::write(&db_path, dbfmt::write_database(&db)).unwrap();
        let reference = cmd_batch(&db, QUERIES_TEXT, Some(1), None, false)
            .unwrap()
            .stdout;
        let expected = reference
            .lines()
            .map(|l| match l {
                "true" => true,
                "false" => false,
                other => panic!("unexpected batch line {other:?}"),
            })
            .collect();
        Fixture {
            dir,
            db_path,
            expected,
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

/// Torn-update soak: clients race the *same* idempotent delta script
/// through the chaos proxy (which drops, splits and resets mid-frame)
/// while others keep querying. The invariant: **no half-applied
/// session.** Every completed batch answers exactly like the pre-delta
/// database or exactly like the post-delta database — never a mixture —
/// and once any update has succeeded, the session is post-delta for
/// good. A connection killed mid-update may lose the *reply*, never
/// tear the *application*: the swap is atomic under the manager lock.
#[test]
fn torn_updates_never_yield_a_half_applied_session() {
    let rounds: usize = std::env::var("CQA_CHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let fixture = Fixture::new();

    // One mixed delta (an insert *and* a retract: the shape where a torn
    // half-application would answer differently than the whole delta).
    // The inserted fresh self-loop fact forms a singleton block, so
    // `R(y | x) R(x | x)` becomes certain in every repair — a guaranteed
    // verdict flip, making tearing *visible* to the invariant below.
    let pre_expected = fixture.expected.clone();
    let mut replay = load_db_file(&fixture.db_path).unwrap();
    let first_resident = replay.facts().next().map(|(_, f)| f.to_fact()).unwrap();
    let ops = vec![
        cqa_workloads::DeltaOp::Retract(first_resident),
        cqa_workloads::DeltaOp::Insert(cqa_model::Fact::from_names(["selfloop", "selfloop"])),
    ];
    let deltas_text = cqa_workloads::render_delta_script(&ops, replay.signature().key_len());
    let (inserts, retracts) = cqa_workloads::split_delta_ops(&ops);
    let report = replay.apply_delta(&inserts, &retracts).unwrap();
    assert!(!report.is_noop() && !report.growth_only());
    let post_expected: Vec<bool> = cmd_batch(&replay, QUERIES_TEXT, Some(1), None, false)
        .unwrap()
        .stdout
        .lines()
        .map(|l| l == "true")
        .collect();
    assert_ne!(
        pre_expected, post_expected,
        "the soak delta must flip at least one verdict, or tearing is invisible"
    );

    let mut config = ServeConfig::new(cli_loader());
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.engine = cqa::EngineConfig::default().with_threads(1);
    let server = serve(config).expect("bind torn-update server");
    let server_addr = server.addr();
    let proxy = chaos_proxy(server_addr, ChaosPlan::rough(0x7EA2)).expect("bind chaos proxy");
    let proxy_addr = proxy.addr();

    let pre = Arc::new(pre_expected);
    let post = Arc::new(post_expected);
    let db_path = Arc::new(fixture.db_path.clone());
    let deltas_text = Arc::new(deltas_text);
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let (pre, post) = (Arc::clone(&pre), Arc::clone(&post));
            let db_path = Arc::clone(&db_path);
            let deltas_text = Arc::clone(&deltas_text);
            std::thread::spawn(move || {
                let mut client = Client::connect(proxy_addr).expect("dial proxy");
                client.retry = Some(RetryPolicy {
                    retries: 12,
                    seed: 3000 + c as u64,
                    base_ms: 5,
                    cap_ms: 100,
                });
                let mut updated = false;
                let mut checked = 0usize;
                for round in 0..rounds {
                    // Client 0 keeps re-applying the delta (idempotent, so
                    // wire retries and repeats are safe); the others query.
                    if c == 0 && round % 2 == 0 {
                        match client.update(&db_path, &deltas_text) {
                            Ok(_) => updated = true,
                            Err(e) => {
                                assert!(
                                    KNOWN_CODES.contains(&e.code),
                                    "client {c} round {round}: unknown code {:?} ({})",
                                    e.code,
                                    e.message
                                );
                                if e.code == "io" {
                                    client.reconnect().expect("reconnect after loss");
                                }
                            }
                        }
                        continue;
                    }
                    match client.batch(&db_path, QUERIES_TEXT) {
                        Ok(verdicts) => {
                            assert!(
                                verdicts == *pre || verdicts == *post,
                                "client {c} round {round}: half-applied answers {verdicts:?} \
                                 (pre {pre:?}, post {post:?})"
                            );
                            if updated {
                                assert_eq!(
                                    verdicts, *post,
                                    "client {c} round {round}: session reverted after own update"
                                );
                            }
                            checked += 1;
                        }
                        Err(e) => {
                            assert!(
                                KNOWN_CODES.contains(&e.code),
                                "client {c} round {round}: unknown code {:?} ({})",
                                e.code,
                                e.message
                            );
                            if e.code == "io" {
                                client.reconnect().expect("reconnect after loss");
                            }
                        }
                    }
                }
                (updated, checked)
            })
        })
        .collect();
    let mut any_updated = false;
    let mut checked = 0usize;
    for client in clients {
        let (updated, n) = client.join().expect("torn-update client panicked");
        any_updated |= updated;
        checked += n;
    }
    assert!(checked > 0, "the soak must complete some batches");

    // The server survived; a direct connection settles the final state.
    proxy.stop();
    let mut direct = Client::connect(server_addr).expect("server must still accept");
    let final_verdicts = direct
        .batch(&fixture.db_path, QUERIES_TEXT)
        .expect("direct batch after the storm");
    let stats_applied = server.manager_stats().delta_applied;
    if any_updated || stats_applied > 0 {
        // At least one application landed (even if its reply was lost):
        // the session must be fully post-delta.
        assert_eq!(final_verdicts, *post, "final state is not the whole delta");
    } else {
        assert_eq!(final_verdicts, *pre, "no update landed, yet the db moved");
    }
    direct.shutdown().expect("clean shutdown after the storm");
}

#[test]
fn seeded_chaos_soak_never_wedges_and_verdicts_stay_byte_identical() {
    let rounds: usize = std::env::var("CQA_CHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15);
    let fixture = Fixture::new();

    let mut config = ServeConfig::new(cli_loader());
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.engine = cqa::EngineConfig::default().with_threads(1);
    let server = serve(config).expect("bind soak server");
    let server_addr = server.addr();

    let proxy = chaos_proxy(server_addr, ChaosPlan::rough(0xC0A)).expect("bind chaos proxy");
    let proxy_addr = proxy.addr();

    let expected = Arc::new(fixture.expected.clone());
    let db_path = Arc::new(fixture.db_path.clone());
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let expected = Arc::clone(&expected);
            let db_path = Arc::clone(&db_path);
            std::thread::spawn(move || {
                let mut coded_failures = 0usize;
                let mut reconnects = 0usize;
                let mut verdicts_checked = 0usize;
                let mut client = Client::connect(proxy_addr).expect("dial proxy");
                client.retry = Some(RetryPolicy {
                    retries: 12,
                    seed: 1000 + c as u64,
                    base_ms: 5,
                    cap_ms: 100,
                });
                for round in 0..rounds {
                    // Alternate request shapes so both short (certain)
                    // and long (batch) frames cross the mangled wire.
                    let outcome = if round % 2 == 0 {
                        client.batch(&db_path, QUERIES_TEXT).map(|verdicts| {
                            assert_eq!(
                                verdicts, *expected,
                                "client {c} round {round}: batch verdicts diverged"
                            );
                            verdicts.len()
                        })
                    } else {
                        client.certain(&db_path, "R(x | y) R(y | z)").map(|v| {
                            assert_eq!(
                                v, expected[0],
                                "client {c} round {round}: certain verdict diverged"
                            );
                            1
                        })
                    };
                    match outcome {
                        Ok(n) => verdicts_checked += n,
                        Err(e) => {
                            // Guarantee 3: nothing outside the table.
                            assert!(
                                KNOWN_CODES.contains(&e.code),
                                "client {c} round {round}: unknown error code {:?} ({})",
                                e.code,
                                e.message
                            );
                            coded_failures += 1;
                            if e.code == "io" {
                                client.reconnect().expect("reconnect after transport loss");
                                reconnects += 1;
                            }
                        }
                    }
                }
                (coded_failures, reconnects, verdicts_checked)
            })
        })
        .collect();

    let mut verdicts_checked = 0usize;
    for client in clients {
        let (_, _, checked) = client.join().expect("soak client panicked");
        verdicts_checked += checked;
    }
    assert!(
        verdicts_checked > 0,
        "the soak must complete some verdicts, not fail every round"
    );

    // Guarantee 1: the server itself survived the abuse — a *direct*
    // connection (no proxy) still answers, with parity intact.
    let tally = proxy.stop();
    let mut direct = Client::connect(server_addr).expect("server must still accept");
    direct.ping().expect("server must still answer ping");
    let verdicts = direct
        .batch(&fixture.db_path, QUERIES_TEXT)
        .expect("direct batch after the storm");
    assert_eq!(verdicts, fixture.expected, "post-soak verdicts diverged");
    direct.shutdown().expect("clean shutdown after the storm");
    let stats = server.wait();
    assert_eq!(stats.cancelled, 0, "no deadlines were set: {stats:?}");

    // The storm must have actually stormed, in every way the plan
    // allows — otherwise this test proves nothing.
    assert!(tally.connections >= 3, "{tally:?}");
    assert!(tally.delays > 0, "delay die never fired: {tally:?}");
    assert!(tally.splits > 0, "split die never fired: {tally:?}");
    assert!(
        tally.drops + tally.resets > 0,
        "no connection-loss fault fired: {tally:?}"
    );
}
