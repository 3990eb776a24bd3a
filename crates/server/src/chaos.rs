//! A seeded fault-injection TCP proxy for soak-testing `cqa serve`
//! under a misbehaving network.
//!
//! The proxy sits between a client and a real server and mangles the
//! byte stream per forwarded chunk, under a deterministic schedule
//! drawn from a [`ChaosPlan`] seed:
//!
//! * **delay** — hold a chunk for a bounded number of milliseconds;
//! * **split** — forward a chunk in two writes cut at an arbitrary
//!   byte boundary (exercises incremental frame reassembly);
//! * **drop** — forward the chunk, then close the connection (the
//!   peer sees a clean EOF at a frame boundary or mid-frame);
//! * **reset** — discard the chunk and close abortively, losing
//!   in-flight bytes (the closest approximation of a connection reset
//!   available without raw-socket access).
//!
//! None of these can change a verdict: they can only delay, truncate
//! or kill delivery, so every injected failure must surface client-side
//! as a coded error or a clean reconnect. The `chaos_soak` suite pins
//! exactly that, plus byte-parity of completed verdicts against
//! single-shot `cqa batch`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Per-chunk fault probabilities plus the seed that makes the whole
/// schedule reproducible. Probabilities are independent per chunk;
/// `reset` is rolled first, then `drop`, then delay/split (which can
/// combine).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Root seed; each connection direction derives its own stream.
    pub seed: u64,
    /// Probability a chunk is delayed before forwarding.
    pub delay: f64,
    /// Upper bound on one injected delay, in milliseconds (uniform in
    /// `1..=max`).
    pub delay_ms_max: u64,
    /// Probability a chunk is forwarded in two writes, cut at a
    /// uniformly random interior byte boundary.
    pub split: f64,
    /// Probability the connection closes cleanly after the chunk.
    pub drop: f64,
    /// Probability the chunk is discarded and the connection closed
    /// abortively (bytes lost mid-frame).
    pub reset: f64,
}

impl ChaosPlan {
    /// Aggressive connection churn on top of delays and splits.
    pub fn rough(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            delay: 0.35,
            delay_ms_max: 10,
            split: 0.5,
            drop: 0.06,
            reset: 0.06,
        }
    }
}

/// What the die decided for one forwarded chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Forward unchanged.
    None,
    /// Sleep this many milliseconds, then forward.
    Delay(u64),
    /// Forward in two writes, cut before this byte offset.
    Split(usize),
    /// Delay, then forward split at the offset.
    DelaySplit(u64, usize),
    /// Forward the chunk, then close the connection cleanly.
    Drop,
    /// Discard the chunk and close abortively.
    Reset,
}

/// The seeded per-direction fault stream. Pure: the same plan and lane
/// produce the same decisions for the same chunk sizes, which is what
/// makes a chaos run replayable from its seed.
pub struct FaultDie {
    rng: StdRng,
    plan: ChaosPlan,
}

impl FaultDie {
    /// One lane = one direction of one proxied connection.
    pub fn new(plan: ChaosPlan, lane: u64) -> FaultDie {
        // Mix the lane into the seed so directions get distinct but
        // reproducible streams.
        let seed = plan.seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        FaultDie {
            rng: StdRng::seed_from_u64(seed),
            plan,
        }
    }

    /// Decide the fate of the next chunk of `chunk_len` bytes.
    pub fn roll(&mut self, chunk_len: usize) -> Fault {
        if self.rng.gen_bool(self.plan.reset) {
            return Fault::Reset;
        }
        if self.rng.gen_bool(self.plan.drop) {
            return Fault::Drop;
        }
        let delay = if self.rng.gen_bool(self.plan.delay) {
            self.rng.gen_range(1..=self.plan.delay_ms_max.max(1))
        } else {
            0
        };
        let split = if chunk_len >= 2 && self.rng.gen_bool(self.plan.split) {
            self.rng.gen_range(1..chunk_len)
        } else {
            0
        };
        match (delay, split) {
            (0, 0) => Fault::None,
            (d, 0) => Fault::Delay(d),
            (0, s) => Fault::Split(s),
            (d, s) => Fault::DelaySplit(d, s),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    delays: AtomicU64,
    splits: AtomicU64,
    drops: AtomicU64,
    resets: AtomicU64,
}

/// A snapshot of how much havoc the proxy actually wreaked — soak
/// tests assert these are nonzero so a "passing" run cannot silently
/// mean "no faults fired".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Connections accepted and proxied.
    pub connections: u64,
    /// Chunks delayed before forwarding.
    pub delays: u64,
    /// Chunks forwarded in two writes.
    pub splits: u64,
    /// Connections closed cleanly after a forwarded chunk.
    pub drops: u64,
    /// Connections closed abortively with the chunk discarded.
    pub resets: u64,
}

/// A running fault-injection proxy. Dropping it (or calling
/// [`ChaosProxy::stop`]) closes the listener and tears down every
/// in-flight pump.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counts: Arc<Counters>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Start a proxy on an ephemeral localhost port, forwarding every
/// accepted connection to `upstream` under `plan`.
pub fn chaos_proxy(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let counts = Arc::new(Counters::default());
    let accept_thread = {
        let stop = Arc::clone(&stop);
        let counts = Arc::clone(&counts);
        thread::spawn(move || accept_loop(&listener, upstream, plan, &stop, &counts))
    };
    Ok(ChaosProxy {
        addr,
        stop,
        counts,
        accept_thread: Some(accept_thread),
    })
}

impl ChaosProxy {
    /// The address clients should dial instead of the real server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Faults injected so far.
    pub fn tally(&self) -> FaultTally {
        FaultTally {
            connections: self.counts.connections.load(Ordering::SeqCst),
            delays: self.counts.delays.load(Ordering::SeqCst),
            splits: self.counts.splits.load(Ordering::SeqCst),
            drops: self.counts.drops.load(Ordering::SeqCst),
            resets: self.counts.resets.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting, tear down pumps, and report the final tally.
    pub fn stop(mut self) -> FaultTally {
        self.shut_down();
        self.tally()
    }

    fn shut_down(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shut_down();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: ChaosPlan,
    stop: &Arc<AtomicBool>,
    counts: &Arc<Counters>,
) {
    let mut lane = 0u64;
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                counts.connections.fetch_add(1, Ordering::SeqCst);
                if let Ok(server) = TcpStream::connect(upstream) {
                    // Small writes must hit the wire as-is or split
                    // boundaries would be coalesced away.
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    // Short read timeouts keep pumps responsive to stop.
                    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
                    let _ = server.set_read_timeout(Some(Duration::from_millis(50)));
                    if let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) {
                        let up = FaultDie::new(plan, lane);
                        let down = FaultDie::new(plan, lane + 1);
                        let (c, s) = (Arc::clone(counts), Arc::clone(stop));
                        pumps.push(thread::spawn(move || pump(client, server, up, c, s)));
                        let (c, s) = (Arc::clone(counts), Arc::clone(stop));
                        pumps.push(thread::spawn(move || pump(server2, client2, down, c, s)));
                    }
                }
                lane += 2;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for p in pumps.drain(..) {
        let _ = p.join();
    }
}

/// Copy bytes from `from` to `to`, applying the die's decision to each
/// chunk. Any close — injected or natural — shuts both streams in both
/// directions, so the sibling pump exits too and nothing leaks.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut die: FaultDie,
    counts: Arc<Counters>,
    stop: Arc<AtomicBool>,
) {
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(_) => break,
        };
        let (delay_ms, split_at, close_after) = match die.roll(n) {
            Fault::Reset => {
                counts.resets.fetch_add(1, Ordering::SeqCst);
                break;
            }
            Fault::Drop => {
                counts.drops.fetch_add(1, Ordering::SeqCst);
                (0, 0, true)
            }
            Fault::None => (0, 0, false),
            Fault::Delay(d) => (d, 0, false),
            Fault::Split(s) => (0, s, false),
            Fault::DelaySplit(d, s) => (d, s, false),
        };
        if delay_ms > 0 {
            counts.delays.fetch_add(1, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(delay_ms));
        }
        let sent = if split_at > 0 && split_at < n {
            counts.splits.fetch_add(1, Ordering::SeqCst);
            to.write_all(&buf[..split_at])
                .and_then(|()| to.flush())
                // A beat between the halves so the peer really observes
                // two reads, not one coalesced buffer.
                .map(|()| thread::sleep(Duration::from_millis(1)))
                .and_then(|()| to.write_all(&buf[split_at..n]))
        } else {
            to.write_all(&buf[..n])
        };
        if sent.and_then(|()| to.flush()).is_err() || close_after {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    #[test]
    fn fault_schedules_are_deterministic_per_seed_and_lane() {
        let plan = ChaosPlan::rough(11);
        let rolls = |lane: u64| {
            let mut die = FaultDie::new(plan, lane);
            (0..200).map(|i| die.roll(64 + i)).collect::<Vec<_>>()
        };
        assert_eq!(rolls(0), rolls(0), "same lane must replay identically");
        assert_ne!(rolls(0), rolls(1), "directions get distinct streams");
        let mut other = FaultDie::new(ChaosPlan::rough(12), 0);
        let other: Vec<_> = (0..200).map(|i| other.roll(64 + i)).collect();
        assert_ne!(rolls(0), other, "different seeds differ");
    }

    #[test]
    fn calm_plan_never_injects_anything() {
        let plan = ChaosPlan {
            seed: 1,
            delay: 0.0,
            delay_ms_max: 1,
            split: 0.0,
            drop: 0.0,
            reset: 0.0,
        };
        let mut die = FaultDie::new(plan, 0);
        for len in 1..100 {
            assert_eq!(die.roll(len), Fault::None);
        }
    }

    #[test]
    fn splits_never_cut_outside_the_chunk() {
        let mut die = FaultDie::new(
            ChaosPlan {
                seed: 5,
                delay: 0.0,
                delay_ms_max: 1,
                split: 1.0,
                drop: 0.0,
                reset: 0.0,
            },
            3,
        );
        assert_eq!(die.roll(1), Fault::None, "a 1-byte chunk cannot split");
        for len in 2..200 {
            match die.roll(len) {
                Fault::Split(at) => assert!(at >= 1 && at < len, "cut {at} in chunk of {len}"),
                other => panic!("expected a split, got {other:?}"),
            }
        }
    }

    /// A line-echo upstream: proves delays and splits are lossless and
    /// order-preserving end to end through real sockets.
    #[test]
    fn delay_and_split_faults_preserve_the_byte_stream() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (stream, _) = upstream.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = std::io::BufReader::new(stream);
            for line in reader.lines().map_while(Result::ok) {
                writeln!(writer, "{line}").unwrap();
            }
        });
        let plan = ChaosPlan {
            seed: 99,
            delay: 0.5,
            delay_ms_max: 2,
            split: 1.0,
            drop: 0.0,
            reset: 0.0,
        };
        let proxy = chaos_proxy(upstream_addr, plan).unwrap();
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        for i in 0..40 {
            let msg = format!("payload-{i}-{}", "x".repeat(i * 7 % 200));
            writeln!(writer, "{msg}").unwrap();
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            assert_eq!(got.trim_end(), msg, "round {i} corrupted");
        }
        drop(writer);
        drop(reader);
        echo.join().unwrap();
        let tally = proxy.stop();
        assert!(tally.splits > 0, "the split die never fired: {tally:?}");
        assert!(tally.delays > 0, "the delay die never fired: {tally:?}");
        assert_eq!(tally.drops + tally.resets, 0);
    }

    /// With reset at certainty, the first chunk kills the connection
    /// and the client sees a clean close, not a hang.
    #[test]
    fn resets_surface_as_connection_loss_not_wedges() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let sink = thread::spawn(move || {
            let (stream, _) = upstream.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                line.clear();
            }
        });
        let plan = ChaosPlan {
            seed: 7,
            delay: 0.0,
            delay_ms_max: 1,
            split: 0.0,
            drop: 0.0,
            reset: 1.0,
        };
        let proxy = chaos_proxy(upstream_addr, plan).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        writeln!(stream, "doomed").unwrap();
        let mut buf = [0u8; 16];
        // Clean EOF or an error — never a 10 s timeout-wedge.
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("reset plan leaked {n} bytes through"),
        }
        sink.join().unwrap();
        let tally = proxy.stop();
        assert!(tally.resets > 0);
    }
}
