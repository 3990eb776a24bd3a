//! The host-speed reference: a loopback TCP ping-pong between two
//! threads of the measuring process, sharing none of the repository's
//! code.
//!
//! On a shared virtual machine the same work costs up to half as much
//! CPU time again when neighbours are busy, in regimes that last seconds.
//! A request's hand-offs between threads and its system calls slow down
//! in step with a ping-pong round trip, so the benchmark measures the
//! round trip beside the work and reports the work's cost in round trips.

use crate::report::{cpu_seconds, cpu_seconds_with_children, thread_cpu_seconds, Outcome};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;

/// Bytes per message each way.
const MESSAGE: usize = 64;

pub struct PingPong {
    stream: TcpStream,
    echo: Option<thread::JoinHandle<()>>,
    /// CPU seconds and round trips measured so far.
    cpu_s: f64,
    trips: usize,
}

impl PingPong {
    pub fn start() -> PingPong {
        let listener =
            TcpListener::bind("127.0.0.1:0").expect("the reference binds a loopback port");
        let addr = listener
            .local_addr()
            .expect("a bound listener has an address");
        let echo = thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let mut buf = [0u8; MESSAGE];
            while stream.read_exact(&mut buf).is_ok() && stream.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr).expect("the reference echo accepts");
        stream.set_nodelay(true).expect("TCP_NODELAY on loopback");
        PingPong {
            stream,
            echo: Some(echo),
            cpu_s: 0.0,
            trips: 0,
        }
    }

    /// Make `n` round trips; returns the CPU milliseconds per round trip
    /// of the calling thread, whose system calls carry most of the work.
    /// The calling thread's clock leaves out other threads of the process
    /// that run meanwhile.
    pub fn run(&mut self, n: usize) -> f64 {
        let cpu = thread_cpu_seconds();
        let mut buf = [7u8; MESSAGE];
        for _ in 0..n {
            self.stream
                .write_all(&buf)
                .expect("the reference echo is alive");
            self.stream
                .read_exact(&mut buf)
                .expect("the reference echo answers");
        }
        let cpu = thread_cpu_seconds() - cpu;
        self.cpu_s += cpu;
        self.trips += n;
        cpu * 1e3 / n as f64
    }

    /// Mean CPU milliseconds per round trip so far.
    pub fn rtt_ms(&self) -> f64 {
        self.cpu_s * 1e3 / self.trips.max(1) as f64
    }
}

impl Drop for PingPong {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Round trips in each reference measurement.
const TRIPS: usize = 500;

/// The CPU cost of a workload's operations in reference round trips.
///
/// The workload hands it the CPU time of each interval of work; the
/// meter measures the reference right after, and converts the interval
/// into round trips at the mean speed of the reference before and after
/// it.
pub struct CostMeter {
    reference: PingPong,
    last_rtt_ms: f64,
    cost_rtt: f64,
    cpu_s: f64,
    ops: usize,
}

impl CostMeter {
    pub fn start() -> CostMeter {
        let mut reference = PingPong::start();
        let last_rtt_ms = reference.run(TRIPS);
        CostMeter {
            reference,
            last_rtt_ms,
            cost_rtt: 0.0,
            cpu_s: 0.0,
            ops: 0,
        }
    }

    /// Add an interval: `cpu_s` CPU seconds spent on `ops` operations.
    pub fn add(&mut self, cpu_s: f64, ops: usize) {
        let rtt_ms = self.reference.run(TRIPS);
        self.cost_rtt += cpu_s * 1e3 / ((self.last_rtt_ms + rtt_ms) / 2.0);
        self.last_rtt_ms = rtt_ms;
        self.cpu_s += cpu_s;
        self.ops += ops;
    }

    /// `op_cost_rtt`, plus the raw CPU time per operation and the
    /// reference round trip as per-layer figures.
    pub fn report(&self, out: &mut Outcome) {
        let ops = self.ops.max(1);
        out.metric("op_cost_rtt", self.cost_rtt / ops as f64, "rtt", self.ops);
        out.metric(
            "cpu.ms_per_op",
            self.cpu_s * 1e3 / ops as f64,
            "ms",
            self.ops,
        );
        out.metric(
            "reference.rtt_us",
            self.reference.rtt_ms() * 1e3,
            "us",
            self.reference.trips,
        );
    }
}

/// The reference round trip `setup_s` is scaled to, in microseconds: about
/// what one costs on a quiet 2-CPU Intel Xeon virtual machine.
const NOMINAL_RTT_US: f64 = 5.0;

/// `setup_s`: the CPU time of a worker and of the children it waited
/// for (the generator), from its start to its first timed operation,
/// scaled from the reference speed measured at both ends to
/// [`NOMINAL_RTT_US`]. The reference's own CPU time is left out.
pub struct SetupClock {
    reference: PingPong,
    rtt_ms: f64,
    own_cpu_s: f64,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        let cpu = cpu_seconds();
        let mut reference = PingPong::start();
        let rtt_ms = reference.run(TRIPS);
        SetupClock {
            reference,
            rtt_ms,
            own_cpu_s: cpu_seconds() - cpu,
        }
    }

    /// `setup_s` now, and the unscaled CPU seconds.
    pub fn stop(mut self) -> (f64, f64) {
        let cpu = cpu_seconds_with_children() - self.own_cpu_s;
        let rtt_ms = (self.rtt_ms + self.reference.run(TRIPS)) / 2.0;
        (cpu * NOMINAL_RTT_US * 1e-3 / rtt_ms, cpu)
    }
}
