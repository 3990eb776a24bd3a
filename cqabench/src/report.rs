//! What a worker measured, how it travels to the orchestrating process,
//! and the JSON the benchmark prints.

use std::fmt::Write as _;

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Self time of one layer in the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    pub name: String,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// Everything one worker process reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layer_metrics: Vec<Metric>,
    pub layers: Vec<Layer>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: `(passed, what)`.
    pub checks: Vec<(bool, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            samples,
        });
    }

    pub fn layer_metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.layer_metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            samples,
        });
    }

    pub fn check(&mut self, passed: bool, what: impl Into<String>) {
        self.checks.push((passed, what.into()));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The tab-separated lines a worker prints to its parent.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (tag, list) in [
            ("metric", &self.metrics),
            ("layer_metric", &self.layer_metrics),
        ] {
            for m in list {
                let _ = writeln!(
                    out,
                    "{tag}\t{}\t{}\t{}\t{}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for l in &self.layers {
            let _ = writeln!(
                out,
                "layer\t{}\t{}\t{}\t{}",
                l.name, l.count, l.total_s, l.self_s
            );
        }
        let _ = writeln!(out, "ops\t{}\t{}", self.attempted, self.failed);
        for (passed, what) in &self.checks {
            let _ = writeln!(
                out,
                "check\t{}\t{}",
                u8::from(*passed),
                what.replace('\n', " ")
            );
        }
        out
    }

    /// Parse [`Outcome::to_lines`] output; other lines are ignored.
    pub fn from_lines(text: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("bad number {s:?}: {e}"))
        };
        let int = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad count {s:?}: {e}"))
        };
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                [tag @ ("metric" | "layer_metric"), name, value, unit, samples] => {
                    let m = Metric {
                        name: name.to_string(),
                        value: num(value)?,
                        unit: unit.to_string(),
                        samples: int(samples)? as usize,
                    };
                    if *tag == "metric" {
                        out.metrics.push(m);
                    } else {
                        out.layer_metrics.push(m);
                    }
                }
                ["layer", name, count, total, self_s] => out.layers.push(Layer {
                    name: name.to_string(),
                    count: int(count)? as usize,
                    total_s: num(total)?,
                    self_s: num(self_s)?,
                }),
                ["ops", attempted, failed] => {
                    out.attempted += int(attempted)?;
                    out.failed += int(failed)?;
                }
                ["check", passed, what] => out.checks.push((*passed == "1", what.to_string())),
                _ => {}
            }
        }
        Ok(out)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip form, which never uses an exponent). Non-finite values
/// have no JSON form and are the caller's bug.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, optionally with sample counts.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The host fingerprint recorded next to the metrics.
pub fn host_fingerprint() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu),
        ("rustc".into(), rustc),
    ]
}

/// The C library calls behind the CPU clocks below (Linux, x86-64 and
/// aarch64 layouts: `struct timespec` is two longs, `struct rusage` two
/// `struct timeval`s of two longs each followed by fourteen longs).
mod sys {
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
        pub fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const RUSAGE_CHILDREN: i32 = -1;
}

/// CPU time this process has used so far, all its threads together
/// (exited ones included), in seconds with nanosecond resolution. Unlike
/// wall time it leaves out time the hypervisor stole from a virtual
/// machine, which on a shared host moved whole runs by 30 %.
pub fn cpu_seconds() -> f64 {
    clock_seconds(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(sys::CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// [`cpu_seconds`] plus the user and system time of the children this
/// process has waited for (the generator), in microseconds.
pub fn cpu_seconds_with_children() -> f64 {
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let children = (usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 * 1e-6;
    cpu_seconds() + children
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut o = Outcome::default();
        o.metric("read_p50_ms", 0.04531234, "ms", 1234);
        o.layer_metric("solvers.brute_s", 1.5, "s", 2);
        o.layers.push(Layer {
            name: "rtt".into(),
            count: 3,
            total_s: 0.25,
            self_s: 0.125,
        });
        o.attempted = 7;
        o.failed = 1;
        o.check(false, "verdict\nmismatch");
        let back = Outcome::from_lines(&o.to_lines()).unwrap();
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.layer_metrics, o.layer_metrics);
        assert_eq!(back.layers, o.layers);
        assert_eq!((back.attempted, back.failed), (7, 1));
        assert_eq!(back.checks, vec![(false, "verdict mismatch".to_string())]);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(1e-7), "0.0000001");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
