//! Input generation, run in a child process of its own.
//!
//! The element interner is process-global and never cleared, so a
//! process that generated a text would parse it with every element
//! already interned. Generating in a separate single-threaded process
//! keeps the measured process cold; the generator streams the texts
//! (and the `serve_rw` delta scripts) back over a pipe and the worker
//! keeps them in memory, so no disk sits in the timed path.

use crate::spec::{
    Spec, TextKind, ARITY3_VALUE_DOMAIN, CONTESTED_CERTAIN_FRACTION, CONTESTED_WIDTH,
};
use crate::spec::{DELTA_INSERT_RATIO, DELTA_OPS};
use cqa_workloads::deltas::DeltaScriptConfig;
use cqa_workloads::deltas::{random_delta_ops, render_delta_script, DeltaLocality};
use cqa_workloads::large::{ContestedWorkloadConfig, LargeWorkloadConfig};
use cqa_workloads::queries::derive_seed;
use cqa_workloads::skew::{skewed_db, SkewFamily, SkewedDbConfig};
use std::io::{self, BufRead, Write};
use std::process::{Command, Stdio};

/// What the generator hands the worker.
pub struct Inputs {
    /// `(kind, text)` in spec order.
    pub texts: Vec<(TextKind, String)>,
    /// Delta scripts in send order (the first is the set-up warm-up).
    pub scripts: Vec<String>,
}

fn text_of(kind: TextKind, facts: usize, seed: u64) -> String {
    let mut out = Vec::new();
    match kind {
        TextKind::Chain => {
            let mut cfg = LargeWorkloadConfig::new(facts);
            cfg.seed = derive_seed(seed, 0, 0);
            cfg.threads = 1;
            cqa_workloads::large::write_large_q3(&cfg, &mut out).expect("writing to memory");
        }
        TextKind::Contested => {
            let mut cfg = ContestedWorkloadConfig::new(facts, CONTESTED_WIDTH)
                .with_certain_fraction(CONTESTED_CERTAIN_FRACTION);
            cfg.threads = 1;
            cqa_workloads::large::write_large_contested_q3(&cfg, &mut out)
                .expect("writing to memory");
        }
        TextKind::Arity3 => {
            let q6 = cqa_query::examples::q6();
            let cfg = SkewedDbConfig {
                value_domain: ARITY3_VALUE_DOMAIN,
                ..SkewFamily::MixedBatch.config(facts)
            };
            let db = skewed_db(derive_seed(seed, 0, 2), &q6, &cfg);
            out = cqa_cli::dbfmt::write_database(&db).into_bytes();
        }
    }
    String::from_utf8(out).expect("generated texts are UTF-8")
}

/// Generate every input of `spec` for `seed`.
pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Inputs {
    let texts: Vec<(TextKind, String)> = spec
        .texts
        .iter()
        .map(|&(kind, facts)| (kind, text_of(kind, facts, seed)))
        .collect();
    let mut scripts = Vec::new();
    let needed = spec.scripts_needed(seconds);
    if needed > 0 {
        let base = cqa_cli::dbfmt::parse_database(&texts[0].1).expect("generated text parses");
        // One seeded stream cut into scripts: the generator copies every
        // base fact per call, so one call per script made it most of the
        // set-up.
        let cfg = DeltaScriptConfig {
            ops: DELTA_OPS * needed,
            insert_ratio: DELTA_INSERT_RATIO,
            locality: DeltaLocality::Mixed,
            ..DeltaScriptConfig::default()
        };
        let key_len = base.signature().key_len();
        let ops = random_delta_ops(derive_seed(seed, 1, 0), &base, &cfg);
        for chunk in ops.chunks(DELTA_OPS) {
            scripts.push(render_delta_script(chunk, key_len));
        }
    }
    Inputs { texts, scripts }
}

/// The generator child's main: write the frames to stdout.
pub fn write_frames(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    for (kind, text) in &inputs.texts {
        writeln!(out, "text {} {}", kind.name(), text.len())?;
        out.write_all(text.as_bytes())?;
    }
    for script in &inputs.scripts {
        writeln!(out, "script {}", script.len())?;
        out.write_all(script.as_bytes())?;
    }
    out.flush()
}

fn read_frames(mut input: impl BufRead) -> io::Result<Inputs> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut inputs = Inputs {
        texts: Vec::new(),
        scripts: Vec::new(),
    };
    let mut header = String::new();
    loop {
        header.clear();
        if input.read_line(&mut header)? == 0 {
            return Ok(inputs);
        }
        let fields: Vec<&str> = header.split_whitespace().collect();
        let len: usize = fields
            .last()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad("frame header without a length"))?;
        let mut body = vec![0u8; len];
        input.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("frame is not UTF-8"))?;
        match fields.as_slice() {
            ["text", name, _] => {
                let kind = [TextKind::Chain, TextKind::Contested, TextKind::Arity3]
                    .into_iter()
                    .find(|k| k.name() == *name)
                    .ok_or_else(|| bad("unknown text kind"))?;
                inputs.texts.push((kind, body));
            }
            ["script", _] => inputs.scripts.push(body),
            _ => return Err(bad("unknown frame")),
        }
    }
}

/// Run the generator as a child process and read its frames into memory.
/// The child is always waited for.
pub fn spawn_generator(args: &[String]) -> io::Result<Inputs> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .arg("gen")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let read = read_frames(io::BufReader::with_capacity(1 << 20, stdout));
    if read.is_err() {
        let _ = child.kill();
    }
    let status = child.wait()?;
    let inputs = read?;
    if !status.success() {
        return Err(io::Error::other(format!("generator exited with {status}")));
    }
    Ok(inputs)
}
