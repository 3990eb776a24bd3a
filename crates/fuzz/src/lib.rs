//! # cqa-fuzz — structure-aware fuzz targets for the input layer
//!
//! Six deterministic [`minifuzz`] targets guard the public boundary the
//! ROADMAP's "CQA-as-a-service" goal exposes:
//!
//! * [`targets::dbfmt`] — the fact-file parser
//!   ([`cqa_cli::dbfmt`]), including the streaming parser's byte-offset
//!   accounting and CRLF handling;
//! * [`targets::query`] — [`cqa_query::parse_query`] and the
//!   `display → parse` round trip;
//! * [`targets::batch`] — the batch queries-file front end
//!   ([`cqa_cli::cmd_batch`]) over a fixed database;
//! * [`diff::differential`] — mutate *valid* generated databases
//!   ([`cqa_workloads`]) and assert the literal / component / auto
//!   engines of [`cqa_cli::fleet::route_engines`] agree with the
//!   budgeted brute force and that the
//!   block-indexed `Cert_k` agrees with the frozen seed-era
//!   `certk::reference` evaluator;
//! * [`querydiff::querydiff`] — the dual: mutate the *query* (generated
//!   or concrete text) and drive the whole
//!   classify → route → solve pipeline on a skewed database via
//!   [`cqa_cli::fleet::QueryHarness`];
//! * [`deltadiff::deltadiff`] — mutate generated *delta scripts* and
//!   chain them through the incremental session path
//!   (`SharedSession::with_delta`), asserting every engine route answers
//!   identically to from-scratch recomputation and to the budgeted brute
//!   force after every step.
//!
//! Targets are *structure-aware*: a clean parse error is a
//! [`Verdict::Reject`] (the desired outcome for hostile input); a
//! [`Verdict::Crash`] means a panic or a violated invariant — round-trip
//! fixpoint broken, offsets wrong, or two solvers disagreeing.
//!
//! Every crash found by a fuzz run is minimised and meant to be copied
//! into `crates/fuzz/regressions/<target>/`; the `regressions_replay`
//! integration test replays that corpus on every `cargo test`, so found
//! bugs become permanent tier-1 regression tests. Run the loop by hand
//! with:
//!
//! ```text
//! cargo run --release -p cqa-fuzz -- dbfmt --iters 1000000 --seed 7
//! cargo run --release -p cqa-fuzz -- differential --time-secs 60
//! cargo run --release -p cqa-fuzz -- querydiff --time-secs 60
//! cargo run --release -p cqa-fuzz -- deltadiff --time-secs 60
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deltadiff;
pub mod diff;
pub mod querydiff;
pub mod targets;

pub use minifuzz::{Config, Report, Verdict};

use std::path::{Path, PathBuf};

/// The six fuzz targets, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// Fact-file parser (`cqa_cli::dbfmt`).
    Dbfmt,
    /// Query parser (`cqa_query::parse_query`).
    Query,
    /// Batch queries-file front end (`cqa_cli::cmd_batch`).
    Batch,
    /// Differential stress over mutated valid databases.
    Differential,
    /// Query-mutating differential over the fleet harness.
    QueryDiff,
    /// Delta-script-mutating differential over the incremental session
    /// path vs from-scratch recomputation.
    DeltaDiff,
}

impl TargetKind {
    /// All targets, in the order the `all` CLI mode runs them.
    pub const ALL: [TargetKind; 6] = [
        TargetKind::Dbfmt,
        TargetKind::Query,
        TargetKind::Batch,
        TargetKind::Differential,
        TargetKind::QueryDiff,
        TargetKind::DeltaDiff,
    ];

    /// Parse a CLI / directory name.
    pub fn from_name(name: &str) -> Option<TargetKind> {
        match name {
            "dbfmt" => Some(TargetKind::Dbfmt),
            "query" => Some(TargetKind::Query),
            "batch" => Some(TargetKind::Batch),
            "differential" => Some(TargetKind::Differential),
            "querydiff" => Some(TargetKind::QueryDiff),
            "deltadiff" => Some(TargetKind::DeltaDiff),
            _ => None,
        }
    }

    /// The CLI / regressions-directory name.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Dbfmt => "dbfmt",
            TargetKind::Query => "query",
            TargetKind::Batch => "batch",
            TargetKind::Differential => "differential",
            TargetKind::QueryDiff => "querydiff",
            TargetKind::DeltaDiff => "deltadiff",
        }
    }

    /// The target function.
    pub fn target(self) -> fn(&[u8]) -> Verdict {
        match self {
            TargetKind::Dbfmt => targets::dbfmt,
            TargetKind::Query => targets::query,
            TargetKind::Batch => targets::batch,
            TargetKind::Differential => diff::differential,
            TargetKind::QueryDiff => querydiff::querydiff,
            TargetKind::DeltaDiff => deltadiff::deltadiff,
        }
    }

    /// Token dictionary: the grammar atoms that let a coverage-blind
    /// mutator assemble structurally interesting inputs quickly.
    pub fn dict(self) -> Vec<&'static [u8]> {
        match self {
            TargetKind::Dbfmt => vec![
                b"R(".as_slice(),
                b"R1(",
                b"R2(",
                b")",
                b"|",
                b"| ",
                "⟨".as_bytes(),
                "⟩".as_bytes(),
                b",",
                b" ",
                b"\n",
                b"\r\n",
                b"#",
                "⟨a|b⟩".as_bytes(),
                "⟨x,y⟩".as_bytes(),
                "R(⟨a,b⟩ | c)\n".as_bytes(),
                b"R(a b | c d)\n",
                b"R(1 | 2)\n",
                b"-3",
                "\u{e9}".as_bytes(), // non-ASCII element payload
            ],
            TargetKind::Query | TargetKind::Batch => {
                let mut dict = vec![
                    b"R(".as_slice(),
                    b"R1(",
                    b"R2(",
                    b")",
                    b"|",
                    b"| ",
                    b",",
                    b" ",
                    b"x",
                    b"y",
                    b"ab",
                    b"x1",
                    b"$",
                    b"R(x | y) R(y | z)",
                    b"R(x u | x y) R(u y | x z)",
                ];
                if self == TargetKind::Batch {
                    dict.extend([b"\n".as_slice(), b"\r\n", b"#", b"# note\n"]);
                }
                dict
            }
            // The differential and deltadiff scripts are positional
            // bytes, not a grammar.
            TargetKind::Differential | TargetKind::DeltaDiff => Vec::new(),
            // The querydiff tail is query syntax: reuse the grammar atoms
            // so mutations land on the query text, not just the header.
            TargetKind::QueryDiff => vec![
                b"R(".as_slice(),
                b"R1(",
                b"R2(",
                b")",
                b"|",
                b"| ",
                b",",
                b" ",
                b"x",
                b"u",
                b"R(x | y) R(y | z)",
                b"R1(x u | x v) R2(v y | u y)",
            ],
        }
    }

    /// Seed corpus of well-formed inputs.
    pub fn seeds(self) -> Vec<Vec<u8>> {
        match self {
            TargetKind::Dbfmt => vec![
                b"R(alice | bob)\nR(alice | carol)\nR(bob | dave)\n".to_vec(),
                "R(⟨a|b⟩ x | y)\n".into(),
                "# comment\nR(1 2 | 3)\r\nR(1 2 | 4)\r\n".into(),
                "R(⟨⟨p,q⟩,r⟩ | s)\n".into(),
            ],
            TargetKind::Query => vec![
                b"R(x | y) R(y | z)".to_vec(),
                b"R(x u | x y) R(u y | x z)".to_vec(),
                b"R(x | y z) R(z | x y)".to_vec(),
                b"R1(x u | x v) R2(v y | u y)".to_vec(),
                b"R(x1, x2 | y1) R(x2, x1 | y2)".to_vec(),
                b"R(ab, | x) R(y, | x)".to_vec(),
            ],
            TargetKind::Batch => vec![
                b"R(x | y) R(y | z)\n# a comment\nR(x | x) R(y | x)\n".to_vec(),
                b"\nR(x u) R(u y)  # empty key\n".to_vec(),
            ],
            TargetKind::Differential => {
                // 8 seed bytes, a family byte, a size byte, mutation ops.
                let mut seeds = Vec::new();
                for family in 0u8..diff::FAMILIES {
                    let mut s = b"seedseed".to_vec();
                    s.push(family);
                    s.push(3);
                    s.extend_from_slice(b"abcdef");
                    seeds.push(s);
                }
                seeds
            }
            TargetKind::DeltaDiff => {
                // 8 seed bytes, a family byte, a size byte, then 4-byte
                // delta steps (step seed ×2, shape, mutation). Mutation
                // byte 200 % 6 == 2 swaps lines — a parse-preserving op —
                // so every family seed is accepted, not rejected.
                let mut seeds = Vec::new();
                for family in 0u8..deltadiff::DELTA_FAMILIES {
                    let mut s = b"seedseed".to_vec();
                    s.push(family);
                    s.push(4);
                    s.extend_from_slice(&[7, 1, family % 3, 200]);
                    s.extend_from_slice(&[3, 2, (family + 1) % 3, 200]);
                    seeds.push(s);
                }
                seeds
            }
            TargetKind::QueryDiff => {
                // Generated-query scripts (empty tail) across presets,
                // plus concrete-text scripts the dictionary can rewrite.
                let mut seeds = Vec::new();
                for preset in 0u8..5 {
                    let mut s = b"seedseed".to_vec();
                    s.push(preset);
                    s.push(preset.wrapping_mul(53));
                    seeds.push(s);
                }
                for text in [
                    b"R(x | y) R(y | z)".as_slice(),
                    b"R(x | y z) R(z | x y)",
                    b"R1(x u | x v) R2(v y | u y)",
                ] {
                    let mut s = b"seedseed".to_vec();
                    s.push(0);
                    s.push(9);
                    s.extend_from_slice(text);
                    seeds.push(s);
                }
                seeds
            }
        }
    }

    /// Run this target under the fuzz loop.
    pub fn run(self, cfg: &Config) -> Report {
        let dict = self.dict();
        minifuzz::fuzz_dict(cfg, &self.seeds(), &dict, self.target())
    }
}

/// The checked-in regression corpus root (`crates/fuzz/regressions`).
pub fn regressions_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions")
}

/// One checked-in regression input.
#[derive(Clone, Debug)]
pub struct RegressionInput {
    /// Which target replays it (from the subdirectory name).
    pub kind: TargetKind,
    /// The corpus file.
    pub path: PathBuf,
    /// Its raw bytes.
    pub bytes: Vec<u8>,
}

/// Load the whole regression corpus, sorted by path for determinism.
/// Panics on unreadable files or a subdirectory that names no target —
/// a broken corpus must fail loudly, not silently shrink.
pub fn regression_inputs() -> Vec<RegressionInput> {
    let root = regressions_root();
    let mut out = Vec::new();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", root.display()))
        .map(|entry| entry.expect("regressions dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let kind = TargetKind::from_name(name)
            .unwrap_or_else(|| panic!("regressions/{name} does not name a fuzz target"));
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
            .map(|entry| entry.expect("regressions file entry").path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        for path in files {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push(RegressionInput { kind, path, bytes });
        }
    }
    assert!(!out.is_empty(), "regression corpus is empty");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_round_trip() {
        for kind in TargetKind::ALL {
            assert_eq!(TargetKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TargetKind::from_name("nope"), None);
    }

    #[test]
    fn every_target_has_seeds_that_pass() {
        // Seeds are well-formed inputs: none may crash, and at least one
        // per target must be accepted outright (Reject-only seeds would
        // start the mutator from nothing useful).
        for kind in TargetKind::ALL {
            let mut target = kind.target();
            let mut accepted = 0;
            for seed in kind.seeds() {
                match minifuzz::run_caught(&mut target, &seed) {
                    Verdict::Crash(msg) => panic!("{} seed crashes: {msg}", kind.name()),
                    Verdict::Ok => accepted += 1,
                    Verdict::Reject => {}
                }
            }
            assert!(accepted > 0, "{} has no accepted seed", kind.name());
        }
    }

    #[test]
    fn corpus_loads_and_names_every_target_dir() {
        let inputs = regression_inputs();
        assert!(inputs.iter().any(|r| r.kind == TargetKind::Dbfmt));
        assert!(inputs.iter().any(|r| r.kind == TargetKind::Query));
    }
}
