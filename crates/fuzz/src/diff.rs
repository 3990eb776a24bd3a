//! Differential stress: mutate *valid* generated databases and cross-check
//! every solver route against the budgeted brute force and the frozen
//! seed-era `Cert_k` reference evaluator.
//!
//! The input is a positional byte script, so the whole instance —
//! workload family, size, and the text-level mutations applied to the
//! serialised database — is a pure function of the bytes and replays
//! forever:
//!
//! ```text
//! bytes 0..8   little-endian u64 RNG seed
//! byte  8      workload family (mod FAMILIES)
//! byte  9      size knob
//! bytes 10..   one structural text mutation per byte
//! ```
//!
//! Mutations act on whole fact lines and on digits inside element
//! payloads (duplicate / delete / swap / copy lines, digit rewrites), so
//! most mutants still parse and genuinely exercise the solvers rather
//! than the parser's reject path.

use cqa::{CqaEngine, EngineConfig};
use cqa_cli::dbfmt::{parse_database, write_database};
use cqa_cli::fleet::{route_engines, BRUTE_BUDGET, CERTK_BUDGET};
use cqa_model::Database;
use cqa_solvers::certk::reference::certk_reference;
use cqa_solvers::{certain_brute_budgeted, certk, BruteOutcome, CertKConfig, CertKOutcome};
use cqa_workloads::{
    q3_certain_db, q3_chain_db, q3_escape_db, q3_multi_component_db, q6_certk_hard,
    q6_triangle_grid, random_db, RandomDbConfig,
};
use minifuzz::{FuzzRng, Verdict};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;

/// Number of workload families the family byte selects among.
pub const FAMILIES: u8 = 9;

/// Mutants larger than this are rejected to keep the brute force honest.
const MAX_FACTS: usize = 160;

/// Which of the three stress queries a family uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StressQuery {
    /// `q3 = R(x | y) R(y | z)` — the `Cert₂` path class.
    Q3,
    /// `q6 = R(x | y z) R(z | x y)` — the `Cert_k` clique class.
    Q6,
    /// `q1 = R(x u | x v) R(v y | u y)` — the coNP-complete fork.
    Q1,
}

struct Script {
    seed: u64,
    family: u8,
    size: usize,
    ops: Vec<u8>,
}

impl Script {
    fn decode(input: &[u8]) -> Option<Script> {
        if input.len() < 10 {
            return None;
        }
        let mut seed = [0u8; 8];
        seed.copy_from_slice(&input[..8]);
        Some(Script {
            seed: u64::from_le_bytes(seed),
            family: input[8] % FAMILIES,
            size: input[9] as usize,
            ops: input[10..].to_vec(),
        })
    }

    /// The family's query and freshly generated valid database.
    fn build(&self) -> (StressQuery, Database) {
        let n = self.size;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let random_cfg = RandomDbConfig {
            blocks: 3 + n % 6,
            max_block_size: 1 + n % 3,
            domain: 3 + n % 4,
        };
        match self.family {
            0 => (StressQuery::Q3, q3_chain_db(2 + n % 12)),
            1 => (StressQuery::Q3, q3_escape_db(2 + n % 12)),
            2 => (StressQuery::Q3, q3_certain_db(1 + n % 4)),
            3 => (StressQuery::Q3, q3_multi_component_db(1 + n % 4, 2 + n % 4)),
            4 => (
                StressQuery::Q3,
                random_db(&mut rng, &cqa_query::examples::q3(), &random_cfg),
            ),
            5 => (StressQuery::Q6, q6_triangle_grid(1 + n % 3)),
            6 => (StressQuery::Q6, q6_certk_hard(2 + n % 3)),
            7 => (
                StressQuery::Q6,
                random_db(&mut rng, &cqa_query::examples::q6(), &random_cfg),
            ),
            _ => (
                StressQuery::Q1,
                random_db(&mut rng, &cqa_query::examples::q1(), &random_cfg),
            ),
        }
    }

    /// Apply one structural mutation per op byte to the serialised text.
    fn mutate_text(&self, text: &str) -> String {
        let mut rng = FuzzRng::seed_from_u64(self.seed ^ 0x5eed_d1ff);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for &op in &self.ops {
            if lines.is_empty() {
                break;
            }
            match op % 5 {
                0 => {
                    // Duplicate a line (grows a block or repeats a fact).
                    let i = rng.below(lines.len());
                    let line = lines[i].clone();
                    lines.insert(i, line);
                }
                1 if lines.len() > 1 => {
                    lines.remove(rng.below(lines.len()));
                }
                2 => {
                    let (i, j) = (rng.below(lines.len()), rng.below(lines.len()));
                    lines.swap(i, j);
                }
                3 => {
                    // Overwrite a line with a copy of another.
                    let (i, j) = (rng.below(lines.len()), rng.below(lines.len()));
                    let line = lines[j].clone();
                    lines[i] = line;
                }
                _ => {
                    // Rewrite one digit inside an element payload: changes
                    // a key or value, merging blocks or rerouting chains.
                    let i = rng.below(lines.len());
                    let digit_at: Vec<usize> = lines[i]
                        .char_indices()
                        .filter(|(_, c)| c.is_ascii_digit())
                        .map(|(at, _)| at)
                        .collect();
                    if let Some(&at) = rng.pick(&digit_at) {
                        let d = char::from(b'0' + (op / 5 % 10));
                        lines[i].replace_range(at..at + 1, &d.to_string());
                    }
                }
            }
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// The fleet's route matrix ([`route_engines`]) at the engine's default
/// `k`, per stress query. Built once per query — construction classifies
/// the query, which is far too slow to repeat every iteration.
fn engines(q: StressQuery) -> &'static [(&'static str, CqaEngine)] {
    static ENGINES: OnceLock<[Vec<(&'static str, CqaEngine)>; 3]> = OnceLock::new();
    let all = ENGINES.get_or_init(|| {
        let k = EngineConfig::default().certk.k;
        [
            route_engines(&cqa_query::examples::q3(), k),
            route_engines(&cqa_query::examples::q6(), k),
            route_engines(&cqa_query::examples::q1(), k),
        ]
    });
    match q {
        StressQuery::Q3 => &all[0],
        StressQuery::Q6 => &all[1],
        StressQuery::Q1 => &all[2],
    }
}

/// The differential target. [`Verdict::Reject`] marks instances that are
/// out of budget or mutated into unparseable / signature-changed text;
/// [`Verdict::Crash`] is reserved for genuine disagreements.
pub fn differential(input: &[u8]) -> Verdict {
    let Some(script) = Script::decode(input) else {
        return Verdict::Reject;
    };
    let (stress, base) = script.build();
    let text = script.mutate_text(&write_database(&base));
    let db = match parse_database(&text) {
        Ok(db) => db,
        Err(_) => return Verdict::Reject,
    };
    let q = match stress {
        StressQuery::Q3 => cqa_query::examples::q3(),
        StressQuery::Q6 => cqa_query::examples::q6(),
        StressQuery::Q1 => cqa_query::examples::q1(),
    };
    if db.signature() != q.signature() || db.len() > MAX_FACTS {
        return Verdict::Reject;
    }

    let ground = match certain_brute_budgeted(&q, &db, BRUTE_BUDGET) {
        BruteOutcome::Certain => true,
        BruteOutcome::NotCertain(_) => false,
        BruteOutcome::BudgetExhausted => return Verdict::Reject,
    };

    for (name, engine) in engines(stress) {
        let ans = engine.certain(&db);
        if ans.budget_exhausted {
            continue;
        }
        if ans.certain != ground {
            return Verdict::Crash(format!(
                "engine route {name} says certain={} but brute force says {ground} \
                 (answered_by {:?}) on:\n{text}",
                ans.certain, ans.answered_by
            ));
        }
    }

    // Block-indexed `Cert_k` vs the frozen seed-era reference evaluator,
    // for the two PTime `Cert_k` stress queries.
    if stress != StressQuery::Q1 {
        let k = if stress == StressQuery::Q3 { 2 } else { 3 };
        let mut cfg = CertKConfig::new(k).with_threads(1);
        cfg.node_budget = CERTK_BUDGET;
        let fast = certk(&q, &db, cfg);
        let reference = certk_reference(&q, &db, cfg);
        match (fast, reference) {
            (CertKOutcome::BudgetExhausted, _) | (_, CertKOutcome::BudgetExhausted) => {}
            (a, b) if a != b => {
                return Verdict::Crash(format!(
                    "certk (k={k}) disagrees with certk_reference: {a:?} vs {b:?} on:\n{text}"
                ));
            }
            _ => {}
        }
        if fast == CertKOutcome::Certain && !ground {
            return Verdict::Crash(format!(
                "certk (k={k}) derived Certain but brute force found a falsifying repair on:\n{text}"
            ));
        }
    }
    Verdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(family: u8, size: u8, ops: &[u8]) -> Vec<u8> {
        let mut s = b"12345678".to_vec();
        s.push(family);
        s.push(size);
        s.extend_from_slice(ops);
        s
    }

    #[test]
    fn unmutated_families_all_agree() {
        for family in 0..FAMILIES {
            for size in [0, 3, 7] {
                let input = script(family, size, b"");
                // No ops: the generated database itself must never expose
                // a disagreement.
                if let Verdict::Crash(msg) = differential(&input) {
                    panic!("family {family} size {size}: {msg}");
                }
            }
        }
    }

    #[test]
    fn mutated_instances_never_crash() {
        for family in 0..FAMILIES {
            let input = script(family, 5, b"abcdefgh");
            if let Verdict::Crash(msg) = differential(&input) {
                panic!("family {family}: {msg}");
            }
        }
    }

    #[test]
    fn short_inputs_reject() {
        assert_eq!(differential(b"tiny"), Verdict::Reject);
    }
}
