//! Delta differential stress: mutate *valid* generated delta scripts and
//! cross-check the incremental path ([`SharedSession::with_delta`] —
//! patched verdicts, re-solved dirty components, retained components)
//! against from-scratch recomputation on every engine route, with the
//! budgeted brute force as semantic ground truth.
//!
//! The input is a positional byte script, a pure function of the bytes:
//!
//! ```text
//! bytes 0..8    little-endian u64 RNG seed
//! byte  8       base-database family (mod DELTA_FAMILIES)
//! byte  9       size knob
//! bytes 10..    delta steps, STEP_BYTES bytes each (at most MAX_STEPS):
//!               [seed lo, seed hi, shape (ops / ratio / locality), mutation]
//! ```
//!
//! Each step generates a seeded delta script against the *current*
//! database via [`cqa_workloads::random_delta_ops`], renders it through
//! the one delta-script grammar ([`cqa_workloads::render_delta_script`]),
//! applies one text-level mutation (duplicate / drop / swap lines, flip
//! an insert to a retract, rewrite a digit) and re-parses with the same
//! [`cqa_server::parse_delta_script`] the wire `update` method and
//! `cqa update` use — so the parser is fuzzed on the way in, and most
//! mutants still parse into a *different but valid* delta. The parsed
//! delta is then applied twice: incrementally through a chain of shared
//! sessions (one per engine route), and by [`Database::apply_delta`] on
//! an independent copy solved cold. Any verdict disagreement — incremental
//! vs cold, either vs brute force — is a [`Verdict::Crash`].

use cqa::{CqaEngine, EngineConfig, RoutePolicy, SharedSession};
use cqa_cli::fleet::BRUTE_BUDGET;
use cqa_model::Database;
use cqa_query::Query;
use cqa_server::parse_delta_script;
use cqa_solvers::{certain_brute_budgeted, BruteOutcome};
use cqa_workloads::{
    q3_chain_db, q3_escape_db, q3_multi_component_db, q6_triangle_grid, random_db,
    render_delta_script, split_delta_ops, DeltaLocality, DeltaScriptConfig, RandomDbConfig,
};
use minifuzz::{FuzzRng, Verdict};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// Number of base-database families the family byte selects among.
pub const DELTA_FAMILIES: u8 = 6;

/// Bytes consumed per delta step.
const STEP_BYTES: usize = 4;

/// Upper bound on chained delta steps per instance.
const MAX_STEPS: usize = 3;

/// Databases grown past this many live facts are rejected to keep the
/// per-step brute force honest.
const MAX_FACTS: usize = 120;

/// Which stress query the family pairs with (deltas are only interesting
/// on queries the engine answers through cached per-query state).
#[derive(Clone, Copy, PartialEq, Eq)]
enum StressQuery {
    /// `q3 = R(x | y) R(y | z)` — the `Cert₂` path class.
    Q3,
    /// `q6 = R(x | y z) R(z | x y)` — the `Cert_k` clique class.
    Q6,
}

struct Script {
    seed: u64,
    family: u8,
    size: usize,
    steps: Vec<[u8; STEP_BYTES]>,
}

impl Script {
    fn decode(input: &[u8]) -> Option<Script> {
        if input.len() < 10 + STEP_BYTES {
            return None;
        }
        let mut seed = [0u8; 8];
        seed.copy_from_slice(&input[..8]);
        let steps: Vec<[u8; STEP_BYTES]> = input[10..]
            .chunks_exact(STEP_BYTES)
            .take(MAX_STEPS)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        Some(Script {
            seed: u64::from_le_bytes(seed),
            family: input[8] % DELTA_FAMILIES,
            size: input[9] as usize,
            steps,
        })
    }

    /// The family's query and freshly generated valid base database.
    fn build(&self) -> (StressQuery, Database) {
        let n = self.size;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let random_cfg = RandomDbConfig {
            blocks: 3 + n % 5,
            max_block_size: 1 + n % 3,
            domain: 3 + n % 4,
        };
        match self.family {
            0 => (StressQuery::Q3, q3_chain_db(2 + n % 10)),
            1 => (StressQuery::Q3, q3_escape_db(2 + n % 10)),
            2 => (StressQuery::Q3, q3_multi_component_db(1 + n % 3, 2 + n % 4)),
            3 => (
                StressQuery::Q3,
                random_db(&mut rng, &cqa_query::examples::q3(), &random_cfg),
            ),
            4 => (StressQuery::Q6, q6_triangle_grid(1 + n % 3)),
            _ => (
                StressQuery::Q6,
                random_db(&mut rng, &cqa_query::examples::q6(), &random_cfg),
            ),
        }
    }
}

/// Apply one structural text mutation to a rendered delta script.
fn mutate_script(text: &str, seed: u64, op: u8) -> String {
    let mut rng = FuzzRng::seed_from_u64(seed ^ 0xde17_ad1f);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if !lines.is_empty() {
        match op % 6 {
            0 => {
                // Duplicate an operation (set semantics make it a no-op —
                // the incremental path must agree that it is).
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
                // Flip an insert to a retract or vice versa: retracting an
                // absent fact / re-inserting a resident one are no-ops the
                // incremental path must also treat as such.
                let i = rng.below(lines.len());
                if let Some(rest) = lines[i].strip_prefix('+') {
                    lines[i] = format!("-{rest}");
                } else if let Some(rest) = lines[i].strip_prefix('-') {
                    lines[i] = format!("+{rest}");
                }
            }
            4 => {
                // Rewrite one digit inside an element payload: redirects
                // an op at a different block or a brand-new key.
                let i = rng.below(lines.len());
                let digit_at: Vec<usize> = lines[i]
                    .char_indices()
                    .filter(|(_, c)| c.is_ascii_digit())
                    .map(|(at, _)| at)
                    .collect();
                if let Some(&at) = rng.pick(&digit_at) {
                    let d = char::from(b'0' + (op / 6 % 10));
                    lines[i].replace_range(at..at + 1, &d.to_string());
                }
            }
            _ => {
                // Inject a comment / blank line: grammar noise the parser
                // must skip without shifting operation positions.
                let i = rng.below(lines.len() + 1);
                lines.insert(i, "# mutated".to_string());
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The engine routes each instance is diffed across.
const ROUTES: [(&str, RoutePolicy, usize); 2] = [
    ("literal/t1", RoutePolicy::Literal, 1),
    ("component/t2", RoutePolicy::Component, 2),
];

fn route_config(route: RoutePolicy, threads: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_route(route)
}

/// Cold engines per stress query and route, classified once per process.
fn cold_engines(q: StressQuery) -> &'static [(&'static str, CqaEngine)] {
    static ENGINES: OnceLock<[Vec<(&'static str, CqaEngine)>; 2]> = OnceLock::new();
    let all = ENGINES.get_or_init(|| {
        let build = |query: Query| {
            ROUTES
                .iter()
                .map(|&(name, route, threads)| {
                    (
                        name,
                        CqaEngine::with_config(query.clone(), route_config(route, threads)),
                    )
                })
                .collect()
        };
        [
            build(cqa_query::examples::q3()),
            build(cqa_query::examples::q6()),
        ]
    });
    match q {
        StressQuery::Q3 => &all[0],
        StressQuery::Q6 => &all[1],
    }
}

/// The delta differential target. [`Verdict::Reject`] marks instances
/// whose mutated script no longer parses, clashes with the database
/// signature, or grows past the brute-force budget;
/// [`Verdict::Crash`] is reserved for genuine disagreements.
pub fn deltadiff(input: &[u8]) -> Verdict {
    let Some(script) = Script::decode(input) else {
        return Verdict::Reject;
    };
    let (stress, base) = script.build();
    if base.len() > MAX_FACTS {
        return Verdict::Reject;
    }
    let q = match stress {
        StressQuery::Q3 => cqa_query::examples::q3(),
        StressQuery::Q6 => cqa_query::examples::q6(),
    };
    let key_len = base.signature().key_len();

    // One incremental session chain per route, warmed on the base so
    // with_delta patches cached verdicts rather than re-solving lazily.
    let mut chains: Vec<SharedSession> = ROUTES
        .iter()
        .map(|&(_, route, threads)| {
            SharedSession::new(Arc::new(base.clone()), route_config(route, threads))
        })
        .collect();
    for session in &chains {
        session.certain(&q);
    }

    let mut current = base;
    for (i, step) in script.steps.iter().enumerate() {
        let step_seed =
            script.seed ^ ((i as u64) << 48) ^ u64::from(u16::from_le_bytes([step[0], step[1]]));
        let cfg = DeltaScriptConfig {
            ops: 1 + (step[0] % 6) as usize,
            insert_ratio: f64::from(step[2] % 4) / 4.0 + 0.25,
            locality: match step[2] % 3 {
                0 => DeltaLocality::SameBlock,
                1 => DeltaLocality::CrossComponent,
                _ => DeltaLocality::Mixed,
            },
            domain: 4,
        };
        let ops = cqa_workloads::random_delta_ops(step_seed, &current, &cfg);
        let text = mutate_script(&render_delta_script(&ops, key_len), step_seed, step[3]);
        // Keep ops as the fallback so an all-lines-deleted mutant still
        // advances the chain deterministically.
        let parsed = match parse_delta_script(&text) {
            Ok(s) => s,
            Err(_) => return Verdict::Reject,
        };
        if parsed.key_len.is_some_and(|kl| kl != key_len) {
            return Verdict::Reject;
        }
        let (inserts, retracts) = if parsed.is_empty() {
            split_delta_ops(&ops)
        } else {
            (parsed.inserts, parsed.retracts)
        };
        if current.apply_delta(&inserts, &retracts).is_err() {
            return Verdict::Reject;
        }
        if current.len() > MAX_FACTS {
            return Verdict::Reject;
        }

        let ground = match certain_brute_budgeted(&q, &current, BRUTE_BUDGET) {
            BruteOutcome::Certain => true,
            BruteOutcome::NotCertain(_) => false,
            BruteOutcome::BudgetExhausted => return Verdict::Reject,
        };

        let cold = cold_engines(stress);
        for (chain, (name, engine)) in chains.iter_mut().zip(cold) {
            let (next, _report) = match chain.with_delta(&inserts, &retracts) {
                Ok(pair) => pair,
                // apply_delta accepted the same delta above; the session
                // must too.
                Err(e) => {
                    return Verdict::Crash(format!(
                        "with_delta rejected a delta apply_delta accepted ({e}) on:\n{text}"
                    ))
                }
            };
            let warm = next.certain(&q);
            let recomputed = engine.certain(&current);
            if warm.certain != recomputed.certain {
                return Verdict::Crash(format!(
                    "route {name} step {i}: incremental says certain={} but recompute says {} on:\n{text}",
                    warm.certain, recomputed.certain
                ));
            }
            if warm.certain != ground {
                return Verdict::Crash(format!(
                    "route {name} step {i}: both paths say certain={} but brute force says {ground} on:\n{text}",
                    warm.certain
                ));
            }
            *chain = next;
        }
    }
    Verdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(family: u8, size: u8, steps: &[[u8; STEP_BYTES]]) -> Vec<u8> {
        let mut s = b"87654321".to_vec();
        s.push(family);
        s.push(size);
        for step in steps {
            s.extend_from_slice(step);
        }
        s
    }

    #[test]
    fn unmutated_steps_across_families_agree() {
        for family in 0..DELTA_FAMILIES {
            for shape in 0..3 {
                let input = script(
                    family,
                    4,
                    &[[7, 1, shape, 200], [3, 2, shape.wrapping_add(1), 200]],
                );
                if let Verdict::Crash(msg) = deltadiff(&input) {
                    panic!("family {family} shape {shape}: {msg}");
                }
            }
        }
    }

    #[test]
    fn mutated_steps_never_crash() {
        for family in 0..DELTA_FAMILIES {
            for op in 0..6 {
                let input = script(family, 3, &[[9, 0, 2, op], [1, 4, 1, op]]);
                if let Verdict::Crash(msg) = deltadiff(&input) {
                    panic!("family {family} op {op}: {msg}");
                }
            }
        }
    }

    #[test]
    fn short_inputs_reject() {
        assert_eq!(deltadiff(b"tiny"), Verdict::Reject);
        assert_eq!(deltadiff(b"exactly10!"), Verdict::Reject);
    }
}
