//! Deterministic seeded delta-script generation for the live-update
//! test layer.
//!
//! The incremental path (`Database::apply_delta` → per-component
//! re-solves of the dirty region → patched session verdicts) is proven
//! by *differential* testing: apply a delta incrementally, recompute
//! from scratch, demand identical verdicts. This module manufactures the
//! delta scripts — seeded, platform-independent insert/retract mixes
//! over a concrete base database — for the property tests, the
//! `deltadiff` fuzz target and the CI delta smoke.
//!
//! The central knob is **touch locality** ([`DeltaLocality`]): whether
//! operations land inside existing blocks (contesting resident keys —
//! the path where `Cert_k` is non-monotone), open fresh blocks and
//! components (growth-only deltas), or a seeded mix of both.
//!
//! Scripts render through [`cqa_model::render_fact_line`] — the same
//! single grammar the server's `update` verb and `cqa update` parse —
//! so a generated script is by construction one the front ends accept.

use cqa_model::{render_fact_line, Database, Elem, Fact};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Where generated operations land relative to the base database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaLocality {
    /// Inserts reuse resident block keys and retracts pick resident
    /// facts: every operation touches an existing block, so no delta is
    /// growth-only.
    SameBlock,
    /// Inserts mint fresh keys, so they open new blocks (and usually new
    /// components). With `insert_ratio = 1.0` every delta is
    /// growth-only.
    CrossComponent,
    /// Coin-flip between the two per operation.
    Mixed,
}

/// Knobs for the seeded delta-script generator.
#[derive(Clone, Copy, Debug)]
pub struct DeltaScriptConfig {
    /// Operations per script.
    pub ops: usize,
    /// Probability an operation is an insert (the rest retract).
    pub insert_ratio: f64,
    /// Where operations land (see [`DeltaLocality`]).
    pub locality: DeltaLocality,
    /// Domain size for generated non-key positions; small domains make
    /// re-inserting an existing fact (a set-semantic no-op) likelier,
    /// which is a case worth covering.
    pub domain: usize,
}

impl Default for DeltaScriptConfig {
    fn default() -> DeltaScriptConfig {
        DeltaScriptConfig {
            ops: 8,
            insert_ratio: 0.7,
            locality: DeltaLocality::Mixed,
            domain: 6,
        }
    }
}

/// One generated operation, in script order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert the fact (set semantics: a resident fact is a no-op).
    Insert(Fact),
    /// Retract the fact (an absent fact is a no-op).
    Retract(Fact),
}

/// Generate a seeded operation script against `db`. Same seed, config
/// and database → identical script on every platform. Returned facts
/// all carry `db`'s signature, so `Database::apply_delta` accepts them
/// by construction.
///
/// Retracts target *currently resident* facts (including facts inserted
/// earlier in the same script run, had they been applied — the
/// generator tracks no intermediate state, so a retract may also name a
/// fact an earlier op inserted into the base; both are legitimate
/// deltas). On an empty database retracts degrade to inserts.
pub fn random_delta_ops(seed: u64, db: &Database, cfg: &DeltaScriptConfig) -> Vec<DeltaOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sig = *db.signature();
    let resident: Vec<Fact> = db.facts().map(|(_, f)| f.to_fact()).collect();
    let dom = |rng: &mut StdRng, tag: &str, n: usize| {
        Elem::pair(Elem::named(tag), Elem::int(rng.gen_range(0..n) as i64))
    };
    let mut ops = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let same_block = match cfg.locality {
            DeltaLocality::SameBlock => true,
            DeltaLocality::CrossComponent => false,
            DeltaLocality::Mixed => rng.gen_bool(0.5),
        };
        let insert = resident.is_empty() || rng.gen_bool(cfg.insert_ratio);
        if !insert {
            // Retract a resident fact; same-block retracts prefer facts
            // from contested blocks when there are any, but plain
            // uniform choice keeps the generator simple and seeded.
            let f = resident[rng.gen_range(0..resident.len())].clone();
            ops.push(DeltaOp::Retract(f));
            continue;
        }
        let key: Vec<Elem> = if same_block && !resident.is_empty() {
            // Contest an existing block: reuse a resident fact's key.
            let f = &resident[rng.gen_range(0..resident.len())];
            f.key(&sig).to_vec()
        } else {
            // Fresh key: a new block, disjoint from the base domain
            // (the `i` component keeps scripted fresh keys distinct).
            (0..sig.key_len())
                .map(|p| {
                    Elem::pair(
                        Elem::named("fresh"),
                        Elem::pair(
                            Elem::int(i as i64 * 8 + p as i64),
                            Elem::int(rng.gen_range(0..1_000_000_000) as i64),
                        ),
                    )
                })
                .collect()
        };
        let mut tuple = key;
        tuple.extend((sig.key_len()..sig.arity()).map(|_| dom(&mut rng, "dom", cfg.domain)));
        ops.push(DeltaOp::Insert(Fact::r(tuple)));
    }
    ops
}

/// Split generated ops into the `(inserts, retracts)` slices
/// [`Database::apply_delta`] and `SharedSession::with_delta` take.
pub fn split_delta_ops(ops: &[DeltaOp]) -> (Vec<Fact>, Vec<Fact>) {
    let mut inserts = Vec::new();
    let mut retracts = Vec::new();
    for op in ops {
        match op {
            DeltaOp::Insert(f) => inserts.push(f.clone()),
            DeltaOp::Retract(f) => retracts.push(f.clone()),
        }
    }
    (inserts, retracts)
}

/// Render ops as a delta-script text (`+ R(a | b)` / `- R(a | b)`, one
/// per line) in the exact grammar `cqa update` and the server's
/// `update` method parse.
pub fn render_delta_script(ops: &[DeltaOp], key_len: usize) -> String {
    let mut out = String::new();
    for op in ops {
        let (sign, f) = match op {
            DeltaOp::Insert(f) => ('+', f),
            DeltaOp::Retract(f) => ('-', f),
        };
        out.push(sign);
        out.push(' ');
        out.push_str(&render_fact_line(f, key_len));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q3_escape_db;

    fn base() -> Database {
        q3_escape_db(6)
    }

    #[test]
    fn same_seed_same_script() {
        let db = base();
        for locality in [
            DeltaLocality::SameBlock,
            DeltaLocality::CrossComponent,
            DeltaLocality::Mixed,
        ] {
            let cfg = DeltaScriptConfig {
                ops: 12,
                locality,
                ..DeltaScriptConfig::default()
            };
            let a = random_delta_ops(42, &db, &cfg);
            let b = random_delta_ops(42, &db, &cfg);
            assert_eq!(a, b, "{locality:?}");
            let c = random_delta_ops(43, &db, &cfg);
            assert_ne!(a, c, "different seeds must diverge ({locality:?})");
            assert_eq!(a.len(), 12);
        }
    }

    #[test]
    fn locality_controls_block_touch() {
        let db = base();
        let sig = *db.signature();
        let cfg = DeltaScriptConfig {
            ops: 20,
            insert_ratio: 1.0,
            locality: DeltaLocality::SameBlock,
            domain: 4,
        };
        for op in random_delta_ops(7, &db, &cfg) {
            let DeltaOp::Insert(f) = op else {
                panic!("insert_ratio 1.0 yields only inserts")
            };
            // Every insert contests a resident block.
            assert!(
                db.facts().any(|(_, g)| g.key_equal(&f, &sig)),
                "{f} should reuse a resident key"
            );
        }
        let cfg = DeltaScriptConfig {
            locality: DeltaLocality::CrossComponent,
            ..cfg
        };
        for op in random_delta_ops(7, &db, &cfg) {
            let DeltaOp::Insert(f) = op else {
                panic!("insert_ratio 1.0 yields only inserts")
            };
            assert!(
                db.facts().all(|(_, g)| !g.key_equal(&f, &sig)),
                "{f} should open a fresh block"
            );
        }
    }

    #[test]
    fn growth_only_scripts_report_growth_only() {
        let mut db = base();
        let cfg = DeltaScriptConfig {
            ops: 10,
            insert_ratio: 1.0,
            locality: DeltaLocality::CrossComponent,
            domain: 4,
        };
        let (inserts, retracts) = split_delta_ops(&random_delta_ops(5, &db, &cfg));
        assert!(retracts.is_empty());
        let report = db.apply_delta(&inserts, &retracts).unwrap();
        assert!(report.growth_only());
        assert_eq!(report.inserted.len(), 10);
    }

    #[test]
    fn rendered_scripts_round_trip_through_the_parser() {
        // The text grammar interns every atom as a *named* element, so
        // parse is not the identity on generated ops (which carry
        // `Elem::int` leaves); the pinned fixpoint is render ∘ parse on
        // the rendered text, the same guarantee the fact-file format
        // gives.
        let db = base();
        let key_len = db.signature().key_len();
        let ops = random_delta_ops(11, &db, &DeltaScriptConfig::default());
        let text = render_delta_script(&ops, key_len);
        let mut parsed = Vec::new();
        for line in text.lines() {
            let (sign, rest) = line.split_at(1);
            let (fact, kl) = cqa_model::parse_fact_line(rest.trim()).unwrap();
            assert_eq!(kl, key_len);
            parsed.push(match sign {
                "+" => DeltaOp::Insert(fact),
                "-" => DeltaOp::Retract(fact),
                other => panic!("bad sign {other:?}"),
            });
        }
        assert_eq!(parsed.len(), ops.len());
        assert_eq!(render_delta_script(&parsed, key_len), text);
    }

    #[test]
    fn retracts_name_resident_facts() {
        let db = base();
        let cfg = DeltaScriptConfig {
            ops: 30,
            insert_ratio: 0.0,
            locality: DeltaLocality::Mixed,
            domain: 4,
        };
        let (inserts, retracts) = split_delta_ops(&random_delta_ops(3, &db, &cfg));
        assert!(inserts.is_empty());
        assert_eq!(retracts.len(), 30);
        for f in &retracts {
            assert!(db.contains(f), "{f} must be resident");
        }
        // On an empty database retracts degrade to inserts.
        let empty = Database::new(*db.signature());
        let (inserts, retracts) = split_delta_ops(&random_delta_ops(3, &empty, &cfg));
        assert_eq!(inserts.len(), 30);
        assert!(retracts.is_empty());
    }
}
