//! Concurrency stress tests for the sharded element interner.
//!
//! No loom here (vendored toolbox only): these tests hammer the real
//! interner from many OS threads with *overlapping* payloads, which is
//! exactly the race the shard's read-then-write upgrade must survive —
//! two threads missing the read probe for the same payload and both
//! queueing on the write lock; the double-check under the write lock must
//! make the second one return the first one's handle.

use cqa_model::{Elem, ElemData};
use std::collections::HashMap;
use std::thread;

const THREADS: usize = 8;
const NAMES: usize = 300;

/// Every thread interns the same names (shuffled phase per thread) — all
/// threads must agree on every handle, and payloads must round-trip.
#[test]
fn overlapping_named_interning_is_stable() {
    let per_thread: Vec<HashMap<String, Elem>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut mine = HashMap::new();
                    for i in 0..NAMES {
                        // Stagger the order per thread so collisions hit
                        // different names at different times.
                        let i = (i * 7 + t * 41) % NAMES;
                        let name = format!("stress-{i}");
                        mine.insert(name.clone(), Elem::named(name));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let reference = &per_thread[0];
    assert_eq!(reference.len(), NAMES);
    for (t, map) in per_thread.iter().enumerate() {
        assert_eq!(map.len(), NAMES, "thread {t} lost names");
        for (name, &e) in map {
            assert_eq!(
                reference[name], e,
                "thread {t} got a different handle for {name}"
            );
            assert_eq!(e.data(), ElemData::Named(name.clone()), "payload roundtrip");
        }
    }
    // Distinct names got distinct handles.
    let mut ids: Vec<u32> = reference.values().map(|e| e.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), NAMES);
}

/// Borrowed and owned names are one payload: threads interning the same
/// names, half of them from `&str` and half from `String`, get one handle
/// per name, and the payload round-trips.
#[test]
fn str_and_string_names_share_handles() {
    let names: Vec<String> = (0..NAMES).map(|i| format!("borrowed-{i}")).collect();
    let per_thread: Vec<Vec<Elem>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let names = &names;
                s.spawn(move || {
                    (0..NAMES)
                        .map(|i| {
                            let name = &names[(i * 7 + t * 41) % NAMES];
                            let e = if (i + t) % 2 == 0 {
                                Elem::named(name.as_str())
                            } else {
                                Elem::named(name.clone())
                            };
                            (name, e)
                        })
                        .collect::<HashMap<_, _>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let mine = h.join().unwrap();
                names.iter().map(|n| mine[n]).collect()
            })
            .collect()
    });
    for (t, handles) in per_thread.iter().enumerate() {
        assert_eq!(handles, &per_thread[0], "thread {t} disagrees");
    }
    for (name, &e) in names.iter().zip(&per_thread[0]) {
        assert_eq!(e, Elem::named(name));
        assert_eq!(e.data(), ElemData::Named(name.clone()), "payload roundtrip");
    }
    let mut ids: Vec<u32> = per_thread[0].iter().map(|e| e.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), NAMES);
}

/// Same race, deeper payloads: pairs built over shared leaves from every
/// thread, interleaved with re-interning the leaves.
#[test]
fn overlapping_pair_interning_is_stable() {
    let per_thread: Vec<Vec<Elem>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    (0..NAMES)
                        .map(|i| {
                            let i = (i + t * 13) % NAMES;
                            let leaf = Elem::named(format!("pair-leaf-{}", i % 17));
                            Elem::pair(leaf, Elem::int(i as i64))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Re-derive each pair single-threaded: interning is idempotent, so the
    // handles must match what the racing threads produced.
    for (t, pairs) in per_thread.iter().enumerate() {
        for (slot, &e) in pairs.iter().enumerate() {
            let i = (slot + t * 13) % NAMES;
            let expect = Elem::pair(
                Elem::named(format!("pair-leaf-{}", i % 17)),
                Elem::int(i as i64),
            );
            assert_eq!(e, expect, "thread {t} slot {slot}");
        }
    }
}

/// Concurrent `fresh()` + `data()` readers: reads must never observe a
/// torn store, and every fresh element stays unique.
#[test]
fn fresh_and_reads_do_not_interfere() {
    let all: Vec<Vec<Elem>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    (0..200)
                        .map(|_| {
                            let e = Elem::fresh();
                            assert!(matches!(e.data(), ElemData::Fresh(_)));
                            e
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let flat: Vec<Elem> = all.into_iter().flatten().collect();
    let unique: std::collections::HashSet<Elem> = flat.iter().copied().collect();
    assert_eq!(unique.len(), flat.len());
}
