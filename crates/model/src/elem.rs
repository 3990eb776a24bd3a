//! Interned domain elements.
//!
//! The paper works over an abstract infinite domain. The constructions it
//! performs on that domain are not purely atomic, however: the reduction of
//! Proposition 4.1 builds elements that are *pairs* `⟨z, α⟩` of a query
//! variable and an element, and the coNP-hardness gadget of Section 9 builds
//! elements annotated by clauses and literals (e.g. `⟨C, l⟩x`). We therefore
//! realise the domain as a term algebra with four constructors:
//!
//! * [`ElemData::Named`] — a user-visible symbolic constant (`"a"`, `"C1"`),
//! * [`ElemData::Int`] — a numeric constant (workload generators),
//! * [`ElemData::Pair`] — an ordered pair of elements (reductions),
//! * [`ElemData::Fresh`] — a gensym guaranteed distinct from everything else
//!   (tripath arms, block padding facts).
//!
//! Elements are interned: an [`Elem`] is a `u32` handle into a global
//! append-only store, so equality is an integer comparison and facts are
//! compact. The store is never cleared — element identity is stable across
//! all databases of a process, which is exactly what the reductions need
//! when they transport facts from one database into another.
//!
//! ### Storage
//! Each payload is stored once. A name lives in one `Arc<str>`, shared by
//! the handle's slot and the name index, so interning a new name costs
//! one allocation and re-interning a known one (the common case when a
//! fact file is loaded) costs none: [`Elem::named`] looks the name up as
//! a borrowed `&str`. Integer and pair payloads are a few bytes inline;
//! fresh elements are never looked up by payload, so they have a slot
//! and no index entry.
//!
//! ### Concurrency
//! The store is **sharded**: an element's payload picks one of
//! [`SHARDS`] independent `RwLock`-protected shards through the unkeyed
//! multiply-rotate hash the copy-on-write maps use, and the handle
//! encodes the shard in its low bits. Interning the same payload always
//! lands on the same shard (and yields the same handle, no matter which
//! thread got there first), while payloads on different shards intern
//! with no lock interaction at all — concurrent fact construction does
//! not serialise on a single global lock. Within a shard, interning
//! takes a read lock first and only upgrades to a write lock on a miss,
//! so the steady state (mostly re-interning known elements) is
//! read-lock-only. Reading a payload clones its slot (for a name, an
//! `Arc` count increment) and releases the lock before the caller uses
//! it, so rendering a pair never holds one shard's lock while it takes
//! another's. The `&'static` store itself sits behind a `OnceLock`, so
//! reaching it is a lock-free atomic load after initialisation.

use crate::store::shard_index;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// An interned domain element. Cheap to copy and compare; the payload lives
/// in the global store and can be recovered with [`Elem::data`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Elem(u32);

/// The payload of an element.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ElemData {
    /// A named constant, e.g. `a`, `b`, `C1`.
    Named(String),
    /// An integer constant.
    Int(i64),
    /// An ordered pair `⟨fst, snd⟩` of elements.
    Pair(Elem, Elem),
    /// A gensym; the `u64` is a process-unique counter value.
    Fresh(u64),
}

/// Number of interner shards (a power of two; the shard index lives in the
/// low [`SHARD_BITS`] bits of an [`Elem`] handle).
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// A stored payload: [`ElemData`] with the name behind the `Arc` that the
/// shard's name index shares.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Slot {
    Named(Arc<str>),
    Int(i64),
    Pair(Elem, Elem),
    Fresh(u64),
}

/// One shard: a local append-only payload store plus its reverse indexes.
/// Local slot `i` of shard `s` is the global handle `i << SHARD_BITS | s`.
#[derive(Default)]
struct Shard {
    slots: Vec<Slot>,
    /// Names, keyed by the very `Arc` their slot holds.
    names: HashMap<Arc<str>, u32>,
    /// Integer and pair payloads.
    atoms: HashMap<Slot, u32>,
}

impl Shard {
    /// Append `slot` and return its global handle.
    fn push(&mut self, s: usize, slot: Slot) -> Elem {
        let local = u32::try_from(self.slots.len())
            .ok()
            .filter(|&l| l < 1 << (32 - SHARD_BITS))
            .expect("element store exhausted (shard over 2^28 elements)");
        self.slots.push(slot);
        handle(local, s)
    }
}

fn handle(local: u32, s: usize) -> Elem {
    Elem(local << SHARD_BITS | s as u32)
}

struct Store {
    shards: [RwLock<Shard>; SHARDS],
}

impl Store {
    fn new() -> Store {
        Store {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
        }
    }

    fn read(&self, s: usize) -> std::sync::RwLockReadGuard<'_, Shard> {
        self.shards[s].read().expect("interner lock poisoned")
    }

    fn write(&self, s: usize) -> std::sync::RwLockWriteGuard<'_, Shard> {
        self.shards[s].write().expect("interner lock poisoned")
    }

    fn intern_name(&self, name: &str) -> Elem {
        let s = shard_index(name, SHARD_BITS);
        // Fast path: the name is already interned (read lock only).
        if let Some(&local) = self.read(s).names.get(name) {
            return handle(local, s);
        }
        // Slow path: re-check under the write lock (another thread may have
        // interned the same name between the two lock acquisitions).
        let mut shard = self.write(s);
        if let Some(&local) = shard.names.get(name) {
            return handle(local, s);
        }
        let name: Arc<str> = Arc::from(name);
        let e = shard.push(s, Slot::Named(Arc::clone(&name)));
        shard.names.insert(name, e.0 >> SHARD_BITS);
        e
    }

    /// Intern an [`Slot::Int`] or [`Slot::Pair`] payload.
    fn intern_atom(&self, atom: Slot) -> Elem {
        let s = shard_index(&atom, SHARD_BITS);
        if let Some(&local) = self.read(s).atoms.get(&atom) {
            return handle(local, s);
        }
        let mut shard = self.write(s);
        if let Some(&local) = shard.atoms.get(&atom) {
            return handle(local, s);
        }
        let e = shard.push(s, atom.clone());
        shard.atoms.insert(atom, e.0 >> SHARD_BITS);
        e
    }

    fn fresh(&self, n: u64) -> Elem {
        let s = n as usize & (SHARDS - 1);
        self.write(s).push(s, Slot::Fresh(n))
    }

    /// A clone of `e`'s slot, taken under the shard's read lock, which is
    /// released on return.
    fn slot(&self, e: Elem) -> Slot {
        self.read((e.0 & (SHARDS as u32 - 1)) as usize).slots[(e.0 >> SHARD_BITS) as usize].clone()
    }
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(Store::new)
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Elem {
    /// Intern a named constant. Allocates only when the name is new.
    pub fn named(name: impl AsRef<str>) -> Elem {
        store().intern_name(name.as_ref())
    }

    /// Intern an integer constant.
    pub fn int(v: i64) -> Elem {
        store().intern_atom(Slot::Int(v))
    }

    /// Intern the ordered pair `⟨fst, snd⟩`.
    pub fn pair(fst: Elem, snd: Elem) -> Elem {
        store().intern_atom(Slot::Pair(fst, snd))
    }

    /// Create a fresh element distinct from every element created so far and
    /// from every element that will ever be created by other means.
    pub fn fresh() -> Elem {
        store().fresh(FRESH_COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// A clone of this element's payload (a new `String` for a name).
    pub fn data(self) -> ElemData {
        match store().slot(self) {
            Slot::Named(s) => ElemData::Named(s.to_string()),
            Slot::Int(v) => ElemData::Int(v),
            Slot::Pair(a, b) => ElemData::Pair(a, b),
            Slot::Fresh(n) => ElemData::Fresh(n),
        }
    }

    /// The raw interner handle. Only meaningful within one process. The low
    /// bits carry the store shard, so handles are unique but **not dense**:
    /// do not use them as array indices.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Build a left-nested tuple `⟨⟨…⟨e1,e2⟩…⟩,en⟩` out of two or more
    /// elements. Handy for the Section 9 annotations like `⟨C, C2, l⟩`.
    ///
    /// # Panics
    /// Panics if `parts` has fewer than two elements.
    pub fn tuple(parts: &[Elem]) -> Elem {
        assert!(parts.len() >= 2, "Elem::tuple needs at least two parts");
        let mut acc = Elem::pair(parts[0], parts[1]);
        for &p in &parts[2..] {
            acc = Elem::pair(acc, p);
        }
        acc
    }
}

impl fmt::Debug for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The slot is a clone, so no lock is held while a pair renders its
        // parts: a read lock taken again behind a waiting writer deadlocks.
        match store().slot(*self) {
            Slot::Named(s) => f.write_str(&s),
            Slot::Int(v) => write!(f, "{v}"),
            Slot::Pair(a, b) => write!(f, "⟨{a},{b}⟩"),
            Slot::Fresh(n) => write!(f, "_f{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_elements_are_interned() {
        let a1 = Elem::named("a");
        let a2 = Elem::named("a");
        let b = Elem::named("b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.data(), ElemData::Named("a".to_string()));
    }

    #[test]
    fn ints_and_names_do_not_collide() {
        let one = Elem::int(1);
        let one_name = Elem::named("1");
        assert_ne!(one, one_name);
    }

    #[test]
    fn pairs_are_structural() {
        let a = Elem::named("a");
        let b = Elem::named("b");
        let p1 = Elem::pair(a, b);
        let p2 = Elem::pair(a, b);
        let p3 = Elem::pair(b, a);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_eq!(p1.data(), ElemData::Pair(a, b));
    }

    #[test]
    fn nested_pairs() {
        let a = Elem::named("a");
        let b = Elem::named("b");
        let c = Elem::named("c");
        let t = Elem::tuple(&[a, b, c]);
        assert_eq!(t, Elem::pair(Elem::pair(a, b), c));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tuple_rejects_singletons() {
        let _ = Elem::tuple(&[Elem::named("a")]);
    }

    #[test]
    fn fresh_elements_are_distinct() {
        let f1 = Elem::fresh();
        let f2 = Elem::fresh();
        assert_ne!(f1, f2);
        let named = Elem::named("_f0");
        assert_ne!(f1, named);
    }

    #[test]
    fn display_forms() {
        let a = Elem::named("a");
        let p = Elem::pair(a, Elem::int(3));
        assert_eq!(format!("{p}"), "⟨a,3⟩");
    }

    #[test]
    fn fresh_from_many_threads_stay_distinct() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..100).map(|_| Elem::fresh()).collect::<Vec<_>>()))
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let unique: std::collections::HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
