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
//! Each payload is stored once, in its shard's table of 16-byte slots.
//! A name's slot is a byte range of the shard's name arena, one `Vec<u8>`
//! holding every name back to back, so interning a new name appends its
//! bytes and allocates nothing of its own, and re-interning a known one
//! (the common case when a fact file is loaded) allocates nothing:
//! [`Elem::named`] looks the name up as a borrowed `&str`. A shard finds
//! a payload's slot through the same id index the databases use: one
//! 8-byte word per slot, tagged with the top half of a keyed 64-bit hash
//! of the payload, and every tag hit is checked against the payload
//! itself. So a payload is hashed once per intern call, hit or miss, and
//! a growing index moves words without hashing any name again. Integer
//! and pair payloads sit in the slot; fresh elements are never looked up
//! by payload, so they have a slot and no index entry.
//!
//! ### Concurrency
//! The store is **sharded**: an element's payload hash picks one of
//! [`SHARDS`] independent `RwLock`-protected shards, and the handle
//! encodes the shard in its low bits. Interning the same payload always
//! lands on the same shard (and yields the same handle, no matter which
//! thread got there first), while payloads on different shards intern
//! with no lock interaction at all — concurrent fact construction does
//! not serialise on a single global lock. Within a shard, interning
//! takes a read lock first and only upgrades to a write lock on a miss,
//! so the steady state (mostly re-interning known elements) is
//! read-lock-only. Reading a payload copies it (a name into a new
//! `String`, or onto the stack when it is short and only rendered) and
//! releases the lock before the caller uses it, so
//! rendering a pair never holds one shard's lock while it takes
//! another's. The `&'static` store itself sits behind a `OnceLock`, so
//! reaching it is a lock-free atomic load after initialisation.

use crate::store::{shard_index, IdIndex, IndexHasher};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

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

/// A stored payload: [`ElemData`] with a name as its byte range in the
/// shard's `names` arena. Sixteen bytes, and `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Named { start: u32, end: u32 },
    Int(i64),
    Pair(Elem, Elem),
    Fresh(u64),
}

/// One shard: a local append-only payload store and the index from
/// payload hashes to its slots. Local slot `i` of shard `s` is the global
/// handle `i << SHARD_BITS | s`.
#[derive(Default)]
struct Shard {
    payloads: Payloads,
    /// Every slot has an id here; named, integer and pair slots are
    /// indexed by their payload hash.
    index: IdIndex,
}

/// A shard's slots, and the bytes of every name one after another.
#[derive(Default)]
struct Payloads {
    slots: Vec<Slot>,
    names: Vec<u8>,
}

impl Payloads {
    /// The name of a [`Slot::Named`] slot.
    fn name(&self, start: u32, end: u32) -> &[u8] {
        &self.names[start as usize..end as usize]
    }

    /// Whether local slot `i` holds exactly `payload`.
    fn holds(&self, i: u32, payload: Payload<'_>) -> bool {
        match (self.slots[i as usize], payload) {
            (Slot::Named { start, end }, Payload::Name(name)) => {
                self.name(start, end) == name.as_bytes()
            }
            (slot, Payload::Atom(atom)) => slot == atom,
            _ => false,
        }
    }

    /// Append `payload`'s slot, copying a name into the arena.
    fn push(&mut self, payload: Payload<'_>) {
        let slot = match payload {
            Payload::Name(name) => {
                let offset = |n: usize| {
                    u32::try_from(n).expect("element store exhausted (shard names over 4 GiB)")
                };
                let start = self.names.len();
                let slot = Slot::Named {
                    start: offset(start),
                    end: offset(start + name.len()),
                };
                self.names.extend_from_slice(name.as_bytes());
                slot
            }
            Payload::Atom(atom) => atom,
        };
        self.slots.push(slot);
    }
}

/// A payload to intern, borrowed: a name, or an [`Slot::Int`] or
/// [`Slot::Pair`] atom.
#[derive(Clone, Copy)]
enum Payload<'a> {
    Name(&'a str),
    Atom(Slot),
}

fn handle(local: u32, s: usize) -> Elem {
    assert!(
        local < 1 << (32 - SHARD_BITS),
        "element store exhausted (shard over 2^28 elements)"
    );
    Elem(local << SHARD_BITS | s as u32)
}

struct Store {
    shards: [RwLock<Shard>; SHARDS],
    hasher: IndexHasher,
}

impl Store {
    fn new(hasher: IndexHasher) -> Store {
        Store {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
            hasher,
        }
    }

    fn read(&self, s: usize) -> std::sync::RwLockReadGuard<'_, Shard> {
        self.shards[s].read().expect("interner lock poisoned")
    }

    fn write(&self, s: usize) -> std::sync::RwLockWriteGuard<'_, Shard> {
        self.shards[s].write().expect("interner lock poisoned")
    }

    /// The element holding `payload`, or else a new one.
    fn intern(&self, payload: Payload<'_>) -> Elem {
        let hash = match payload {
            Payload::Name(name) => self.hasher.hash(name),
            Payload::Atom(atom) => self.hasher.hash(&atom),
        };
        // The bits a shard map picks its shard by, which the shard's own
        // index reads only mixed with the rest of the tag.
        let s = shard_index(hash, SHARD_BITS);
        // Fast path: the payload is already interned (read lock only).
        {
            let shard = self.read(s);
            let found = shard.index.find(hash, |i| shard.payloads.holds(i, payload));
            if let Some(local) = found {
                return handle(local, s);
            }
        }
        // Slow path: look again under the write lock (another thread may
        // have interned the same payload between the two acquisitions).
        let mut shard = self.write(s);
        let Shard { payloads, index } = &mut *shard;
        let (local, new) = index.find_or_push(hash, |i| payloads.holds(i, payload));
        let e = handle(local, s);
        if new {
            payloads.push(payload);
        }
        debug_assert_eq!(payloads.slots.len(), index.ids(), "one slot per id");
        e
    }

    fn fresh(&self, n: u64) -> Elem {
        let s = n as usize & (SHARDS - 1);
        let mut shard = self.write(s);
        let e = handle(shard.index.push_unindexed(), s);
        shard.payloads.slots.push(Slot::Fresh(n));
        e
    }

    /// `e`'s payload, copied out under the shard's read lock, which is
    /// released on return: a name that fits `buf` into `buf`, any other
    /// name into a new `String`.
    fn copy<'b>(&self, e: Elem, buf: &'b mut [u8]) -> Copied<'b> {
        let shard = self.read((e.0 & (SHARDS as u32 - 1)) as usize);
        let payloads = &shard.payloads;
        Copied::Data(match payloads.slots[(e.0 >> SHARD_BITS) as usize] {
            Slot::Named { start, end } => {
                let name = payloads.name(start, end);
                if let Some(buf) = buf.get_mut(..name.len()) {
                    buf.copy_from_slice(name);
                    return Copied::Short(utf8(buf));
                }
                ElemData::Named(utf8(name).to_owned())
            }
            Slot::Int(v) => ElemData::Int(v),
            Slot::Pair(a, b) => ElemData::Pair(a, b),
            Slot::Fresh(n) => ElemData::Fresh(n),
        })
    }

    fn data(&self, e: Elem) -> ElemData {
        match self.copy(e, &mut []) {
            Copied::Short(name) => ElemData::Named(name.to_owned()),
            Copied::Data(data) => data,
        }
    }
}

/// A payload copied out of the store by [`Store::copy`].
enum Copied<'b> {
    /// A name, in the caller's buffer.
    Short(&'b str),
    Data(ElemData),
}

/// Names are stored from `&str`, so their bytes are UTF-8.
fn utf8(name: &[u8]) -> &str {
    std::str::from_utf8(name).expect("names are UTF-8")
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store::new(IndexHasher::default()))
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Elem {
    /// Intern a named constant. A known name is found with no allocation;
    /// a new one is appended to its shard's name arena.
    pub fn named(name: impl AsRef<str>) -> Elem {
        store().intern(Payload::Name(name.as_ref()))
    }

    /// Intern an integer constant.
    pub fn int(v: i64) -> Elem {
        store().intern(Payload::Atom(Slot::Int(v)))
    }

    /// Intern the ordered pair `⟨fst, snd⟩`.
    pub fn pair(fst: Elem, snd: Elem) -> Elem {
        store().intern(Payload::Atom(Slot::Pair(fst, snd)))
    }

    /// Create a fresh element distinct from every element created so far and
    /// from every element that will ever be created by other means.
    pub fn fresh() -> Elem {
        store().fresh(FRESH_COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// A clone of this element's payload (a new `String` for a name).
    pub fn data(self) -> ElemData {
        store().data(self)
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
        // The payload is a copy (a short name on the stack), so no lock
        // is held while it is written or a pair renders its parts: a read
        // lock taken again behind a waiting writer deadlocks.
        let mut buf = [0; 64];
        match store().copy(*self, &mut buf) {
            Copied::Short(name) => f.write_str(name),
            Copied::Data(ElemData::Named(name)) => f.write_str(&name),
            Copied::Data(ElemData::Int(v)) => write!(f, "{v}"),
            Copied::Data(ElemData::Pair(a, b)) => write!(f, "⟨{a},{b}⟩"),
            Copied::Data(ElemData::Fresh(n)) => write!(f, "_f{n}"),
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
    fn long_names_render_whole() {
        let long = "n".repeat(63) + "⟩";
        let e = Elem::named(&long);
        assert_eq!(e.to_string(), long);
        assert_eq!(e.data(), ElemData::Named(long.clone()));
        assert_eq!(Elem::named("").to_string(), "");
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

    #[test]
    fn one_collision_chain_keeps_payloads_apart() {
        // A private store whose index hashes every payload alike: all of
        // them share one shard, one tag and one probe run.
        let store = Store::new(IndexHasher::constant());
        let int = |v| Payload::Atom(Slot::Int(v));
        let names: Vec<String> = (0..300).map(|i| format!("n{i}")).collect();
        let named: Vec<Elem> = names
            .iter()
            .map(|n| store.intern(Payload::Name(n)))
            .collect();
        let ints: Vec<Elem> = (0..300).map(|i| store.intern(int(i))).collect();
        let fresh = store.fresh(7);
        let pair = Payload::Atom(Slot::Pair(named[0], ints[0]));
        let paired = store.intern(pair);
        let all: std::collections::HashSet<Elem> = named
            .iter()
            .chain(&ints)
            .chain([&fresh, &paired])
            .copied()
            .collect();
        assert_eq!(all.len(), 602, "distinct payloads get distinct handles");
        for (i, name) in names.iter().enumerate() {
            assert_eq!(store.intern(Payload::Name(name)), named[i]);
            assert_eq!(store.data(named[i]), ElemData::Named(name.clone()));
        }
        for i in 0..300 {
            assert_eq!(store.intern(int(i)), ints[i as usize]);
        }
        assert_eq!(store.intern(pair), paired);
        assert_eq!(store.data(fresh), ElemData::Fresh(7));
        // A name is a prefix of the next one in the arena; only its own
        // range matches.
        assert_ne!(
            store.intern(Payload::Name("n1")),
            store.intern(Payload::Name("n10"))
        );
        assert_eq!(
            store.intern(Payload::Name("")),
            store.intern(Payload::Name(""))
        );
    }

    #[test]
    fn slots_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }
}
