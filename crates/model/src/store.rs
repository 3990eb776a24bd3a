//! Copy-on-write storage behind [`Database`](crate::Database): chunked
//! columns and hash-sharded maps whose pieces sit behind [`Arc`], and the
//! id indexes built from them.
//!
//! A live update derives a successor database from its predecessor and
//! keeps both (in-flight readers still hold the old one). Cloning either
//! structure here copies its table of piece pointers (and a column's
//! short unsealed tail), not the pieces; every write to a piece copies
//! that one piece first when another version still shares it. So a clone
//! followed by a delta costs the pointer tables plus the pieces the delta
//! wrote, and dropping the predecessor frees only the pieces no other
//! version holds.
//!
//! An [`IdIndex`] finds a dense id (a fact, a block, an interned element)
//! by a keyed 64-bit hash of what the id names. The index stores only
//! integers: the hash and the id at the head of that hash's chain, plus
//! one next link per id for the rare ids whose different payloads share
//! a hash. The caller checks every candidate against its own column, so
//! a hit is exact, and a map that grows moves integers without hashing
//! any payload again.

use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

/// log2 of [`CHUNK`].
const CHUNK_BITS: u32 = 8;

/// Rows per [`ChunkVec`] chunk. Small enough that copying one chunk on a
/// write is a few microseconds; large enough that the pointer table of a
/// 10⁶-row column is ~4 000 pointers.
const CHUNK: usize = 1 << CHUNK_BITS;

/// A column of fixed-width rows stored as full `CHUNK`-row chunks behind
/// [`Arc`] plus an owned tail of fewer than `CHUNK` rows. A row is
/// `width` consecutive values (one for a plain column), and no row
/// straddles two chunks. Appends go to the tail with no atomic
/// operation; a tail that fills up is sealed into a shared chunk.
/// Reading a sealed row is two loads. [`Clone`] copies the chunk
/// pointers and the tail, never the sealed rows.
#[derive(Clone, Debug)]
pub(crate) struct ChunkVec<T> {
    chunks: Vec<Arc<[T]>>,
    tail: Vec<T>,
    width: usize,
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec::with_width(1)
    }
}

impl<T> ChunkVec<T> {
    /// An empty column whose rows hold `width` values each.
    pub(crate) fn with_width(width: usize) -> Self {
        assert!(width > 0, "a row holds at least one value");
        ChunkVec {
            chunks: Vec::new(),
            tail: Vec::new(),
            width,
        }
    }

    /// Rows in the column.
    pub(crate) fn len(&self) -> usize {
        (self.chunks.len() << CHUNK_BITS) + self.tail.len() / self.width
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        let (chunk, at) = (i >> CHUNK_BITS, (i & (CHUNK - 1)) * self.width);
        match self.chunks.get(chunk) {
            Some(chunk) => &chunk[at..at + self.width],
            // Offset into the tail, not `i % CHUNK`: a row past the tail
            // must panic like a `Vec`'s index, not alias a tail row.
            None => {
                let at = (i - (self.chunks.len() << CHUNK_BITS)) * self.width;
                &self.tail[at..at + self.width]
            }
        }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        (i < self.len()).then(|| &self[i])
    }

    /// The rows as consecutive slices of whole rows: each sealed chunk,
    /// then the tail. Loops that zip two columns zip these slice by
    /// slice, which compiles to far tighter code than zipping two
    /// flattened iterators.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.chunks
            .iter()
            .map(|c| &c[..])
            .chain(std::iter::once(&self.tail[..]))
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.slices().flatten()
    }

    /// How many of this column's sealed chunks are the very allocations
    /// of `other`'s chunk at the same position.
    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &ChunkVec<T>) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Sealed chunks plus the tail.
    #[cfg(test)]
    pub(crate) fn pieces(&self) -> usize {
        self.chunks.len() + 1
    }
}

impl<T: Clone> ChunkVec<T> {
    /// Append one row of exactly `width` values.
    pub(crate) fn push_row(&mut self, row: &[T]) {
        debug_assert_eq!(row.len(), self.width, "row width");
        if self.tail.capacity() == 0 {
            self.tail.reserve_exact(CHUNK * self.width);
        }
        self.tail.extend_from_slice(row);
        if self.tail.len() == CHUNK * self.width {
            self.chunks.push(std::mem::take(&mut self.tail).into());
        }
    }

    /// Append one value to a one-wide column.
    pub(crate) fn push(&mut self, value: T) {
        self.push_row(std::slice::from_ref(&value));
    }

    /// Mutable access to row `i`, copying its chunk first if another
    /// version shares it.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        let (chunk, at) = (i >> CHUNK_BITS, (i & (CHUNK - 1)) * self.width);
        let sealed = self.chunks.len() << CHUNK_BITS;
        match self.chunks.get_mut(chunk) {
            Some(shared) => {
                if Arc::get_mut(shared).is_none() {
                    *shared = Arc::from(&shared[..]);
                }
                let owned = Arc::get_mut(shared).expect("a fresh copy is unshared");
                &mut owned[at..at + self.width]
            }
            None => {
                let at = (i - sealed) * self.width;
                &mut self.tail[at..at + self.width]
            }
        }
    }

    /// Mutable access to entry `i` of a one-wide column.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.row_mut(i)[0]
    }
}

/// Entry `i` of a one-wide column (the first value of row `i`).
impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.chunks.get(i >> CHUNK_BITS) {
            Some(chunk) => &chunk[(i & (CHUNK - 1)) * self.width],
            None => &self.tail[(i - (self.chunks.len() << CHUNK_BITS)) * self.width],
        }
    }
}

/// Size above which a shared shard is split rather than copied whole.
const SHARD_MAX: usize = 512;

/// Hashes a `u64` key to itself: every [`ShardMap`] key is already the
/// output of a keyed hash (or a multiplicative spread of an id).
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard map keys are u64 hashes");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Shard<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// A map from 64-bit hashes to values, split into `2^bits` shards behind
/// [`Arc`]. Keys are hashed to themselves: the shard is picked by key
/// bits 32 and up, which neither a shard's bucket choice (the low bits)
/// nor its control bytes (the top seven) read, so shards stay balanced
/// and their probes stay short.
///
/// A map nobody shares stays one shard however large it grows, so a
/// bulk load costs what a plain `HashMap` costs. Splitting waits for the
/// first write that would copy a shared shard of more than `SHARD_MAX`
/// entries: that write re-shards the whole map (once, O(n)) so shards
/// average `SHARD_MAX / 4` entries, and every later copy-on-write copies
/// one shard of that size. A shard only outgrows `SHARD_MAX` again after
/// the map roughly quadruples, so re-sharding is amortised O(1) per
/// insertion, like a `Vec`'s growth.
#[derive(Clone, Debug)]
pub(crate) struct ShardMap<V> {
    shards: Vec<Arc<Shard<V>>>,
    bits: u32,
    len: usize,
}

impl<V> Default for ShardMap<V> {
    fn default() -> Self {
        ShardMap {
            shards: vec![Arc::default()],
            bits: 0,
            len: 0,
        }
    }
}

/// What [`ShardMap::edit`] does with a key's entry.
enum Edit<V> {
    /// Leave the map as it was.
    Keep,
    /// Store this value under the key.
    Set(V),
    /// Remove the key.
    Remove,
}

impl<V: Clone> ShardMap<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.shards[shard_index(key, self.bits)].get(&key)
    }

    /// Probe `key` once and apply the [`Edit`] that `decide` returns for
    /// its current value. A shard this version alone holds is probed once
    /// through its `entry`; a shared one is read first, so an edit that
    /// keeps the map as it was never copies it.
    fn edit(&mut self, key: u64, decide: impl FnOnce(Option<&V>) -> Edit<V>) {
        let s = shard_index(key, self.bits);
        match Arc::get_mut(&mut self.shards[s]) {
            Some(shard) => match shard.entry(key) {
                Entry::Occupied(mut e) => match decide(Some(e.get())) {
                    Edit::Keep => {}
                    Edit::Set(v) => *e.get_mut() = v,
                    Edit::Remove => {
                        e.remove();
                        self.len -= 1;
                    }
                },
                Entry::Vacant(e) => {
                    if let Edit::Set(v) = decide(None) {
                        e.insert(v);
                        self.len += 1;
                    }
                }
            },
            None => match decide(self.shards[s].get(&key)) {
                Edit::Keep => {}
                Edit::Set(v) => self.insert(key, v),
                Edit::Remove => {
                    self.remove(key);
                }
            },
        }
    }

    /// Insert or overwrite, copying the key's shard first if another
    /// version shares it.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if Arc::make_mut(self.writable_shard(key))
            .insert(key, value)
            .is_none()
        {
            self.len += 1;
        }
    }

    /// The value of `key` for writing, copying its shard first if another
    /// version shares it.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.get(key)?;
        Arc::make_mut(self.writable_shard(key)).get_mut(&key)
    }

    /// Remove `key`; a shard without the key is left shared.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        self.get(key)?;
        self.len -= 1;
        Arc::make_mut(self.writable_shard(key)).remove(&key)
    }

    /// The shard `key` belongs in, after re-sharding if that shard is
    /// shared and too large to copy whole. A shard that is large only
    /// because the keys skew towards it (the shards are small on
    /// average) is copied instead: re-sharding would not shrink it.
    fn writable_shard(&mut self, key: u64) -> &mut Arc<Shard<V>> {
        let shard = &self.shards[shard_index(key, self.bits)];
        if shard.len() > SHARD_MAX
            && Arc::strong_count(shard) > 1
            && self.len >> self.bits > SHARD_MAX / 4
        {
            self.reshard();
        }
        &mut self.shards[shard_index(key, self.bits)]
    }

    /// Split into enough shards that each holds about `SHARD_MAX / 4`
    /// entries, moving the entries of shards this version alone holds
    /// and cloning the rest.
    fn reshard(&mut self) {
        let mut bits = self.bits;
        while self.len >> bits > SHARD_MAX / 4 {
            bits += 1;
        }
        let mut shards: Vec<Shard<V>> = (0..1usize << bits)
            .map(|_| Shard::with_capacity_and_hasher(self.len >> bits, Default::default()))
            .collect();
        for shard in std::mem::take(&mut self.shards) {
            match Arc::try_unwrap(shard) {
                Ok(owned) => {
                    for (k, v) in owned {
                        shards[shard_index(k, bits)].insert(k, v);
                    }
                }
                Err(shared) => {
                    for (&k, v) in shared.iter() {
                        shards[shard_index(k, bits)].insert(k, v.clone());
                    }
                }
            }
        }
        self.shards = shards.into_iter().map(Arc::new).collect();
        self.bits = bits;
    }

    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &ShardMap<V>) -> usize {
        self.shards
            .iter()
            .zip(&other.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    #[cfg(test)]
    pub(crate) fn pieces(&self) -> usize {
        self.shards.len()
    }
}

/// The shard of `key` among `2^bits`: key bits `32..32 + bits`.
pub(crate) fn shard_index(key: u64, bits: u32) -> usize {
    ((key >> 32) & ((1 << bits) - 1)) as usize
}

/// Keyed 64-bit hashes for [`IdIndex`] keys. Each database (and the
/// element store) draws its own keys, and a clone of a database keeps
/// them, because its indexes hold hashes made with them.
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexHasher {
    keys: RandomState,
    /// Test-only: every value hashes to one constant, so every id of an
    /// index sits on one collision chain.
    #[cfg(test)]
    constant: bool,
}

impl IndexHasher {
    pub(crate) fn hash<T: Hash + ?Sized>(&self, value: &T) -> u64 {
        #[cfg(test)]
        if self.constant {
            return 0x0123_4567_89ab_cdef;
        }
        self.keys.hash_one(value)
    }

    /// A hasher under which every value collides.
    #[cfg(test)]
    pub(crate) fn constant() -> IndexHasher {
        IndexHasher {
            keys: RandomState::new(),
            constant: true,
        }
    }
}

/// The end of a collision chain in [`IdIndex::next`]; never an id.
const END: u32 = u32::MAX;

/// Dense ids `0, 1, 2, …` found by a 64-bit hash of what each id names.
///
/// `heads` maps a hash to the last id pushed under it, and `next` links
/// each id to the one pushed under the same hash before it, so ids whose
/// payloads share a hash form one chain and every lookup takes the same
/// path: one probe, then candidates until the caller's check accepts
/// one. With keyed 64-bit hashes a chain holds one id outside
/// adversarial tests. Both parts are copy-on-write.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdIndex {
    heads: ShardMap<u32>,
    next: ChunkVec<u32>,
}

impl IdIndex {
    /// Ids handed out so far, indexed or not.
    pub(crate) fn ids(&self) -> usize {
        self.next.len()
    }

    /// The first id on `hash`'s chain that `is` accepts.
    pub(crate) fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        chain(&self.next, self.heads.get(hash).copied()).find(|&id| is(id))
    }

    /// The id on `hash`'s chain that `is` accepts and `false`, or else a
    /// new id (the next one, [`IdIndex::ids`]) pushed at the head of the
    /// chain and `true`. One probe of the map either way.
    ///
    /// # Panics
    /// Panics when the id space is exhausted.
    pub(crate) fn find_or_push(
        &mut self,
        hash: u64,
        mut is: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        let id = self.fresh_id();
        let next = &mut self.next;
        let mut found = None;
        self.heads.edit(hash, |head| {
            let head = head.copied();
            found = chain(next, head).find(|&c| is(c));
            if found.is_some() {
                return Edit::Keep;
            }
            next.push(head.unwrap_or(END));
            Edit::Set(id)
        });
        match found {
            Some(old) => (old, false),
            None => (id, true),
        }
    }

    /// A new id that no hash leads to.
    pub(crate) fn push_unindexed(&mut self) -> u32 {
        let id = self.fresh_id();
        self.next.push(END);
        id
    }

    /// Unlink and return the id on `hash`'s chain that `is` accepts. One
    /// probe of the map; the id itself stays handed out.
    pub(crate) fn take(&mut self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let next = &mut self.next;
        let mut taken = None;
        self.heads.edit(hash, |head| {
            let Some(&head) = head else {
                return Edit::Keep;
            };
            if is(head) {
                taken = Some(head);
                return match next[head as usize] {
                    END => Edit::Remove,
                    after => Edit::Set(after),
                };
            }
            let mut prev = head;
            loop {
                let id = next[prev as usize];
                if id == END {
                    break;
                }
                if is(id) {
                    taken = Some(id);
                    let after = next[id as usize];
                    *next.get_mut(prev as usize) = after;
                    break;
                }
                prev = id;
            }
            Edit::Keep
        });
        taken
    }

    fn fresh_id(&self) -> u32 {
        u32::try_from(self.ids())
            .ok()
            .filter(|&id| id != END)
            .expect("id space exhausted (2^32 - 1 ids)")
    }

    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &IdIndex) -> usize {
        self.heads.shared_with(&other.heads) + self.next.shared_with(&other.next)
    }

    #[cfg(test)]
    pub(crate) fn pieces(&self) -> usize {
        self.heads.pieces() + self.next.pieces()
    }
}

/// The ids of the chain starting at `head`.
fn chain(next: &ChunkVec<u32>, head: Option<u32>) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors(head, |&id| Some(next[id as usize]).filter(|&n| n != END))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_vec_indexes_across_chunks() {
        let mut v = ChunkVec::default();
        for i in 0..3 * CHUNK + 7 {
            v.push(i);
        }
        assert_eq!(v.len(), 3 * CHUNK + 7);
        assert_eq!(v[CHUNK], CHUNK);
        assert_eq!(v.get(3 * CHUNK + 6), Some(&(3 * CHUNK + 6)));
        assert_eq!(v.get(3 * CHUNK + 7), None);
        assert_eq!(v.get(5 * CHUNK + 1), None);
        assert!(v.iter().copied().eq(0..3 * CHUNK + 7));
    }

    #[test]
    #[should_panic]
    fn chunk_vec_index_past_the_end_panics() {
        let mut v = ChunkVec::default();
        for i in 0..CHUNK + 3 {
            v.push(i);
        }
        let _ = v[3 * CHUNK + 1];
    }

    #[test]
    fn chunk_vec_writes_copy_only_their_chunk() {
        let mut a = ChunkVec::default();
        for i in 0..4 * CHUNK {
            a.push(i);
        }
        let mut b = a.clone();
        *b.get_mut(CHUNK + 1) = 0;
        b.push(99);
        assert_eq!(a[CHUNK + 1], CHUNK + 1, "the original is untouched");
        assert_eq!(b[CHUNK + 1], 0);
        assert_eq!(a.len(), 4 * CHUNK);
        assert_eq!(b.len(), 4 * CHUNK + 1);
        // Sealed chunks 0, 2 and 3 are still shared.
        assert_eq!(b.shared_with(&a), 3);
        assert_eq!(b.pieces(), 5);
    }

    #[test]
    fn chunk_vec_rows_never_straddle_chunks() {
        let mut v = ChunkVec::with_width(3);
        for i in 0..2 * CHUNK + 5 {
            v.push_row(&[i, i + 1, i + 2]);
        }
        assert_eq!(v.len(), 2 * CHUNK + 5);
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 4] {
            assert_eq!(v.row(i), &[i, i + 1, i + 2]);
        }
        assert!(v.slices().all(|s| s.len() % 3 == 0));
        let mut w = v.clone();
        w.row_mut(CHUNK)[2] = 0;
        assert_eq!((v.row(CHUNK)[2], w.row(CHUNK)[2]), (CHUNK + 2, 0));
        assert_eq!(w.shared_with(&v), 1);
    }

    #[test]
    fn shard_map_splits_on_the_first_shared_write() {
        let mut a = ShardMap::default();
        let n = 20 * SHARD_MAX as u64;
        for i in 0..n {
            a.insert(spread(i), i * 2);
        }
        assert_eq!(a.pieces(), 1, "an unshared map stays one shard");
        let mut b = a.clone();
        b.insert(spread(n), 0);
        assert!(b.pieces() > 1, "a shared write to a large shard splits it");
        assert_eq!(a.pieces(), 1, "the original keeps its own shard");
        for i in 0..n {
            assert_eq!(a.get(spread(i)), Some(&(i * 2)));
            assert_eq!(b.get(spread(i)), Some(&(i * 2)));
        }
        assert_eq!(a.get(spread(n)), None);
        assert_eq!(b.remove(spread(3)), Some(6));
        assert_eq!(b.remove(spread(3)), None);
        assert!(b.get(spread(3)).is_none());
        assert!(a.get(spread(3)).is_some());
        assert_eq!((a.len, b.len), (n as usize, n as usize));
    }

    #[test]
    fn edit_copies_a_shared_shard_only_when_it_writes() {
        let mut a = ShardMap::default();
        a.edit(1, |v| {
            assert_eq!(v, None);
            Edit::Set(10)
        });
        a.edit(1, |v| {
            assert_eq!(v, Some(&10));
            Edit::Keep
        });
        let mut b = a.clone();
        b.edit(1, |_| Edit::Keep);
        b.edit(2, |_| Edit::Keep);
        assert_eq!(
            b.shared_with(&a),
            1,
            "a read-only edit leaves the shard shared"
        );
        b.edit(2, |_| Edit::Set(20));
        assert_eq!(b.shared_with(&a), 0, "a write copies it");
        assert_eq!((a.get(2), b.get(2)), (None, Some(&20)));
        b.edit(1, |_| Edit::Remove);
        assert_eq!((a.get(1), b.get(1)), (Some(&10), None));
        assert_eq!((a.len(), b.len()), (1, 1));
    }

    #[test]
    fn shard_map_writes_copy_only_their_shard() {
        let mut a = ShardMap::default();
        for i in 0..8 * SHARD_MAX as u64 {
            a.insert(spread(i), i);
        }
        a.reshard();
        let mut b = a.clone();
        b.insert(spread(0), 7);
        b.remove(spread(1));
        b.remove(spread(u64::MAX));
        assert_eq!(a.get(spread(0)), Some(&0));
        assert_eq!(a.get(spread(1)), Some(&1));
        assert_eq!(b.get(spread(0)), Some(&7));
        assert_eq!(b.get(spread(1)), None);
        assert!(a.pieces() > 1);
        assert!(b.shared_with(&a) >= b.pieces() - 2);
    }

    /// Test keys spread over every bit, as real hashes are.
    fn spread(i: u64) -> u64 {
        i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn id_index_chains_colliding_ids() {
        // Ids 0..6 name the payloads 0..6; odd payloads collide on one
        // hash, even ones on another.
        let hash = |payload: u32| u64::from(payload % 2);
        let mut index = IdIndex::default();
        for p in 0..6 {
            assert_eq!(index.find_or_push(hash(p), |id| id == p), (p, true));
        }
        for p in 0..6 {
            assert_eq!(index.find_or_push(hash(p), |id| id == p), (p, false));
            assert_eq!(index.find(hash(p), |id| id == p), Some(p));
        }
        assert_eq!(index.find(hash(7), |id| id == 7), None);
        let snapshot = index.clone();
        // Unlink the head, a middle id and the tail of the odd chain.
        for p in [5, 3, 1] {
            assert_eq!(index.take(hash(p), |id| id == p), Some(p));
            assert_eq!(index.take(hash(p), |id| id == p), None);
            assert_eq!(index.find(hash(p), |id| id == p), None);
        }
        assert_eq!(index.heads.len(), 1, "the emptied chain left the map");
        for p in [0, 2, 4] {
            assert_eq!(index.find(hash(p), |id| id == p), Some(p));
        }
        assert_eq!(index.find_or_push(hash(3), |id| id == 3), (6, true));
        assert_eq!(index.push_unindexed(), 7);
        // The clone still sees every original id.
        for p in 0..6 {
            assert_eq!(snapshot.find(hash(p), |id| id == p), Some(p));
        }
        assert_eq!(snapshot.ids(), 6);
    }
}
