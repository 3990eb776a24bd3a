//! Copy-on-write storage behind [`Database`](crate::Database): chunked
//! columns and hash-sharded maps whose pieces sit behind [`Arc`].
//!
//! A live update derives a successor database from its predecessor and
//! keeps both (in-flight readers still hold the old one). Cloning either
//! structure here copies its table of piece pointers (and a column's
//! short unsealed tail), not the pieces; every write to a piece goes
//! through [`Arc::make_mut`], which copies that one piece when another
//! version still shares it. So a clone followed by a delta costs the
//! pointer tables plus the pieces the delta wrote, and dropping the
//! predecessor frees only the pieces no other version holds.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

/// log2 of [`CHUNK`].
const CHUNK_BITS: u32 = 8;

/// Entries per [`ChunkVec`] chunk. Small enough that copying one chunk
/// on a write is a few microseconds even when each entry owns a heap
/// allocation; large enough that the pointer table of a 10⁶-entry
/// column is ~4 000 pointers.
const CHUNK: usize = 1 << CHUNK_BITS;

/// A vector stored as full `CHUNK`-entry chunks behind [`Arc`] plus an
/// owned tail of fewer than `CHUNK` entries. Appends go to the tail with
/// no atomic operation; a tail that fills up is sealed into a shared
/// chunk. Indexing a sealed entry is two loads. [`Clone`] copies the
/// chunk pointers and the tail (at most `CHUNK - 1` entries), never the
/// sealed entries.
#[derive(Clone, Debug)]
pub(crate) struct ChunkVec<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
    tail: Vec<T>,
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T: Clone> ChunkVec<T> {
    pub(crate) fn len(&self) -> usize {
        (self.chunks.len() << CHUNK_BITS) + self.tail.len()
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        (i < self.len()).then(|| &self[i])
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.tail.capacity() == 0 {
            self.tail.reserve_exact(CHUNK);
        }
        self.tail.push(value);
        if self.tail.len() == CHUNK {
            let full: Box<[T; CHUNK]> = std::mem::take(&mut self.tail)
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("the tail holds exactly CHUNK entries"));
            self.chunks.push(full.into());
        }
    }

    /// Mutable access to entry `i`, copying its chunk first (with
    /// [`Arc::make_mut`]) if another version shares it.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        let sealed = self.chunks.len() << CHUNK_BITS;
        match self.chunks.get_mut(i >> CHUNK_BITS) {
            Some(chunk) => &mut Arc::make_mut(chunk)[i & (CHUNK - 1)],
            None => &mut self.tail[i - sealed],
        }
    }

    /// The entries as consecutive slices: each sealed chunk, then the
    /// tail. Loops that zip two columns zip these slice by slice, which
    /// compiles to far tighter code than zipping two flattened iterators.
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

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.chunks.get(i >> CHUNK_BITS) {
            Some(chunk) => &chunk[i & (CHUNK - 1)],
            // Offset into the tail, not `i % CHUNK`: an index past the
            // tail must panic like a `Vec`'s, not alias a tail entry.
            None => &self.tail[i - (self.chunks.len() << CHUNK_BITS)],
        }
    }
}

/// Size above which a shared shard is split rather than copied whole.
const SHARD_MAX: usize = 512;

/// A hash map split into `2^bits` shards behind [`Arc`], chosen by the
/// top bits of an unkeyed multiply-rotate hash of the key. Each shard is
/// an ordinary [`HashMap`] with its own keyed hasher, so a skewed shard
/// choice only unbalances the shards; it never degrades lookups.
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
pub(crate) struct ShardMap<K, V> {
    shards: Vec<Arc<HashMap<K, V>>>,
    bits: u32,
    len: usize,
}

impl<K, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        ShardMap {
            shards: vec![Arc::new(HashMap::new())],
            bits: 0,
            len: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardMap<K, V> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.shards[shard_index(key, self.bits)].get(key)
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key`, inserting `make()` if it is absent, and whether
    /// it was inserted. A shard this version alone holds is probed once
    /// through its `entry`; a shared one is probed with `get` first, so a
    /// hit never copies it.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> (V, bool) {
        match Arc::get_mut(&mut self.shards[shard_index(&key, self.bits)]) {
            Some(shard) => match shard.entry(key) {
                Entry::Occupied(e) => (e.get().clone(), false),
                Entry::Vacant(e) => {
                    self.len += 1;
                    (e.insert(make()).clone(), true)
                }
            },
            None => match self.get(&key) {
                Some(v) => (v.clone(), false),
                None => {
                    let v = make();
                    self.insert(key, v.clone());
                    (v, true)
                }
            },
        }
    }

    /// Insert or overwrite, copying the key's shard first if another
    /// version shares it.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        let shard = self.writable_shard(&key);
        if Arc::make_mut(shard).insert(key, value).is_none() {
            self.len += 1;
        }
    }

    /// Remove `key`; a shard without the key is left shared.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        self.len -= 1;
        Arc::make_mut(self.writable_shard(key)).remove(key)
    }

    /// The shard `key` belongs in, after re-sharding if that shard is
    /// shared and too large to copy whole. A shard that is large only
    /// because the keys skew towards it (the shards are small on
    /// average) is copied instead: re-sharding would not shrink it.
    fn writable_shard(&mut self, key: &K) -> &mut Arc<HashMap<K, V>> {
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
        let mut shards: Vec<HashMap<K, V>> = (0..1usize << bits)
            .map(|_| HashMap::with_capacity(self.len >> bits))
            .collect();
        for shard in std::mem::take(&mut self.shards) {
            match Arc::try_unwrap(shard) {
                Ok(owned) => {
                    for (k, v) in owned {
                        shards[shard_index(&k, bits)].insert(k, v);
                    }
                }
                Err(shared) => {
                    for (k, v) in shared.iter() {
                        shards[shard_index(k, bits)].insert(k.clone(), v.clone());
                    }
                }
            }
        }
        self.shards = shards.into_iter().map(Arc::new).collect();
        self.bits = bits;
    }

    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &ShardMap<K, V>) -> usize {
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

/// The shard of `key` among `2^bits`: the top `bits` bits of its
/// [`ShardHasher`] hash.
pub(crate) fn shard_index<K: Hash + ?Sized>(key: &K, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    let mut h = ShardHasher(0);
    key.hash(&mut h);
    (h.finish() >> (64 - bits)) as usize
}

/// The FxHash multiply-rotate step: a few cycles per word, with the
/// final multiply mixing every input bit into the top bits the shard
/// choice reads.
struct ShardHasher(u64);

impl ShardHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    fn shard_map_splits_on_the_first_shared_write() {
        let mut a = ShardMap::default();
        let n = 20 * SHARD_MAX;
        for i in 0..n {
            a.insert(i, i * 2);
        }
        assert_eq!(a.pieces(), 1, "an unshared map stays one shard");
        let mut b = a.clone();
        b.insert(n, 0);
        assert!(b.pieces() > 1, "a shared write to a large shard splits it");
        assert_eq!(a.pieces(), 1, "the original keeps its own shard");
        for i in 0..n {
            assert_eq!(a.get(&i), Some(&(i * 2)));
            assert_eq!(b.get(&i), Some(&(i * 2)));
        }
        assert_eq!(a.get(&n), None);
        assert_eq!(b.remove(&3), Some(6));
        assert_eq!(b.remove(&3), None);
        assert!(!b.contains_key(&3));
        assert!(a.contains_key(&3));
        assert_eq!((a.len, b.len), (n, n));
    }

    #[test]
    fn get_or_insert_with_copies_a_shared_shard_only_on_a_miss() {
        let mut a = ShardMap::default();
        assert_eq!(a.get_or_insert_with(1, || 10), (10, true));
        assert_eq!(a.get_or_insert_with(1, || 11), (10, false));
        let mut b = a.clone();
        assert_eq!(b.get_or_insert_with(1, || 12), (10, false));
        assert_eq!(b.shared_with(&a), 1, "a hit leaves the shard shared");
        assert_eq!(b.get_or_insert_with(2, || 20), (20, true));
        assert_eq!(b.shared_with(&a), 0, "a miss copies it");
        assert_eq!((a.get(&2), b.get(&2)), (None, Some(&20)));
        assert_eq!((a.len, b.len), (1, 2));
    }

    #[test]
    fn shard_map_writes_copy_only_their_shard() {
        let mut a = ShardMap::default();
        for i in 0..8 * SHARD_MAX {
            a.insert(i, i);
        }
        a.reshard();
        let mut b = a.clone();
        b.insert(0, 7);
        b.remove(&1);
        b.remove(&(usize::MAX));
        assert_eq!(a.get(&0), Some(&0));
        assert_eq!(a.get(&1), Some(&1));
        assert_eq!(b.get(&0), Some(&7));
        assert_eq!(b.get(&1), None);
        assert!(a.pieces() > 1);
        assert!(b.shared_with(&a) >= b.pieces() - 2);
    }
}
