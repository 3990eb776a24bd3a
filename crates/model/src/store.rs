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
//! by a keyed 64-bit hash of what the id names. The index stores one
//! 8-byte word per id: the hash's top 32 bits as a tag, and the id. The
//! caller checks every candidate against its own column, so a hit is
//! exact, and a table that grows moves words without hashing any
//! payload again.

use std::collections::hash_map::{HashMap, RandomState};
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

impl<V: Clone> ShardMap<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.shards[shard_index(key, self.bits)].get(&key)
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
    /// shared and too large to copy whole (see [`splits`]).
    fn writable_shard(&mut self, key: u64) -> &mut Arc<Shard<V>> {
        let shard = &self.shards[shard_index(key, self.bits)];
        if splits(
            shard.len(),
            Arc::strong_count(shard) > 1,
            self.len,
            self.bits,
        ) {
            self.reshard();
        }
        &mut self.shards[shard_index(key, self.bits)]
    }

    /// Split into enough shards that each holds about `SHARD_MAX / 4`
    /// entries, moving the entries of shards this version alone holds
    /// and cloning the rest.
    fn reshard(&mut self) {
        let bits = split_bits(self.len, self.bits);
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

/// Whether a write to a piece of `piece_len` entries (`shared` with
/// another version) splits a structure of `len` entries in `2^bits`
/// pieces first: the piece is too large to copy whole, and large not
/// only because the keys skew towards it (the pieces are large on
/// average, so splitting would shrink it).
fn splits(piece_len: usize, shared: bool, len: usize, bits: u32) -> bool {
    piece_len > SHARD_MAX && shared && len >> bits > SHARD_MAX / 4
}

/// The split that leaves `len` entries about `SHARD_MAX / 4` a piece.
fn split_bits(len: usize, mut bits: u32) -> u32 {
    while len >> bits > SHARD_MAX / 4 {
        bits += 1;
    }
    bits
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
    /// index shares one tag and one probe run.
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

/// Spreads a tag over a table position: the top bits of the product
/// depend on every bit of the tag.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Words in the smallest non-empty [`Table`].
const MIN_WORDS: usize = 8;

/// One piece of an [`IdIndex`]: an open-addressing table of words
/// `tag << 32 | (id + 1)`, where 0 marks an empty slot. A word sits in
/// the run that starts at its tag's home (linear probing), and the table
/// doubles before it gets more than 3/4 full, so every probe ends at an
/// empty slot.
#[derive(Clone, Debug, Default)]
struct Table {
    words: Box<[u64]>,
    len: usize,
}

impl Table {
    /// Where the probe for `tag` starts. The table is not empty.
    fn home(&self, tag: u64) -> usize {
        (tag.wrapping_mul(MIX) >> (64 - self.words.len().trailing_zeros())) as usize
    }

    /// The id of the first word of `tag` whose id `is` accepts, or else
    /// the empty slot that ends the probe.
    fn probe(&self, tag: u64, mut is: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        if self.words.is_empty() {
            return Err(0);
        }
        let mask = self.words.len() - 1;
        let mut at = self.home(tag);
        loop {
            match self.words[at] {
                0 => return Err(at),
                w if w >> 32 == tag && is(w as u32 - 1) => return Ok(w as u32 - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Whether one more word keeps the table at most 3/4 full.
    fn has_room(&self) -> bool {
        (self.len + 1) * 4 <= self.words.len() * 3
    }

    /// Store `word` in the empty slot `at` that ends its tag's probe.
    fn put(&mut self, at: usize, word: u64) {
        self.words[at] = word;
        self.len += 1;
    }

    /// Add `word`, doubling the table first if it has no room. Growing
    /// re-places words by their tags alone.
    fn insert(&mut self, word: u64) {
        if !self.has_room() {
            let words = (self.words.len() * 2).max(MIN_WORDS);
            let old = std::mem::replace(&mut self.words, vec![0; words].into());
            for &w in old.iter().filter(|&&w| w != 0) {
                let at = self.vacancy(w >> 32);
                self.words[at] = w;
            }
        }
        let at = self.vacancy(word >> 32);
        self.put(at, word);
    }

    /// The empty slot that ends the probe for `tag`.
    fn vacancy(&self, tag: u64) -> usize {
        let mask = self.words.len() - 1;
        let mut at = self.home(tag);
        while self.words[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Remove `word`, which the table holds. Later words of its run move
    /// back into the hole unless their home lies past it, so every probe
    /// still reaches its word with no tombstone on the way.
    fn remove(&mut self, word: u64) {
        let mask = self.words.len() - 1;
        let mut hole = self.home(word >> 32);
        while self.words[hole] != word {
            hole = (hole + 1) & mask;
        }
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let w = self.words[at];
            if w == 0 {
                break;
            }
            if at.wrapping_sub(self.home(w >> 32)) & mask >= at.wrapping_sub(hole) & mask {
                self.words[hole] = w;
                hole = at;
            }
        }
        self.words[hole] = 0;
        self.len -= 1;
    }
}

/// The piece of `tag` among `2^bits`: the tag's top `bits` bits, which
/// a table's home reads only mixed with all the others.
fn piece_of(tag: u64, bits: u32) -> usize {
    (tag << bits >> 32) as usize
}

/// Dense ids `0, 1, 2, …` found by a 64-bit hash of what each id names.
///
/// An indexed id is one word, `tag << 32 | (id + 1)` with the hash's top
/// 32 bits as its tag, in an open-addressing [`Table`]. Every lookup
/// takes the same path: the tag picks a home, and the words of its run
/// whose tag matches are candidates until the caller's check accepts
/// one. Ids whose payloads share a tag share a run, so a tag hit is
/// never trusted alone. Growing a table places words by their tags
/// without hashing any payload again.
///
/// The table is split into `2^bits` pieces behind [`Arc`], chosen by the
/// tag, with [`ShardMap`]'s policy: an index nobody shares stays one
/// piece, and the first write that would copy a large shared piece
/// splits the index, after which a write copies one small piece.
#[derive(Clone, Debug)]
pub(crate) struct IdIndex {
    pieces: Vec<Arc<Table>>,
    bits: u32,
    /// Indexed ids, over all pieces.
    len: usize,
    /// Ids handed out so far, indexed or not.
    ids: u32,
}

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex {
            pieces: vec![Arc::default()],
            bits: 0,
            len: 0,
            ids: 0,
        }
    }
}

impl IdIndex {
    /// Ids handed out so far, indexed or not.
    pub(crate) fn ids(&self) -> usize {
        self.ids as usize
    }

    /// The first id indexed under `hash`'s tag that `is` accepts.
    pub(crate) fn find(&self, hash: u64, is: impl FnMut(u32) -> bool) -> Option<u32> {
        let tag = hash >> 32;
        self.pieces[piece_of(tag, self.bits)].probe(tag, is).ok()
    }

    /// The id under `hash`'s tag that `is` accepts and `false`, or else a
    /// new id (the next one, [`IdIndex::ids`]) indexed under the tag and
    /// `true`. An unshared piece with room is probed once either way.
    ///
    /// # Panics
    /// Panics when the id space is exhausted.
    pub(crate) fn find_or_push(&mut self, hash: u64, is: impl FnMut(u32) -> bool) -> (u32, bool) {
        let tag = hash >> 32;
        let p = piece_of(tag, self.bits);
        let vacancy = match self.pieces[p].probe(tag, is) {
            Ok(id) => return (id, false),
            Err(at) => at,
        };
        let id = self.push_unindexed();
        let word = tag << 32 | u64::from(id + 1);
        match Arc::get_mut(&mut self.pieces[p]) {
            Some(table) if table.has_room() => table.put(vacancy, word),
            _ => Arc::make_mut(self.writable(tag)).insert(word),
        }
        self.len += 1;
        (id, true)
    }

    /// A new id that no hash leads to.
    ///
    /// # Panics
    /// Panics when the id space is exhausted.
    pub(crate) fn push_unindexed(&mut self) -> u32 {
        let id = self.ids;
        // `id + 1` must fit a word's low half.
        assert!(id < u32::MAX, "id space exhausted (2^32 - 1 ids)");
        self.ids += 1;
        id
    }

    /// Unindex and return the id under `hash`'s tag that `is` accepts;
    /// the id itself stays handed out. A miss copies nothing.
    pub(crate) fn take(&mut self, hash: u64, is: impl FnMut(u32) -> bool) -> Option<u32> {
        let tag = hash >> 32;
        let id = self.find(hash, is)?;
        Arc::make_mut(self.writable(tag)).remove(tag << 32 | u64::from(id + 1));
        self.len -= 1;
        Some(id)
    }

    /// The piece `tag` belongs in, after splitting the index if that
    /// piece is shared and too large to copy whole.
    fn writable(&mut self, tag: u64) -> &mut Arc<Table> {
        let piece = &self.pieces[piece_of(tag, self.bits)];
        if splits(piece.len, Arc::strong_count(piece) > 1, self.len, self.bits) {
            let bits = split_bits(self.len, self.bits);
            let mut pieces = vec![Table::default(); 1 << bits];
            for piece in std::mem::take(&mut self.pieces) {
                for &w in piece.words.iter().filter(|&&w| w != 0) {
                    pieces[piece_of(w >> 32, bits)].insert(w);
                }
            }
            self.pieces = pieces.into_iter().map(Arc::new).collect();
            self.bits = bits;
        }
        &mut self.pieces[piece_of(tag, self.bits)]
    }

    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &IdIndex) -> usize {
        self.pieces
            .iter()
            .zip(&other.pieces)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    #[cfg(test)]
    pub(crate) fn pieces(&self) -> usize {
        self.pieces.len()
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
        // Ids 0..6 name the payloads 0..6; odd payloads share one tag,
        // even ones another.
        let hash = |payload: u32| u64::from(payload % 2) << 32;
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
        // Unindex the first, a middle and the last id of the odd run.
        for p in [1, 3, 5] {
            assert_eq!(index.take(hash(p), |id| id == p), Some(p));
            assert_eq!(index.take(hash(p), |id| id == p), None);
            assert_eq!(index.find(hash(p), |id| id == p), None);
        }
        assert_eq!(index.len, 3, "the odd ids left the table");
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

    #[test]
    fn id_index_copies_a_shared_piece_only_when_it_writes() {
        // Id 0 names payload 1, id 1 payload 2.
        let hash = |payload: u64| spread(payload);
        let mut a = IdIndex::default();
        assert_eq!(a.find_or_push(hash(1), |_| false), (0, true));
        let mut b = a.clone();
        assert_eq!(b.find_or_push(hash(1), |id| id == 0), (0, false));
        assert_eq!(b.find(hash(2), |_| true), None);
        assert_eq!(b.take(hash(2), |_| true), None);
        assert_eq!(
            b.shared_with(&a),
            1,
            "a hit or a miss leaves the piece shared"
        );
        assert_eq!(b.find_or_push(hash(2), |_| false), (1, true));
        assert_eq!(b.shared_with(&a), 0, "a write copies it");
        assert_eq!((a.find(hash(2), |_| true), a.ids()), (None, 1));
        assert_eq!(b.take(hash(1), |id| id == 0), Some(0));
        assert_eq!(a.find(hash(1), |id| id == 0), Some(0));
    }

    #[test]
    fn id_index_splits_on_the_first_shared_write() {
        let hash = |payload: u32| spread(u64::from(payload));
        let n = 20 * SHARD_MAX as u32;
        let mut a = IdIndex::default();
        for p in 0..n {
            a.find_or_push(hash(p), |id| id == p);
        }
        assert_eq!(a.pieces(), 1, "an unshared index stays one piece");
        let mut b = a.clone();
        assert_eq!(b.find_or_push(hash(n), |id| id == n), (n, true));
        assert!(b.pieces() > 1, "a shared write to a large piece splits it");
        assert_eq!(a.pieces(), 1, "the original keeps its own piece");
        let mut c = b.clone();
        assert_eq!(c.take(hash(7), |id| id == 7), Some(7));
        assert_eq!(
            c.shared_with(&b),
            c.pieces() - 1,
            "a write copies one piece"
        );
        for p in 0..=n {
            let want = |index: &IdIndex| (p < n || index.ids() > n as usize) && p != 7;
            assert_eq!(a.find(hash(p), |id| id == p).is_some(), p < n);
            assert_eq!(b.find(hash(p), |id| id == p), Some(p));
            assert_eq!(c.find(hash(p), |id| id == p).is_some(), want(&c));
        }
    }

    /// Random `find_or_push`, `take`, `find` and `clone` steps on an index
    /// of `payloads` distinct payloads, each step checked against a
    /// `HashMap`; every clone is re-checked at the end, untouched by the
    /// steps its copies took.
    fn id_index_matches_the_model(hasher: &IndexHasher, payloads: u32, steps: usize, seed: u64) {
        let mut rng = seed;
        let mut below = |n: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(n)) as u32
        };
        // An index, the payload of each id it handed out (`None`: no
        // payload), and the model of what it indexes.
        type Version = (IdIndex, Vec<Option<u32>>, HashMap<u32, u32>);
        let check = |(index, named, model): &Version| {
            assert_eq!(index.ids(), named.len());
            assert_eq!(index.len, model.len());
            for p in 0..payloads {
                let found = index.find(hasher.hash(&p), |id| named[id as usize] == Some(p));
                assert_eq!(found, model.get(&p).copied(), "payload {p}");
            }
        };
        let mut kept: Vec<Version> = Vec::new();
        let (mut index, mut named, mut model) = Version::default();
        for step in 0..steps {
            let p = below(payloads);
            let hash = hasher.hash(&p);
            let is = |id: u32| named[id as usize] == Some(p);
            match below(16) {
                0..=8 => {
                    let (id, new) = index.find_or_push(hash, is);
                    match model.get(&p) {
                        Some(&old) => assert_eq!((id, new), (old, false)),
                        None => {
                            assert_eq!((id as usize, new), (named.len(), true));
                            named.push(Some(p));
                            model.insert(p, id);
                        }
                    }
                }
                9..=12 => assert_eq!(index.take(hash, is), model.remove(&p)),
                13 => assert_eq!(index.find(hash, is), model.get(&p).copied()),
                14 => {
                    assert_eq!(index.push_unindexed() as usize, named.len());
                    named.push(None);
                }
                _ => kept.push((index.clone(), named.clone(), model.clone())),
            }
            if step % 256 == 0 {
                check(&(index.clone(), named.clone(), model.clone()));
            }
        }
        kept.push((index, named, model));
        kept.iter().for_each(check);
    }

    #[test]
    fn id_index_matches_the_model_on_one_probe_run() {
        for seed in [1, 2, 3] {
            id_index_matches_the_model(&IndexHasher::constant(), 150, 2_000, seed);
        }
    }

    #[test]
    fn id_index_matches_the_model_under_the_real_hash() {
        // Small payload ranges keep one tiny table that wraps its end
        // often; the large one grows the table many times and, with
        // clones around, splits it.
        for (payloads, seed) in [(6, 1), (40, 2), (300, 3), (3_000, 4)] {
            id_index_matches_the_model(&IndexHasher::default(), payloads, 12_000, seed);
        }
    }
}
