//! Block cache and the open-table sets.
//!
//! An LRU cache of decoded data blocks keyed by `(file number, offset)`,
//! bounded by a byte budget. The paper assumes "the cached indexes and Bloom
//! filters of active SSTables" avoid most slice-read I/O (§III-B3); in this
//! engine, index and filter blocks are pinned per open table (charged
//! against the same byte budget) while data blocks flow through the cache.
//! Hit/miss counters feed Fig 13.
//!
//! The cache is split into a power-of-two number of independently locked
//! shards keyed by a hash of the block key, so concurrent readers on
//! different shards never contend. Lookups hand out `Arc<Block>` handles:
//! block bytes are decoded (restart array parsed, CRC checked) exactly once
//! and never copied per read — values are returned as [`bytes::Bytes`]
//! slices pinning the block's backing buffer. That buffer is whatever the
//! storage backend's read returned: a copy of one block, or — for a sealed
//! `MemStorage` file — a slice of the whole table image, which a cached
//! block or a value handed to a caller then keeps alive until it is dropped
//! ([`BlockCache::evict_file`] drops the cache's share when the file goes).
//!
//! `TableSet` holds the open SSTable handles of one installed version.
//! It lives in the cache layer so the pinned index/filter bytes of every
//! open table are charged to the block cache budget instead of being
//! invisible free memory. Handles are not evicted: a table opens once and
//! stays open while its file is live or frozen.
//!
//! Each shard keeps its order in one private `Lru`: a slab of nodes on
//! an intrusive doubly linked list plus a map from key to slot. Every
//! operation is O(1) and the order is **strictly** least-recently-used —
//! a hit moves the entry to the front, an insert lands at the front, the
//! victim is always the back — so which block goes, and with it every
//! later miss, device read and virtual nanosecond, is a function of the
//! access sequence alone. `tests/cache_golden.rs` pins that order end to
//! end; the proptest below pins it against the tick-ordered B-tree pair
//! this list replaced.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use ldc_obs::lockcheck::Mutex;
use ldc_ssd::{IoClass, StorageBackend};

use crate::block::Block;
use crate::error::{Error, Result};
use crate::iterator::{InternalIterator, MergingIterator};
use crate::table::Table;
use crate::version::{table_file_name, FileMeta, Version};

/// Cache key: file number + block offset within the file.
pub type BlockKey = (u64, u64);

/// Default shard count (power of two). Small enough that per-shard LRU
/// stays meaningful at test capacities, large enough that eight reader
/// threads rarely collide on one lock.
pub const DEFAULT_SHARD_COUNT: usize = 8;

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: cheap, deterministic across processes (no
/// `RandomState`), and good avalanche.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a block key into a shard index, so consecutive offsets in one
/// file spread across shards.
fn shard_hash(key: BlockKey) -> u64 {
    mix64(key.0.wrapping_mul(GOLDEN_GAMMA) ^ key.1)
}

/// Hasher of the [`Lru`] maps. Keys are file numbers and block offsets the
/// engine made itself, never outside input, so SipHash's flood resistance
/// buys nothing here and costs a fifth of a cached probe.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.wrapping_mul(GOLDEN_GAMMA) ^ v;
    }

    /// For a [`BlockKey`] this is [`shard_hash`] with its halves swapped:
    /// all keys of one shard agree in the low bits of `shard_hash`, which
    /// are the bits a hash map picks its bucket from.
    fn finish(&self) -> u64 {
        mix64(self.0).rotate_left(32)
    }
}

/// Slot of the list's sentinel: its `next` is the most recently used entry,
/// its `prev` the least, and an empty list is the sentinel linked to itself
/// — so linking and unlinking never meet an end of the list.
const SENTINEL: usize = 0;

struct Node<K, V> {
    key: K,
    /// `None` in the sentinel and in slots waiting on the free list.
    value: Option<V>,
    /// Towards the front (more recently used).
    prev: usize,
    /// Towards the back (less recently used).
    next: usize,
}

/// Strict-LRU order over a set of keys, every operation O(1).
///
/// Invariant: `map` holds exactly the slots on the list besides the
/// sentinel, a node's `prev` / `next` are list slots, and `free` holds every
/// other slot — so a slot taken from any of the three is inside `slab`.
struct Lru<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
}

impl<K: Copy + Default + Eq + Hash, V> Lru<K, V> {
    fn new() -> Self {
        let sentinel = Node {
            key: K::default(),
            value: None,
            prev: SENTINEL,
            next: SENTINEL,
        };
        Self {
            map: HashMap::default(),
            slab: vec![sentinel],
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn node(&self, slot: usize) -> &Node<K, V> {
        // ldc-lint: allow(panic_safety) — slots come only from `map`, `free` and the links, all of which this type maintains (see the invariant)
        &self.slab[slot]
    }

    fn node_mut(&mut self, slot: usize) -> &mut Node<K, V> {
        // ldc-lint: allow(panic_safety) — as `node`
        &mut self.slab[slot]
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.node(slot).prev, self.node(slot).next);
        self.node_mut(prev).next = next;
        self.node_mut(next).prev = prev;
    }

    fn link_front(&mut self, slot: usize) {
        let old_front = std::mem::replace(&mut self.node_mut(SENTINEL).next, slot);
        self.node_mut(old_front).prev = slot;
        let node = self.node_mut(slot);
        node.prev = SENTINEL;
        node.next = old_front;
    }

    /// Looks `key` up and, if present, makes it the most recently used.
    fn touch(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.unlink(slot);
        self.link_front(slot);
        self.node(slot).value.as_ref()
    }

    /// Makes `key -> value` the most recently used entry, returning the
    /// value it replaces, if any.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        let replaced = self.remove(&key);
        let node = Node {
            key,
            value: Some(value),
            prev: SENTINEL,
            next: SENTINEL,
        };
        let slot = self.free.pop().unwrap_or(self.slab.len());
        match self.slab.get_mut(slot) {
            Some(vacant) => *vacant = node,
            None => self.slab.push(node),
        }
        self.link_front(slot);
        self.map.insert(key, slot);
        replaced
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.unlink(slot);
        self.free.push(slot);
        self.node_mut(slot).value.take()
    }

    /// Removes and returns the least recently used entry.
    fn pop_lru(&mut self) -> Option<(K, V)> {
        let back = self.node(SENTINEL).prev;
        if back == SENTINEL {
            return None;
        }
        let key = self.node(back).key;
        Some((key, self.remove(&key)?))
    }

    /// Removes every entry whose key `doomed` accepts, least recently used
    /// first, handing each value to `each`.
    fn remove_where(&mut self, doomed: impl Fn(&K) -> bool, mut each: impl FnMut(V)) {
        let mut slot = self.node(SENTINEL).prev;
        while slot != SENTINEL {
            let node = self.node(slot);
            let (key, towards_front) = (node.key, node.prev);
            if doomed(&key) {
                if let Some(value) = self.remove(&key) {
                    each(value);
                }
            }
            slot = towards_front;
        }
    }
}

struct ShardInner {
    blocks: Lru<BlockKey, Arc<Block>>,
    /// Lookups this shard served, counted under the lock a hit takes
    /// anyway rather than with an atomic of their own.
    hits: u64,
    used_bytes: usize,
    /// Bytes charged by open tables for their pinned index/filter blocks.
    /// Never evicted here — released when the table handle is dropped.
    pinned_bytes: usize,
}

impl ShardInner {
    /// Evicts least-recently-used blocks until data plus pinned bytes fit
    /// `capacity` or one block is left; returns how many went.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.used_bytes + self.pinned_bytes > capacity && self.blocks.len() > 1 {
            let Some((_, block)) = self.blocks.pop_lru() else {
                break;
            };
            self.used_bytes -= block.size();
            evicted += 1;
        }
        evicted
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn new() -> Self {
        Self {
            inner: Mutex::new(
                "lsm/cache::inner",
                ShardInner {
                    blocks: Lru::new(),
                    hits: 0,
                    used_bytes: 0,
                    pinned_bytes: 0,
                },
            ),
        }
    }
}

/// Byte-bounded sharded LRU cache of data blocks.
pub struct BlockCache {
    capacity_bytes: usize,
    /// Per-shard byte budget (`capacity_bytes / shards.len()`).
    shard_capacity: usize,
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard index is `hash & mask`.
    mask: u64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time block-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to read the block from the device (Fig 13's
    /// y-axis).
    pub misses: u64,
    /// Blocks dropped under capacity pressure (`evict_file` drops are not
    /// counted — those blocks were deleted, not squeezed out).
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of all lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BlockCache {
    /// Creates a cache holding at most `capacity_bytes` of block data,
    /// split across [`DEFAULT_SHARD_COUNT`] shards.
    /// A capacity of 0 disables caching (every lookup is a miss).
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_shards(capacity_bytes, DEFAULT_SHARD_COUNT)
    }

    /// Creates a cache with an explicit shard count (rounded up to a power
    /// of two, minimum 1).
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            capacity_bytes,
            shard_capacity: capacity_bytes / n,
            shards: (0..n).map(|_| Shard::new()).collect(),
            mask: (n - 1) as u64,
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: BlockKey) -> &Shard {
        // ldc-lint: allow(panic_safety) — index is masked to the power-of-two shard count
        &self.shards[(shard_hash(key) & self.mask) as usize]
    }

    /// Fetches the block, calling `load` on a miss and caching the result.
    /// The returned handle shares the decoded block — no bytes are copied.
    pub fn get_or_load(
        &self,
        key: BlockKey,
        load: impl FnOnce() -> Result<Block>,
    ) -> Result<Arc<Block>> {
        if self.capacity_bytes > 0 {
            let mut inner = self.shard(key).inner.lock();
            if let Some(block) = inner.blocks.touch(&key).cloned() {
                inner.hits += 1;
                return Ok(block);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Load outside the shard lock: a slow device read must not block
        // hits on sibling blocks. Two racing loaders may both read the
        // block; last insert wins, both handles stay valid.
        let block = Arc::new(load()?);
        if self.capacity_bytes > 0 {
            let mut inner = self.shard(key).inner.lock();
            if let Some(prev) = inner.blocks.insert(key, Arc::clone(&block)) {
                inner.used_bytes -= prev.size();
            }
            inner.used_bytes += block.size();
            let evicted = inner.evict_to(self.shard_capacity);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(block)
    }

    /// Drops all blocks belonging to `file_number` (called on file delete).
    pub fn evict_file(&self, file_number: u64) {
        for shard in &self.shards {
            let mut guard = shard.inner.lock();
            let inner = &mut *guard;
            inner.blocks.remove_where(
                |&(file, _)| file == file_number,
                |block| inner.used_bytes -= block.size(),
            );
        }
    }

    /// Charges `bytes` of pinned (unevictable) data against the budget —
    /// the decoded index block and Bloom filter of an open table. Pinned
    /// bytes squeeze data blocks out of their shard but are never evicted
    /// themselves; release with [`BlockCache::release_pinned`].
    pub fn charge_pinned(&self, file_number: u64, bytes: usize) {
        if self.capacity_bytes == 0 {
            return;
        }
        let shard = self.shard((file_number, u64::MAX));
        let mut inner = shard.inner.lock();
        inner.pinned_bytes += bytes;
        let evicted = inner.evict_to(self.shard_capacity);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Releases a pinned-byte charge made by [`BlockCache::charge_pinned`].
    pub fn release_pinned(&self, file_number: u64, bytes: usize) {
        if self.capacity_bytes == 0 {
            return;
        }
        let shard = self.shard((file_number, u64::MAX));
        let mut inner = shard.inner.lock();
        inner.pinned_bytes = inner.pinned_bytes.saturating_sub(bytes);
    }

    /// Cache hits so far, summed across shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.inner.lock().hits).sum()
    }

    /// Cache misses so far — each miss is one data-block read from the
    /// device (Fig 13's y-axis).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Blocks evicted under capacity pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// All counters as one snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
        }
    }

    /// Bytes currently cached (data blocks plus pinned index/filter
    /// charges), summed across shards.
    pub fn used_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.lock();
                inner.used_bytes + inner.pinned_bytes
            })
            .sum()
    }

    /// Pinned (index/filter) bytes currently charged, summed across shards.
    pub fn pinned_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().pinned_bytes)
            .sum()
    }
}

/// The open-table handles of one installed version: one slot per live or
/// frozen file, filled the first time a read, a compaction, a scrub or an
/// integrity check asks for the file through a set that holds it. Each
/// install builds the next version's set from this one ([`TableSet::successor`]),
/// so a file keeps its slot, and with it its one open handle, for as long as
/// it is live or frozen. The slots of each level also sit in the version's
/// file order, so a get resolves a live file by its position and only a
/// slice's frozen source by number. Either way it is a lookup and an atomic
/// load: no lock, no LRU, no reference count.
///
/// A table's decoded index block and Bloom filter are charged to the
/// [`BlockCache`] budget as pinned bytes when it opens and released when
/// its file leaves the version, so open-table memory and cached-block memory
/// come out of one pool.
pub(crate) struct TableSet {
    source: Arc<TableSource>,
    /// Every live and frozen file's slot, by file number.
    slots: HashMap<u64, Arc<TableSlot>, BuildHasherDefault<KeyHasher>>,
    /// Each level's slots in the version's file order, shared with `slots`.
    levels: Vec<Vec<Arc<TableSlot>>>,
}

/// What every table set of one store shares: where tables open from, the
/// cache their pinned bytes are charged to, and the count of opens.
struct TableSource {
    storage: Arc<dyn StorageBackend>,
    cache: Arc<BlockCache>,
    opened: AtomicU64,
}

/// A slot's charge state: the handle's pinned bytes are not charged yet,
/// are charged, or the file has left the version and nothing may be
/// charged for it any more. An opener moves it `UNCHARGED → CHARGED` and
/// retirement swaps in `RETIRED`, each in one read-modify-write, so
/// whichever comes second sees the other's move and exactly one of them
/// releases a charge that was made.
const UNCHARGED: u8 = 0;
const CHARGED: u8 = 1;
const RETIRED: u8 = 2;

/// One file's handle, shared by every set whose version holds the file.
pub(crate) struct TableSlot {
    number: u64,
    table: OnceLock<Arc<Table>>,
    charge: AtomicU8,
}

impl TableSet {
    /// The set of `version` for a store that opens tables from `storage`
    /// and charges them to `cache`; every slot starts empty.
    pub(crate) fn new(
        storage: Arc<dyn StorageBackend>,
        cache: Arc<BlockCache>,
        version: &Version,
    ) -> TableSet {
        let source = Arc::new(TableSource {
            storage,
            cache,
            opened: AtomicU64::new(0),
        });
        let empty = TableSet {
            source,
            slots: HashMap::default(),
            levels: Vec::new(),
        };
        empty.successor(version)
    }

    /// The set of `version`, the version installed after this set's.
    /// Files still in it keep their slots; new files get empty ones. Files
    /// that left are retired: their pinned bytes are released, and a stale
    /// reader that opens one later charges nothing.
    pub(crate) fn successor(&self, version: &Version) -> TableSet {
        let mut slots = HashMap::with_capacity_and_hasher(self.slots.len(), Default::default());
        let mut slot_of = |number: u64| {
            let kept = self.slots.get(&number).cloned();
            let slot = kept.unwrap_or_else(|| Arc::new(TableSlot::new(number)));
            slots.insert(number, Arc::clone(&slot));
            slot
        };
        let levels = version
            .levels
            .iter()
            .map(|files| files.iter().map(|f| slot_of(f.number)).collect())
            .collect();
        for &number in version.frozen.keys() {
            slot_of(number);
        }
        // In map order: a release only lowers its shard's pinned count.
        for (&number, slot) in &self.slots {
            if !slots.contains_key(&number) {
                slot.retire(&self.source.cache);
            }
        }
        TableSet {
            source: Arc::clone(&self.source),
            slots,
            levels,
        }
    }

    /// The slot of `number`. Fails if the file is not in this set's
    /// version.
    pub(crate) fn slot(&self, number: u64) -> Result<&TableSlot> {
        match self.slots.get(&number) {
            Some(slot) => Ok(slot),
            None => Err(Error::InvalidState(format!(
                "table {number} is not in the pinned version"
            ))),
        }
    }

    /// The slot of the file at `index` of `level` in this set's version,
    /// found by position.
    pub(crate) fn level_slot(&self, level: usize, index: usize) -> Result<&TableSlot> {
        match self.levels.get(level).and_then(|files| files.get(index)) {
            Some(slot) => Ok(slot),
            None => Err(Error::InvalidState(format!(
                "no file {index} on level {level} of the pinned version"
            ))),
        }
    }

    /// The open handle of `slot`'s file, opening the table on first use (a
    /// metadata read of its footer, index and filter, like a real
    /// `open()`).
    pub(crate) fn handle<'s>(&self, slot: &'s TableSlot) -> Result<&'s Arc<Table>> {
        match slot.table.get() {
            Some(table) => Ok(table),
            None => self.open(slot),
        }
    }

    /// The open handle of `number`, opened on first use. Fails if the file
    /// is not in this set's version.
    pub(crate) fn table(&self, number: u64) -> Result<&Arc<Table>> {
        self.handle(self.slot(number)?)
    }

    /// One merged iterator over what `file` reads as, its
    /// [`FileMeta::sources`] in that order: the file whole, then each
    /// slice's range of its frozen source. The one place a linked file
    /// becomes a cursor, for a level scan and for an LDC merge alike.
    pub(crate) fn file_iter(
        &self,
        file: &FileMeta,
        class: IoClass,
    ) -> Result<MergingIterator<'static>> {
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for (number, range) in file.sources() {
            let table = self.table(number)?;
            children.push(Box::new(match range {
                Some(range) => table.range_iter(range.clone(), class),
                None => table.iter(class),
            }));
        }
        Ok(MergingIterator::new(children))
    }

    #[cold]
    fn open<'s>(&self, slot: &'s TableSlot) -> Result<&'s Arc<Table>> {
        let (source, number) = (&self.source, slot.number);
        // Open outside any lock; two racing opens keep whichever filled
        // the slot first, and only that one is charged.
        let table = Table::open(
            Arc::clone(&source.storage),
            table_file_name(number),
            number,
            Arc::clone(&source.cache),
        )?;
        source.opened.fetch_add(1, Ordering::Relaxed);
        let mut filled = false;
        let kept = slot.table.get_or_init(|| {
            filled = true;
            table
        });
        if filled {
            slot.charge(&source.cache, kept.pinned_bytes());
        }
        Ok(kept)
    }

    /// The handles open in this set, in no particular order.
    pub(crate) fn handles(&self) -> impl Iterator<Item = &Arc<Table>> {
        // ldc-lint: allow(determinism) — callers count or sum the handles
        self.slots.values().filter_map(|slot| slot.table.get())
    }

    /// Tables opened so far by this store, across every set.
    pub(crate) fn opened(&self) -> u64 {
        self.source.opened.load(Ordering::Relaxed)
    }
}

impl TableSlot {
    fn new(number: u64) -> TableSlot {
        TableSlot {
            number,
            table: OnceLock::new(),
            charge: AtomicU8::new(UNCHARGED),
        }
    }

    /// Charges a freshly filled handle's pinned bytes, unless the file has
    /// already left the version.
    fn charge(&self, cache: &BlockCache, bytes: usize) {
        let number = self.number;
        if self.charge.load(Ordering::Acquire) == RETIRED {
            return;
        }
        cache.charge_pinned(number, bytes);
        let charged =
            self.charge
                .compare_exchange(UNCHARGED, CHARGED, Ordering::AcqRel, Ordering::Acquire);
        if charged.is_err() {
            // Retired between the check and the charge.
            cache.release_pinned(number, bytes);
        }
    }

    /// Marks the file gone and releases its charge, if it was made.
    fn retire(&self, cache: &BlockCache) {
        if self.charge.swap(RETIRED, Ordering::AcqRel) == CHARGED {
            if let Some(table) = self.table.get() {
                cache.release_pinned(self.number, table.pinned_bytes());
            }
        }
    }
}

impl std::fmt::Debug for TableSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableSet")
            .field("files", &self.slots.len())
            .field("open", &self.handles().count())
            .finish()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("shards", &self.shards.len())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::types::{encode_internal_key, ValueType};
    use crate::version::tests::apply_random_edit;
    use crate::version::Counters;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn make_block(tag: u8, bytes: usize) -> Block {
        let mut b = BlockBuilder::new(16);
        let key = encode_internal_key(&[tag], 1, ValueType::Value);
        b.add(&key, &vec![tag; bytes]);
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn caches_loaded_blocks() {
        let cache = BlockCache::new(1 << 20);
        let mut loads = 0;
        for _ in 0..3 {
            cache
                .get_or_load((1, 0), || {
                    loads += 1;
                    Ok(make_block(1, 100))
                })
                .unwrap();
        }
        assert_eq!(loads, 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!(cache.used_bytes() > 0);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let cache = BlockCache::new(0);
        for _ in 0..3 {
            cache.get_or_load((1, 0), || Ok(make_block(1, 10))).unwrap();
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn evicts_least_recently_used_under_pressure() {
        // Single shard so the LRU order is global; each block ~1000 bytes,
        // capacity for ~3.
        let cache = BlockCache::with_shards(3200, 1);
        for i in 0..3u8 {
            cache
                .get_or_load((i as u64, 0), || Ok(make_block(i, 1000)))
                .unwrap();
        }
        // Touch block 0 so block 1 is the LRU.
        cache.get_or_load((0, 0), || panic!("should hit")).unwrap();
        // Insert block 3, evicting block 1.
        cache
            .get_or_load((3, 0), || Ok(make_block(3, 1000)))
            .unwrap();
        let miss_before = cache.misses();
        cache.get_or_load((0, 0), || panic!("0 evicted")).unwrap();
        assert_eq!(cache.misses(), miss_before);
        cache
            .get_or_load((1, 0), || Ok(make_block(1, 1000)))
            .unwrap();
        assert_eq!(
            cache.misses(),
            miss_before + 1,
            "1 should have been evicted"
        );
        let counters = cache.counters();
        assert!(
            counters.evictions >= 1,
            "capacity evictions must be counted"
        );
        assert_eq!(counters.hits, cache.hits());
        assert_eq!(counters.misses, cache.misses());
        assert!(counters.hit_rate() > 0.0 && counters.hit_rate() < 1.0);
    }

    #[test]
    fn evict_file_is_not_a_capacity_eviction() {
        let cache = BlockCache::new(1 << 20);
        cache.get_or_load((7, 0), || Ok(make_block(1, 10))).unwrap();
        cache.evict_file(7);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn evict_file_drops_all_its_blocks() {
        let cache = BlockCache::new(1 << 20);
        cache.get_or_load((7, 0), || Ok(make_block(1, 10))).unwrap();
        cache
            .get_or_load((7, 100), || Ok(make_block(2, 10)))
            .unwrap();
        cache.get_or_load((8, 0), || Ok(make_block(3, 10))).unwrap();
        cache.evict_file(7);
        let misses = cache.misses();
        cache.get_or_load((8, 0), || panic!("should hit")).unwrap();
        cache.get_or_load((7, 0), || Ok(make_block(1, 10))).unwrap();
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn shards_are_a_power_of_two_and_spread_keys() {
        let cache = BlockCache::with_shards(1 << 20, 6);
        assert_eq!(cache.shard_count(), 8);
        // Blocks from many files must not all land in one shard.
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..64u64 {
            seen.insert(shard_hash((f, 0)) & cache.mask);
        }
        assert!(seen.len() > 1, "hash must spread files across shards");
        // Same key always maps to the same shard (stability).
        assert_eq!(shard_hash((3, 7)), shard_hash((3, 7)));
    }

    #[test]
    fn zero_copy_handles_share_one_decode() {
        let cache = BlockCache::new(1 << 20);
        let a = cache.get_or_load((1, 0), || Ok(make_block(1, 64))).unwrap();
        let b = cache.get_or_load((1, 0), || panic!("hit")).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits must return the same Arc<Block>");
    }

    #[test]
    fn pinned_bytes_squeeze_data_blocks() {
        let cache = BlockCache::with_shards(2048, 1);
        cache
            .get_or_load((1, 0), || Ok(make_block(1, 900)))
            .unwrap();
        cache
            .get_or_load((2, 0), || Ok(make_block(2, 900)))
            .unwrap();
        assert_eq!(cache.evictions(), 0);
        // Pinning a large index charge forces data blocks out (down to the
        // keep-one floor).
        cache.charge_pinned(9, 1800);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.pinned_bytes(), 1800);
        cache.release_pinned(9, 1800);
        assert_eq!(cache.pinned_bytes(), 0);
    }

    /// Keys in eviction order.
    fn keys_lru_first<K: Copy + Default + Eq + Hash, V>(lru: &Lru<K, V>) -> Vec<K> {
        let mut keys = Vec::with_capacity(lru.len());
        let mut slot = lru.node(SENTINEL).prev;
        while slot != SENTINEL {
            keys.push(lru.node(slot).key);
            slot = lru.node(slot).prev;
        }
        keys
    }

    #[test]
    fn lru_reuses_slots_after_remove() {
        let mut lru: Lru<u64, &str> = Lru::new();
        for (k, v) in [(1, "a"), (2, "b"), (3, "c")] {
            assert_eq!(lru.insert(k, v), None);
        }
        assert_eq!(lru.remove(&2), Some("b"));
        assert_eq!(lru.remove(&2), None);
        assert_eq!(keys_lru_first(&lru), vec![1, 3]);
        // The freed slot is taken again; the slab does not grow.
        lru.insert(4, "d");
        assert_eq!(lru.slab.len(), 1 + 3);
        assert_eq!(keys_lru_first(&lru), vec![1, 3, 4]);
        // Replacing a key keeps one entry for it and makes it the newest.
        assert_eq!(lru.insert(1, "a2"), Some("a"));
        assert_eq!(lru.slab.len(), 1 + 3);
        assert_eq!(keys_lru_first(&lru), vec![3, 4, 1]);
        assert_eq!(lru.touch(&3), Some(&"c"));
        assert_eq!(keys_lru_first(&lru), vec![4, 1, 3]);
        let mut gone = Vec::new();
        lru.remove_where(|k| *k != 1, |v| gone.push(v));
        assert_eq!(gone, vec!["d", "c"]);
        assert_eq!(keys_lru_first(&lru), vec![1]);
        assert_eq!((lru.len(), lru.free.len()), (1, 2));
    }

    #[test]
    fn lru_pops_its_only_entry() {
        let mut lru: Lru<u64, u8> = Lru::new();
        assert_eq!(lru.pop_lru(), None);
        lru.insert(7, 70);
        assert_eq!(lru.pop_lru(), Some((7, 70)));
        let sentinel = lru.node(SENTINEL);
        assert_eq!(
            (sentinel.prev, sentinel.next, lru.len()),
            (SENTINEL, SENTINEL, 0)
        );
        assert_eq!(lru.pop_lru(), None);
        assert_eq!(lru.touch(&7), None);
        // Empty again, it takes entries as a new list does.
        lru.insert(8, 80);
        lru.insert(9, 90);
        assert_eq!(lru.pop_lru(), Some((8, 80)));
        assert_eq!(keys_lru_first(&lru), vec![9]);
    }

    /// One shard of the cache this file held before [`Lru`]: a map plus a
    /// `BTreeMap<tick, key>`, a fresh tick on every hit and insert, the
    /// lowest tick evicted. Kept, without the locks and the blocks (sizes
    /// are enough), as the oracle the list's order is tested against.
    #[derive(Default)]
    struct TickShard {
        map: HashMap<BlockKey, (usize, u64)>,
        lru: BTreeMap<u64, BlockKey>,
        used_bytes: usize,
        pinned_bytes: usize,
        next_tick: u64,
    }

    impl TickShard {
        fn evict_to(&mut self, capacity: usize) -> u64 {
            let mut evicted = 0;
            while self.used_bytes + self.pinned_bytes > capacity && self.map.len() > 1 {
                let Some((_, oldest_key)) = self.lru.pop_first() else {
                    break;
                };
                if let Some((size, _)) = self.map.remove(&oldest_key) {
                    self.used_bytes -= size;
                    evicted += 1;
                }
            }
            evicted
        }
    }

    struct TickCache {
        shard_capacity: usize,
        shards: Vec<TickShard>,
        counters: CacheCounters,
    }

    impl TickCache {
        fn new(capacity_bytes: usize, shards: usize) -> Self {
            Self {
                shard_capacity: capacity_bytes / shards,
                shards: (0..shards).map(|_| TickShard::default()).collect(),
                counters: CacheCounters::default(),
            }
        }

        fn shard(&mut self, key: BlockKey) -> &mut TickShard {
            let mask = self.shards.len() as u64 - 1;
            &mut self.shards[(shard_hash(key) & mask) as usize]
        }

        /// `size` is the size of the block a miss would load.
        fn get_or_load(&mut self, key: BlockKey, size: usize) {
            let capacity = self.shard_capacity;
            let shard = self.shard(key);
            let tick = shard.next_tick;
            shard.next_tick += 1;
            if let Some((_, old_tick)) = shard.map.get_mut(&key) {
                shard.lru.remove(&std::mem::replace(old_tick, tick));
                shard.lru.insert(tick, key);
                self.counters.hits += 1;
                return;
            }
            shard.used_bytes += size;
            shard.map.insert(key, (size, tick));
            shard.lru.insert(tick, key);
            let evicted = shard.evict_to(capacity);
            self.counters.misses += 1;
            self.counters.evictions += evicted;
        }

        fn evict_file(&mut self, file_number: u64) {
            for shard in &mut self.shards {
                let mut doomed: Vec<(u64, BlockKey)> = shard
                    .map
                    .iter()
                    .filter(|((f, _), _)| *f == file_number)
                    .map(|(k, (_, tick))| (*tick, *k))
                    .collect();
                doomed.sort_unstable();
                for (tick, key) in doomed {
                    shard.lru.remove(&tick);
                    if let Some((size, _)) = shard.map.remove(&key) {
                        shard.used_bytes -= size;
                    }
                }
            }
        }

        fn charge_pinned(&mut self, file_number: u64, bytes: usize) {
            let capacity = self.shard_capacity;
            let shard = self.shard((file_number, u64::MAX));
            shard.pinned_bytes += bytes;
            let evicted = shard.evict_to(capacity);
            self.counters.evictions += evicted;
        }

        fn release_pinned(&mut self, file_number: u64, bytes: usize) {
            let shard = self.shard((file_number, u64::MAX));
            shard.pinned_bytes = shard.pinned_bytes.saturating_sub(bytes);
        }

        fn used_bytes(&self) -> usize {
            self.shards
                .iter()
                .map(|s| s.used_bytes + s.pinned_bytes)
                .sum()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        GetOrLoad { key: BlockKey, payload: usize },
        EvictFile(u64),
        ChargePinned(u64, usize),
        ReleasePinned(u64, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            12 => (0..6u64, 0..10u64, 1..9usize).prop_map(|(file, block, eighths)| Op::GetOrLoad {
                key: (file, block * 4096),
                payload: eighths * 128,
            }),
            1 => (0..6u64).prop_map(Op::EvictFile),
            1 => (0..6u64, 1..1500usize).prop_map(|(f, n)| Op::ChargePinned(f, n)),
            1 => (0..6u64, 1..1500usize).prop_map(|(f, n)| Op::ReleasePinned(f, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// After every step of a random history of flushes, links, merges
        /// and reclamations, each level's slots name the version's files in
        /// its file order and are the very slots the map holds, every file
        /// has exactly one slot, and a slot whose file left stays retired
        /// and out of every later set.
        #[test]
        fn successor_keeps_level_slots_in_file_order(
            steps in prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 1..80),
        ) {
            let levels = 4;
            let mut version = Version::new(levels);
            let mut counters = Counters::new(levels);
            let storage = ldc_ssd::MemStorage::new(ldc_ssd::SsdDevice::new(
                ldc_ssd::SsdConfig::tiny_for_tests(),
            ));
            let mut set = TableSet::new(storage, Arc::new(BlockCache::new(1 << 20)), &version);
            let mut retired: Vec<Arc<TableSlot>> = Vec::new();
            for (kind, a, b) in steps {
                if !apply_random_edit(&mut version, &mut counters, kind, a, b) {
                    continue;
                }
                let next = set.successor(&version);
                retired.extend(
                    set.slots
                        .iter()
                        .filter(|(number, _)| !next.slots.contains_key(number))
                        .map(|(_, slot)| Arc::clone(slot)),
                );
                set = next;
                prop_assert_eq!(set.levels.len(), version.levels.len());
                for (level, files) in version.levels.iter().enumerate() {
                    prop_assert_eq!(set.levels[level].len(), files.len());
                    for (j, file) in files.iter().enumerate() {
                        let slot = set.level_slot(level, j).unwrap();
                        prop_assert_eq!(slot.number, file.number);
                        let mapped = set.slots.get(&file.number).unwrap();
                        prop_assert!(std::ptr::eq(slot, mapped.as_ref()), "level {} file {}", level, j);
                        prop_assert_ne!(slot.charge.load(Ordering::Acquire), RETIRED);
                    }
                }
                prop_assert!(set.level_slot(levels, 0).is_err());
                let live: usize = version.levels.iter().map(Vec::len).sum();
                prop_assert_eq!(set.slots.len(), live + version.frozen.len());
                for &number in version.frozen.keys() {
                    prop_assert_eq!(set.slot(number).unwrap().number, number);
                }
                for slot in &retired {
                    prop_assert_eq!(slot.charge.load(Ordering::Acquire), RETIRED);
                    prop_assert!(set.slot(slot.number).is_err(), "retired file {} is back", slot.number);
                }
            }
        }

        /// The list keeps the order the ticks kept: after every operation of
        /// a random sequence the two caches agree on the hit / miss /
        /// eviction counters, on the bytes in use and pinned, and on the
        /// eviction order of every shard — so each victim was the same one.
        #[test]
        fn lru_order_equals_tick_order(
            shards in prop_oneof![Just(1usize), Just(4usize)],
            capacity in 2_000..12_000usize,
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let cache = BlockCache::with_shards(capacity, shards);
            let mut model = TickCache::new(capacity, shards);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::GetOrLoad { key, payload } => {
                        let block = make_block(key.0 as u8, payload);
                        model.get_or_load(key, block.size());
                        cache.get_or_load(key, || Ok(block)).unwrap();
                    }
                    Op::EvictFile(file) => {
                        model.evict_file(file);
                        cache.evict_file(file);
                    }
                    Op::ChargePinned(file, bytes) => {
                        model.charge_pinned(file, bytes);
                        cache.charge_pinned(file, bytes);
                    }
                    Op::ReleasePinned(file, bytes) => {
                        model.release_pinned(file, bytes);
                        cache.release_pinned(file, bytes);
                    }
                }
                prop_assert_eq!(cache.counters(), model.counters, "step {} {:?}", step, op);
                prop_assert_eq!(cache.used_bytes(), model.used_bytes(), "step {} {:?}", step, op);
                for (real, want) in cache.shards.iter().zip(&model.shards) {
                    let order = keys_lru_first(&real.inner.lock().blocks);
                    let want: Vec<BlockKey> = want.lru.values().copied().collect();
                    prop_assert_eq!(order, want, "step {} {:?}", step, op);
                }
            }
        }
    }
}
