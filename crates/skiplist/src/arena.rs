//! A skip list built inside one contiguous arena.
//!
//! This is the structure used for DRAM MemTables and — because one-piece
//! flushing copies the arena verbatim — for freshly flushed PMTables. All
//! node offsets and link words are pool-global, so an arena in the DRAM
//! pool can be rebased into the NVM pool by adding a constant delta
//! (see [`crate::flush`]).
//!
//! # Write synchronization
//!
//! [`SkipListArena::insert`] takes `&self` so the arena can be shared, but
//! callers must serialize writers externally (MioDB has a single foreground
//! writer per MemTable, like LevelDB). [`SkipListArena::insert_concurrent`]
//! lifts that restriction: allocation becomes an atomic bump
//! (`fetch_add`) and link splicing a per-level compare-and-swap with
//! retry, so the members of one write group can insert in parallel
//! (RocksDB's `allow_concurrent_memtable_write`). The two insert paths
//! must not run at the same time on one arena — the engine guarantees
//! this by holding the writer mutex for the duration of a group.
//! Concurrent **readers** are safe at all times: nodes are fully written
//! before the release/CAS that publishes them, and offsets are never
//! reused within an arena so traversals cannot observe ABA.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use miodb_common::types::mv_cmp;
use miodb_common::{Error, OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};

use crate::node::{self, node_size, raw, SkipList, MAX_HEIGHT};

/// Branching probability denominator: a node grows a level with p = 1/4.
const BRANCH: u64 = 4;

/// Process-wide seed sequence so arenas recycled at the same pool offset
/// still draw independent tower heights — identical height sequences
/// across MemTables would cap the max height of tables merged from them,
/// degenerating descents to near-linear walks.
static ARENA_SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

pub(crate) fn next_seed(salt: u64) -> u64 {
    let s = ARENA_SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    // splitmix64 finish over the counter, salted by the arena offset.
    let mut z = s ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// A multi-version skip list owning a bump-allocated arena.
pub struct SkipListArena {
    /// The arena's memory; retired by [`SkipListArena::retire`].
    lease: RegionLease,
    /// Next free pool-global offset.
    cursor: AtomicU64,
    /// Xorshift state for tower heights.
    rng: AtomicU64,
    /// Number of data nodes inserted.
    len: AtomicU64,
    /// Total user bytes (keys + values) inserted.
    data_bytes: AtomicU64,
}

impl std::fmt::Debug for SkipListArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipListArena")
            .field("head", &self.head())
            .field("capacity", &self.region().len)
            .field("used", &self.used_bytes())
            .field("len", &self.len())
            .finish()
    }
}

impl SkipListArena {
    /// Allocates a `capacity`-byte arena in `pool` and initializes an empty
    /// list (the head node sits at the arena start).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] if the pool cannot fit the arena,
    /// or [`Error::InvalidArgument`] for capacities too small for a head
    /// node.
    pub fn new(pool: Arc<PmemPool>, capacity: usize) -> Result<SkipListArena> {
        let head_size = node_size(MAX_HEIGHT, 0, 0);
        if (capacity as u64) < head_size * 2 {
            return Err(Error::InvalidArgument(format!(
                "arena capacity {capacity} too small"
            )));
        }
        let region = pool.alloc(capacity)?;
        let head = region.offset;
        raw::write_header(&pool, head, 0, 0, 0, MAX_HEIGHT, OpKind::Put);
        // Zero the head tower explicitly: the region may be recycled memory.
        for level in 0..MAX_HEIGHT {
            pool.atomic_u64(raw::tower_slot(head, level))
                .store(0, Ordering::Relaxed);
        }
        pool.charge_write(head_size as usize);
        Ok(SkipListArena {
            rng: AtomicU64::new(next_seed(head)),
            lease: RegionLease::new(pool, region),
            cursor: AtomicU64::new(head + head_size),
            len: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
        })
    }

    /// The pool this arena was allocated from.
    pub fn pool(&self) -> &Arc<PmemPool> {
        self.lease.pool()
    }

    /// The arena's region within the pool.
    pub fn region(&self) -> PmemRegion {
        self.lease.region()
    }

    /// Offset of the head node (== region start).
    pub fn head(&self) -> u64 {
        self.region().offset
    }

    /// Bytes consumed so far (head node included). Clamped to the region
    /// length: a failed concurrent reservation may leave the cursor past
    /// the end, and flush copies exactly `used_bytes()`.
    pub fn used_bytes(&self) -> u64 {
        (self.cursor.load(Ordering::Acquire) - self.head()).min(self.region().len)
    }

    /// Bytes still available for nodes (0 once the cursor overshoots).
    pub fn remaining_bytes(&self) -> u64 {
        self.region()
            .end()
            .saturating_sub(self.cursor.load(Ordering::Acquire))
    }

    /// Number of data nodes.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Returns `true` if no data nodes have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total user bytes (keys + values) inserted.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes.load(Ordering::Acquire)
    }

    /// A read-only view of the list.
    pub fn list(&self) -> SkipList {
        SkipList::from_raw(self.pool().clone(), self.head())
    }

    /// Checks whether an entry of the given dimensions would fit.
    pub fn fits(&self, klen: usize, vlen: usize) -> bool {
        node_size(MAX_HEIGHT, klen, vlen) <= self.remaining_bytes()
    }

    /// Arena capacity guaranteed to accept one entry of the given
    /// dimensions — engines rotating to a fresh MemTable must size it at
    /// least this large or an oversized value would rotate forever.
    pub fn capacity_for_entry(klen: usize, vlen: usize) -> usize {
        (node_size(MAX_HEIGHT, 0, 0) + node_size(MAX_HEIGHT, klen, vlen) + 128) as usize
    }

    fn random_height(&self) -> usize {
        // Weyl increment + splitmix64 finish: `fetch_add` keeps the
        // sequence collision-free under concurrent callers (a racy
        // xorshift load/store would let two threads draw the same state).
        let s = self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut bits = z ^ (z >> 31);
        let mut h = 1;
        while h < MAX_HEIGHT && bits.is_multiple_of(BRANCH) {
            h += 1;
            bits /= BRANCH;
        }
        h
    }

    /// Reserves `size` bytes with an atomic bump, returning the node
    /// offset. On exhaustion the cursor may be left past the region end —
    /// `used_bytes`/`remaining_bytes` clamp for that — which is fine
    /// because callers seal the table on [`Error::ArenaFull`].
    fn alloc_node(&self, size: u64) -> Result<u64> {
        let off = self.cursor.fetch_add(size, Ordering::AcqRel);
        if off + size > self.region().end() {
            return Err(Error::ArenaFull);
        }
        Ok(off)
    }

    /// Writes the node payload (header, key, value) at `off`, leaving the
    /// tower unlinked. Shared by both insert paths.
    fn write_node(
        &self,
        off: u64,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
        height: usize,
    ) {
        let pool: &PmemPool = self.pool();
        raw::write_header(pool, off, seq, key.len(), value.len(), height, kind);
        let kv_off = off + node::HEADER_BYTES + 8 * height as u64;
        pool.write_bytes(kv_off, key);
        if !value.is_empty() {
            pool.write_bytes(kv_off + key.len() as u64, value);
        }
        pool.charge_write((node::HEADER_BYTES + 8 * height as u64) as usize);
    }

    /// Inserts a version of `key`. Multiple versions of the same key may
    /// coexist (ordered newest-first); tombstones are ordinary entries with
    /// [`OpKind::Delete`].
    ///
    /// Requires external writer serialization; see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaFull`] when the arena cannot fit the node —
    /// the caller should seal this table and open a new one.
    pub fn insert(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        self.insert_with_height(key, value, seq, kind, self.random_height())
    }

    /// [`SkipListArena::insert`] with the tower height, `1..=MAX_HEIGHT`,
    /// chosen by the caller (tests that need a particular shape).
    ///
    /// # Errors
    ///
    /// As `insert`, and [`Error::InvalidArgument`] for a height out of
    /// range.
    pub fn insert_with_height(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
        height: usize,
    ) -> Result<()> {
        if key.len() > u32::MAX as usize || value.len() > u32::MAX as usize {
            return Err(Error::InvalidArgument("key/value too large".to_string()));
        }
        if !(1..=MAX_HEIGHT).contains(&height) {
            return Err(Error::InvalidArgument(format!("tower height {height}")));
        }
        let size = node_size(height, key.len(), value.len());
        let off = self.alloc_node(size)?;
        let pool: &PmemPool = self.pool();

        // Write the node fully before publication.
        self.write_node(off, key, value, seq, kind, height);

        // Find predecessors and link bottom-up with release stores.
        let mut preds = [0u64; MAX_HEIGHT];
        let list = self.list();
        let _ = list.find_geq(key, seq, &mut preds);
        #[allow(clippy::needless_range_loop)] // level indexes preds AND towers
        for level in 0..height {
            let succ = raw::next(pool, preds[level], level);
            pool.atomic_u64(raw::tower_slot(off, level))
                .store(succ, Ordering::Relaxed);
            raw::set_next(pool, preds[level], level, off);
        }
        self.len.fetch_add(1, Ordering::Release);
        self.data_bytes
            .fetch_add((key.len() + value.len()) as u64, Ordering::Release);
        Ok(())
    }

    /// Inserts a version of `key` concurrently with other
    /// `insert_concurrent` callers on the same arena: allocation is an
    /// atomic bump, and each tower level is spliced with a
    /// compare-and-swap that retries after re-locating predecessors.
    ///
    /// Correctness notes:
    /// - `(key, seq)` positions are unique (the engine allocates unique
    ///   sequence numbers), so no two inserts compete for the same slot.
    /// - The level-0 CAS uses release ordering, publishing the fully
    ///   written node to acquire-side readers exactly like the
    ///   single-writer path.
    /// - Offsets are never recycled inside an arena, so a CAS cannot
    ///   succeed against a stale-but-reallocated successor (no ABA).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaFull`] when the arena cannot fit the node.
    pub fn insert_concurrent(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        if key.len() > u32::MAX as usize || value.len() > u32::MAX as usize {
            return Err(Error::InvalidArgument("key/value too large".to_string()));
        }
        let height = self.random_height();
        let size = node_size(height, key.len(), value.len());
        let off = self.alloc_node(size)?;
        let pool: &PmemPool = self.pool();

        // Write the node fully before publication.
        self.write_node(off, key, value, seq, kind, height);

        let list = self.list();
        let mut preds = [0u64; MAX_HEIGHT];
        let _ = list.find_geq(key, seq, &mut preds);
        for level in 0..height {
            loop {
                let pred = preds[level];
                let succ = raw::next(pool, pred, level);
                if succ != 0 {
                    let sk = raw::key(pool, succ);
                    let ss = raw::seq(pool, succ);
                    if mv_cmp(sk, ss, key, seq) == std::cmp::Ordering::Less {
                        // A racing insert landed between pred and us; the
                        // cached predecessor is stale. Re-descend.
                        let _ = list.find_geq(key, seq, &mut preds);
                        continue;
                    }
                }
                // Point our tower at the observed successor first; the
                // successful CAS (release) then publishes node + link in
                // one step.
                pool.atomic_u64(raw::tower_slot(off, level))
                    .store(succ, Ordering::Relaxed);
                if raw::cas_next(pool, pred, level, succ, off) {
                    break;
                }
                let _ = list.find_geq(key, seq, &mut preds);
            }
        }
        self.len.fetch_add(1, Ordering::Release);
        self.data_bytes
            .fetch_add((key.len() + value.len()) as u64, Ordering::Release);
        Ok(())
    }

    /// Marks the arena's memory as garbage: it returns to the pool when
    /// the last handle to this arena drops. Readers iterate the arena
    /// through [`SkipList`] views that do not own it, so they must hold a
    /// handle (an `Arc<SkipListArena>`) for as long as they look.
    pub fn retire(&self) {
        self.lease.retire();
    }

    /// Retires the arena and drops this handle: a sole owner's memory is
    /// back in the pool when this returns.
    pub fn release(self) {
        self.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;

    fn arena(cap: usize) -> SkipListArena {
        let pool = PmemPool::new(8 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        SkipListArena::new(pool, cap).unwrap()
    }

    #[test]
    fn empty_list() {
        let t = arena(64 * 1024);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.list().get(b"missing").is_none());
        assert!(t.list().is_empty());
    }

    #[test]
    fn insert_and_get() {
        let t = arena(64 * 1024);
        t.insert(b"apple", b"red", 1, OpKind::Put).unwrap();
        t.insert(b"banana", b"yellow", 2, OpKind::Put).unwrap();
        let r = t.list().get(b"apple").unwrap();
        assert_eq!(r.value, b"red");
        assert_eq!(r.seq, 1);
        assert_eq!(r.kind, OpKind::Put);
        assert_eq!(t.list().get(b"banana").unwrap().value, b"yellow");
        assert!(t.list().get(b"cherry").is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn newest_version_wins() {
        let t = arena(64 * 1024);
        t.insert(b"k", b"v1", 1, OpKind::Put).unwrap();
        t.insert(b"k", b"v2", 2, OpKind::Put).unwrap();
        t.insert(b"k", b"v3", 3, OpKind::Put).unwrap();
        let r = t.list().get(b"k").unwrap();
        assert_eq!(r.value, b"v3");
        assert_eq!(r.seq, 3);
        assert_eq!(t.list().count_nodes(), 3, "all versions retained");
    }

    #[test]
    fn tombstone_is_visible_as_newest() {
        let t = arena(64 * 1024);
        t.insert(b"k", b"v", 1, OpKind::Put).unwrap();
        t.insert(b"k", b"", 2, OpKind::Delete).unwrap();
        let r = t.list().get(b"k").unwrap();
        assert_eq!(r.kind, OpKind::Delete);
        assert_eq!(r.seq, 2);
    }

    #[test]
    fn arena_full_is_reported() {
        let t = arena(1024);
        let big = vec![0u8; 600];
        t.insert(b"a", &big, 1, OpKind::Put).unwrap();
        let err = t.insert(b"b", &big, 2, OpKind::Put).unwrap_err();
        assert!(matches!(err, Error::ArenaFull));
        // The first entry is still intact.
        assert_eq!(t.list().get(b"a").unwrap().value, big);
    }

    #[test]
    fn ordered_iteration() {
        let t = arena(1 << 20);
        let mut keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("key{i:05}").into_bytes())
            .collect();
        // Insert shuffled.
        let mut shuffled = keys.clone();
        let mut state = 12345u64;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        for (i, k) in shuffled.iter().enumerate() {
            t.insert(k, b"v", i as u64 + 1, OpKind::Put).unwrap();
        }
        let got: Vec<Vec<u8>> = t.list().iter().map(|e| e.key).collect();
        keys.sort();
        assert_eq!(got, keys);
    }

    #[test]
    fn same_key_versions_iterate_newest_first() {
        let t = arena(64 * 1024);
        t.insert(b"k", b"v1", 1, OpKind::Put).unwrap();
        t.insert(b"k", b"v2", 2, OpKind::Put).unwrap();
        let seqs: Vec<u64> = t.list().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 1]);
    }

    #[test]
    fn used_bytes_grows_monotonically() {
        let t = arena(1 << 20);
        let before = t.used_bytes();
        t.insert(b"key", &[0u8; 100], 1, OpKind::Put).unwrap();
        assert!(t.used_bytes() > before);
        assert_eq!(t.data_bytes(), 103);
    }

    #[test]
    fn empty_key_is_supported() {
        let t = arena(64 * 1024);
        t.insert(b"", b"root", 1, OpKind::Put).unwrap();
        assert_eq!(t.list().get(b"").unwrap().value, b"root");
    }

    #[test]
    fn release_returns_memory() {
        let pool = PmemPool::new(1 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        let before = pool.used_bytes();
        let t = SkipListArena::new(pool.clone(), 64 * 1024).unwrap();
        assert!(pool.used_bytes() > before);
        t.release();
        assert_eq!(pool.used_bytes(), before);
    }

    #[test]
    fn retired_arena_outlives_its_owner_while_a_reader_holds_it() {
        let pool = PmemPool::new(1 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        let before = pool.used_bytes();
        let owner = Arc::new(SkipListArena::new(pool.clone(), 64 * 1024).unwrap());
        owner.insert(b"k", b"v", 1, OpKind::Put).unwrap();
        let reader = owner.clone();
        owner.retire();
        drop(owner);
        assert!(pool.used_bytes() > before, "reader still holds the arena");
        assert_eq!(reader.list().get(b"k").unwrap().value, b"v");
        drop(reader);
        assert_eq!(pool.used_bytes(), before);
    }

    #[test]
    fn dropping_an_unretired_arena_frees_nothing() {
        let pool = PmemPool::new(1 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        let t = SkipListArena::new(pool.clone(), 64 * 1024).unwrap();
        let used = pool.used_bytes();
        drop(t);
        assert_eq!(pool.used_bytes(), used);
    }

    #[test]
    fn iter_from_seeks_correctly() {
        let t = arena(1 << 20);
        for i in 0..50u32 {
            t.insert(
                format!("k{i:03}").as_bytes(),
                b"v",
                i as u64 + 1,
                OpKind::Put,
            )
            .unwrap();
        }
        let first = t.list().iter_from(b"k025").next().unwrap();
        assert_eq!(first.key, b"k025");
        // Seeking between keys lands on the next one.
        let first = t.list().iter_from(b"k0255").next().unwrap();
        assert_eq!(first.key, b"k026");
        // Seeking past the end yields nothing.
        assert!(t.list().iter_from(b"z").next().is_none());
    }

    #[test]
    fn concurrent_inserts_preserve_order_and_visibility() {
        let t = Arc::new(arena(4 << 20));
        let threads = 8usize;
        let per = 1_500u64;
        std::thread::scope(|s| {
            for tid in 0..threads as u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let k = format!("key{:06}", i * threads as u64 + tid);
                        let v = format!("val{tid}-{i}");
                        let seq = tid * per + i + 1;
                        t.insert_concurrent(k.as_bytes(), v.as_bytes(), seq, OpKind::Put)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), threads * per as usize);
        // Every key readable with the value written by its owner thread.
        for tid in 0..threads as u64 {
            for i in (0..per).step_by(97) {
                let k = format!("key{:06}", i * threads as u64 + tid);
                let r = t.list().get(k.as_bytes()).unwrap();
                assert_eq!(r.value, format!("val{tid}-{i}").into_bytes());
            }
        }
        // Level-0 walk is fully sorted and complete.
        let mut n = 0usize;
        let mut prev: Option<(Vec<u8>, u64)> = None;
        for e in t.list().iter() {
            if let Some((pk, ps)) = &prev {
                assert!(
                    mv_cmp(pk, *ps, &e.key, e.seq) == std::cmp::Ordering::Less,
                    "order violated at {:?}",
                    e.key
                );
            }
            prev = Some((e.key.clone(), e.seq));
            n += 1;
        }
        assert_eq!(n, threads * per as usize, "level-0 chain lost nodes");
    }

    #[test]
    fn concurrent_inserts_on_same_key_keep_all_versions() {
        let t = Arc::new(arena(4 << 20));
        let threads = 6u64;
        let per = 500u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let seq = tid * per + i + 1;
                        t.insert_concurrent(b"hot", format!("{seq}").as_bytes(), seq, OpKind::Put)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.list().count_nodes(), (threads * per) as usize);
        let r = t.list().get(b"hot").unwrap();
        assert_eq!(r.seq, threads * per, "newest version must win");
        // Versions iterate newest-first with no duplicates.
        let seqs: Vec<u64> = t.list().iter().map(|e| e.seq).collect();
        let want: Vec<u64> = (1..=threads * per).rev().collect();
        assert_eq!(seqs, want);
    }

    #[test]
    fn concurrent_arena_full_leaves_list_consistent() {
        let t = Arc::new(arena(32 * 1024));
        let full = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = t.clone();
                let full = full.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = format!("k{tid}-{i:04}");
                        match t.insert_concurrent(
                            k.as_bytes(),
                            &[7u8; 128],
                            tid * 200 + i + 1,
                            OpKind::Put,
                        ) {
                            Ok(()) => {}
                            Err(Error::ArenaFull) => {
                                full.store(true, Ordering::Release);
                                break;
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        assert!(full.load(Ordering::Acquire), "arena was sized to overflow");
        assert!(
            t.used_bytes() <= t.region().len,
            "used_bytes must stay clamped"
        );
        assert_eq!(t.remaining_bytes(), 0);
        // Everything that was acknowledged is readable and ordered.
        assert_eq!(t.list().count_nodes(), t.len());
    }

    #[test]
    fn height_distribution_is_geometric() {
        let t = arena(4 << 20);
        let mut heights = [0usize; MAX_HEIGHT + 1];
        for _ in 0..10_000 {
            heights[t.random_height()] += 1;
        }
        assert!(heights[1] > 6_000, "h=1 count {}", heights[1]);
        assert!(heights[2] > 1_000, "h=2 count {}", heights[2]);
        assert!(heights[2] < heights[1]);
        assert_eq!(heights[0], 0);
    }
}
