//! Node layout and the read-only [`SkipList`] view.
//!
//! Every node is laid out inside an arena as:
//!
//! ```text
//! offset  field
//! 0       seq     u64
//! 8       klen    u32
//! 12      vlen    u32
//! 16      height  u16
//! 18      kind    u8
//! 19..24  padding
//! 24      tower   height × u64 link words (pool-global offsets, atomics)
//! 24+8h   key bytes, then value bytes (8-aligned total)
//! ```
//!
//! Link words hold **pool-global offsets** — the reproduction's equivalent
//! of absolute pointers at a fixed DAX mapping — so zero-copy compaction
//! can link nodes of different arenas into one list. Offset `0` is NIL.
//! Zero-copy compaction links at level 0 only: a PMTable's towers are
//! searched and written by nothing after its flush. The data repository's
//! nodes have no tower at all (height 1): lazy copy links them at level 0
//! only, planned from the repository's DRAM index.
//!
//! Payload bytes (`seq..key/value`) are written before a node is published
//! and never mutated afterwards; link words are accessed only through
//! atomics (release on publish, acquire on traversal).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use miodb_common::types::mv_cmp;
use miodb_common::{OpKind, SequenceNumber};
use miodb_pmem::PmemPool;

/// Maximum tower height. Head nodes always have this height.
pub const MAX_HEIGHT: usize = 16;

/// Byte offset of the tower within a node.
pub const TOWER_OFFSET: u64 = 24;

/// Size of the fixed node header (before the tower).
pub const HEADER_BYTES: u64 = TOWER_OFFSET;

/// Modeled bytes touched when a traversal inspects one node (header plus a
/// cache line of key bytes).
pub(crate) const VISIT_BYTES: usize = 32;

/// Total size in bytes of a node with the given dimensions, 8-aligned.
pub fn node_size(height: usize, klen: usize, vlen: usize) -> u64 {
    let raw = HEADER_BYTES + 8 * height as u64 + klen as u64 + vlen as u64;
    (raw + 7) & !7
}

/// Raw field readers. `off` must point at a node previously written in
/// `pool` (and published, for concurrent use).
pub(crate) mod raw {
    use super::*;

    #[inline]
    pub fn seq(pool: &PmemPool, off: u64) -> SequenceNumber {
        pool.read_u64(off)
    }

    #[inline]
    pub fn klen(pool: &PmemPool, off: u64) -> usize {
        (pool.read_u64(off + 8) & 0xFFFF_FFFF) as usize
    }

    #[inline]
    pub fn vlen(pool: &PmemPool, off: u64) -> usize {
        (pool.read_u64(off + 8) >> 32) as usize
    }

    #[inline]
    pub fn height(pool: &PmemPool, off: u64) -> usize {
        (pool.read_u64(off + 16) & 0xFFFF) as usize
    }

    #[inline]
    pub fn kind(pool: &PmemPool, off: u64) -> OpKind {
        let b = (pool.read_u64(off + 16) >> 16) as u8;
        OpKind::from_u8(b).unwrap_or(OpKind::Put)
    }

    /// Borrows the key bytes of the node.
    ///
    /// SAFETY-internal: key bytes are immutable after publication.
    #[inline]
    pub fn key(pool: &PmemPool, off: u64) -> &[u8] {
        let h = height(pool, off) as u64;
        let k = klen(pool, off);
        // SAFETY: written before publication, never mutated (crate invariant).
        unsafe { pool.slice(off + HEADER_BYTES + 8 * h, k) }
    }

    /// Borrows the value bytes of the node.
    #[inline]
    pub fn value(pool: &PmemPool, off: u64) -> &[u8] {
        let h = height(pool, off) as u64;
        let k = klen(pool, off) as u64;
        let v = vlen(pool, off);
        // SAFETY: as for `key`.
        unsafe { pool.slice(off + HEADER_BYTES + 8 * h + k, v) }
    }

    /// Where the node's value lives, and its kind.
    #[inline]
    pub fn value_ref(pool: &PmemPool, off: u64) -> ValueRef {
        let h = height(pool, off);
        let offset = off + HEADER_BYTES + 8 * h as u64 + klen(pool, off) as u64;
        ValueRef::new(offset, vlen(pool, off), kind(pool, off), h)
    }

    /// Offset of the link word for `level`.
    #[inline]
    pub fn tower_slot(off: u64, level: usize) -> u64 {
        off + TOWER_OFFSET + 8 * level as u64
    }

    /// Acquire-loads the successor at `level`.
    #[inline]
    pub fn next(pool: &PmemPool, off: u64, level: usize) -> u64 {
        pool.atomic_u64(tower_slot(off, level))
            .load(Ordering::Acquire)
    }

    /// Release-stores the successor at `level`, charging one modeled
    /// 8-byte device write (the paper's "atomic pointer update").
    #[inline]
    pub fn set_next(pool: &PmemPool, off: u64, level: usize, target: u64) {
        pool.atomic_u64(tower_slot(off, level))
            .store(target, Ordering::Release);
        pool.charge_write(8);
    }

    /// Compare-and-swaps the successor at `level` from `current` to
    /// `target`. Success publishes `target` with release ordering (all
    /// prior stores to the new node become visible to acquire traversals)
    /// and charges one modeled 8-byte device write; failure charges
    /// nothing and the caller must re-locate its predecessors.
    #[inline]
    pub fn cas_next(pool: &PmemPool, off: u64, level: usize, current: u64, target: u64) -> bool {
        let ok = pool
            .atomic_u64(tower_slot(off, level))
            .compare_exchange(current, target, Ordering::Release, Ordering::Relaxed)
            .is_ok();
        if ok {
            pool.charge_write(8);
        }
        ok
    }

    /// Writes the full node header (seq, lens, height, kind) without
    /// touching the tower.
    pub fn write_header(
        pool: &PmemPool,
        off: u64,
        seq: SequenceNumber,
        klen: usize,
        vlen: usize,
        height: usize,
        kind: OpKind,
    ) {
        pool.write_u64(off, seq);
        pool.write_u64(off + 8, (klen as u64) | ((vlen as u64) << 32));
        pool.write_u64(off + 16, (height as u64) | ((kind as u64) << 16));
    }

    /// Charges the modeled cost of inspecting one node during traversal.
    #[inline]
    pub fn charge_visit(pool: &PmemPool) {
        pool.charge_read(VISIT_BYTES);
    }
}

#[cfg(test)]
thread_local! {
    /// Runs once, at the end of the next [`find_preds`] on this thread —
    /// after its last comparison, before it returns.
    static AFTER_DESCENT: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

/// The point where a test splices concurrently with a finished descent;
/// nothing outside the tests.
#[inline]
fn after_descent() {
    #[cfg(test)]
    if let Some(hook) = AFTER_DESCENT.with(std::cell::Cell::take) {
        hook();
    }
}

/// Whether `node`, a successor just loaded (0 at the end of a level), sorts
/// before the multi-version position `(key, seq)`. A node is recorded in
/// `seen` when its key is compared.
#[inline]
fn sorts_before(
    pool: &PmemPool,
    node: u64,
    key: &[u8],
    seq: SequenceNumber,
    seen: &mut smallset::SmallSet,
) -> bool {
    if node == 0 {
        return false;
    }
    seen.insert(node);
    mv_cmp(raw::key(pool, node), raw::seq(pool, node), key, seq) == std::cmp::Ordering::Less
}

/// Finds, for every level, the last node strictly before the multi-version
/// position `(key, seq)` in the list rooted at `head`; returns the first
/// node `>= (key, seq)` the level-0 step compared (or 0).
///
/// That successor is returned as loaded, never re-read from `preds[0]`: a
/// node spliced right before the target since the comparison would
/// otherwise be returned in its place, and a lookup would miss a key the
/// list holds.
///
/// This is the shared descent used by MemTable lookups and inserts and by
/// NoveLSM's big NVM MemTable; no PMTable is descended once flushed, and
/// the data repository never. Each inspected node is charged as one
/// modeled device read.
pub(crate) fn find_preds(
    pool: &PmemPool,
    head: u64,
    key: &[u8],
    seq: SequenceNumber,
    preds: &mut [u64; MAX_HEIGHT],
) -> u64 {
    // A node peeked once is CPU-cache resident afterwards; count the
    // modeled NVM read only on first inspection (exact dedup — descents
    // touch a few dozen nodes, so a linear scan is cheap), and charge the
    // whole descent in one batched call (same modeled latency per visit,
    // one spin).
    let mut seen = smallset::SmallSet::new();
    let (mut x, mut succ) = (head, 0);
    for level in (0..MAX_HEIGHT).rev() {
        loop {
            succ = raw::next(pool, x, level);
            if !sorts_before(pool, succ, key, seq, &mut seen) {
                break;
            }
            x = succ;
        }
        preds[level] = x;
    }
    pool.charge_read_batch(seen.len() as u64, VISIT_BYTES);
    after_descent();
    succ
}

/// A tiny inline set for deduplicating descent visits.
mod smallset {
    pub(super) struct SmallSet {
        inline: [u64; 48],
        len: usize,
        spill: Vec<u64>,
    }

    impl SmallSet {
        pub(super) fn new() -> SmallSet {
            SmallSet {
                inline: [0; 48],
                len: 0,
                spill: Vec::new(),
            }
        }

        pub(super) fn insert(&mut self, v: u64) {
            if self.inline[..self.len].contains(&v) || self.spill.contains(&v) {
                return;
            }
            if self.len < self.inline.len() {
                self.inline[self.len] = v;
                self.len += 1;
            } else {
                self.spill.push(v);
            }
        }

        pub(super) fn len(&self) -> usize {
            self.len + self.spill.len()
        }
    }
}

/// Where a version's value lives, whether the version is a tombstone, and
/// its node's tower height: all an exact DRAM index keeps of a version, so
/// that a hit reads the value and nothing else of its node
/// ([`SkipList::value_at`]), and the node is found with no read at all
/// ([`ValueRef::node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    /// Pool-global offset of the value bytes.
    pub offset: u64,
    /// The value's length, with [`ValueRef::TOMBSTONE`] set for a
    /// tombstone.
    pub len: u32,
    /// The node's tower height.
    pub height: u8,
}

impl ValueRef {
    /// The bit of [`len`](Self::len) that marks a tombstone.
    pub const TOMBSTONE: u32 = 1 << 31;

    /// The value of `len` bytes at `offset`, of a version of `kind` whose
    /// node's tower is `height` high.
    ///
    /// # Panics
    ///
    /// Panics if `len` reaches 2 GiB; no arena holds such a value.
    pub fn new(offset: u64, len: usize, kind: OpKind, height: usize) -> ValueRef {
        let len = u32::try_from(len)
            .ok()
            .filter(|&l| l < Self::TOMBSTONE)
            .expect("values < 2 GiB");
        let tombstone = if kind.is_delete() { Self::TOMBSTONE } else { 0 };
        ValueRef {
            offset,
            len: len | tombstone,
            // Invariant: towers are at most `MAX_HEIGHT` high.
            height: height as u8,
        }
    }

    /// Offset of the node whose key is `klen` bytes long: its value
    /// follows the header, the tower and the key.
    pub fn node(self, klen: usize) -> u64 {
        self.offset - HEADER_BYTES - 8 * u64::from(self.height) - klen as u64
    }

    /// Put or tombstone.
    pub fn kind(self) -> OpKind {
        if self.len & Self::TOMBSTONE == 0 {
            OpKind::Put
        } else {
            OpKind::Delete
        }
    }

    /// Length of the value in bytes.
    pub fn value_len(self) -> usize {
        (self.len & !Self::TOMBSTONE) as usize
    }
}

/// Result of a successful point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
    /// Sequence number of the found version.
    pub seq: SequenceNumber,
    /// Put or tombstone.
    pub kind: OpKind,
}

/// A read-only view of a skip list rooted at a head node.
///
/// The view is cheap to clone and safe to use from many threads
/// concurrently with the single designated writer/compactor of the list
/// (see the crate docs for the synchronization discipline).
#[derive(Clone)]
pub struct SkipList {
    pool: Arc<PmemPool>,
    head: u64,
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("head", &self.head)
            .finish()
    }
}

impl SkipList {
    /// Wraps an existing head node at `head` inside `pool`.
    pub fn from_raw(pool: Arc<PmemPool>, head: u64) -> SkipList {
        SkipList { pool, head }
    }

    /// Offset of the head node.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The pool this list lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Finds predecessors of the multi-version position `(key, seq)` at
    /// every level, returning the node at `preds[0].next[0]` (the first
    /// node `>= (key, seq)`, or 0).
    pub(crate) fn find_geq(
        &self,
        key: &[u8],
        seq: SequenceNumber,
        preds: &mut [u64; MAX_HEIGHT],
    ) -> u64 {
        find_preds(&self.pool, self.head, key, seq, preds)
    }

    /// Returns the newest version of `key` (including tombstones), or
    /// `None` if the list has no entry for it.
    pub fn get(&self, key: &[u8]) -> Option<LookupResult> {
        let mut preds = [0u64; MAX_HEIGHT];
        let node = self.find_geq(key, miodb_common::MAX_SEQUENCE_NUMBER, &mut preds);
        self.found(node, key)
    }

    /// The lookup result at `node`, the first node at or after the newest
    /// position of `key` (0 past the end), charging the value read.
    fn found(&self, node: u64, key: &[u8]) -> Option<LookupResult> {
        if node == 0 || raw::key(&self.pool, node) != key {
            return None;
        }
        Some(self.entry(node))
    }

    /// The value `v` names, a [`ValueRef`] of a node of this list's pool:
    /// one charged read of exactly its bytes, and none for an empty value
    /// or a tombstone. This is how a table's or the data repository's
    /// exact DRAM index answers a hit — the index holds where the value
    /// is, so nothing else of the node is read.
    pub fn value_at(&self, v: ValueRef) -> Vec<u8> {
        let len = v.value_len();
        if len == 0 {
            return Vec::new();
        }
        // SAFETY: `v` was read from a published node, whose value bytes
        // are immutable (crate invariant).
        let value = unsafe { self.pool.slice(v.offset, len) }.to_vec();
        self.pool.charge_read(len);
        value
    }

    /// The version the index entry `(key, v)` names, a [`ValueRef`] of a
    /// node of this list's pool, as a lazy-copy run copies it: its value,
    /// read as [`value_at`](Self::value_at) reads it, and its sequence
    /// number, one charged 8-byte read of the node's first word.
    pub fn entry_at(&self, key: &[u8], v: ValueRef) -> crate::iter::OwnedEntry {
        self.pool.charge_read(8);
        crate::iter::OwnedEntry {
            key: key.to_vec(),
            value: self.value_at(v),
            seq: raw::seq(&self.pool, v.node(key.len())),
            kind: v.kind(),
        }
    }

    /// The version at `node`, charging the value read only.
    fn entry(&self, node: u64) -> LookupResult {
        let pool = &*self.pool;
        let value = raw::value(pool, node).to_vec();
        pool.charge_read(value.len());
        LookupResult {
            value,
            seq: raw::seq(pool, node),
            kind: raw::kind(pool, node),
        }
    }

    /// Calls `f(key, value)` for the newest version of every key — the
    /// first node of each run of equal keys on level 0 — in key order,
    /// charging one modeled visit per node of the level in one batch; the
    /// [`ValueRef`] is read off the header that visit covers. On a DRAM
    /// list (an immutable MemTable) the walk is free in the model.
    pub fn walk_newest<'a>(&'a self, mut f: impl FnMut(&'a [u8], ValueRef)) {
        let pool = &*self.pool;
        let mut visits = 0;
        let mut last: &[u8] = &[];
        let mut node = self.first();
        while node != 0 {
            visits += 1;
            let key = raw::key(pool, node);
            if visits == 1 || key != last {
                f(key, raw::value_ref(pool, node));
                last = key;
            }
            node = raw::next(pool, node, 0);
        }
        pool.charge_read_batch(visits, VISIT_BYTES);
    }

    /// Offset of the first data node (0 when empty).
    pub fn first(&self) -> u64 {
        raw::next(&self.pool, self.head, 0)
    }

    /// Returns `true` if the list has no data nodes.
    pub fn is_empty(&self) -> bool {
        self.first() == 0
    }

    /// Iterates the list in multi-version order from the first node.
    pub fn iter(&self) -> crate::iter::SkipListIter {
        crate::iter::SkipListIter::new(self.pool.clone(), self.first())
    }

    /// Iterates from the first node `>= key` (any version).
    pub fn iter_from(&self, key: &[u8]) -> crate::iter::SkipListIter {
        let mut preds = [0u64; MAX_HEIGHT];
        let start = self.find_geq(key, miodb_common::MAX_SEQUENCE_NUMBER, &mut preds);
        crate::iter::SkipListIter::new(self.pool.clone(), start)
    }

    /// Counts data nodes by walking level 0 — O(n), for tests and reports.
    pub fn count_nodes(&self) -> usize {
        let pool = &*self.pool;
        let mut n = 0;
        let mut cur = self.first();
        while cur != 0 {
            n += 1;
            cur = raw::next(pool, cur, 0);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipListArena;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;

    /// A node spliced right before the target after the descent compared
    /// its level-0 successor — what a concurrent insert or merge step can
    /// do to a reader — must not hide the target: `get` answers from the
    /// successor the descent saw, not from a reload of `preds[0]`'s link.
    #[test]
    fn splice_after_the_descent_does_not_hide_the_key() {
        let pool = PmemPool::new(8 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        let table = Arc::new(SkipListArena::new(pool, 64 * 1024).unwrap());
        table.insert(b"a", b"1", 1, OpKind::Put).unwrap();
        table.insert(b"c", b"3", 2, OpKind::Put).unwrap();
        let splicer = Arc::clone(&table);
        AFTER_DESCENT.set(Some(Box::new(move || {
            splicer.insert(b"b", b"2", 3, OpKind::Put).unwrap();
        })));
        let found = table.list().get(b"c").expect("c is in the list");
        assert_eq!((found.value.as_slice(), found.seq), (&b"3"[..], 2));
        // The splice did happen, between the descent and its return.
        assert!(AFTER_DESCENT.with(std::cell::Cell::take).is_none());
        assert_eq!(table.list().get(b"b").unwrap().value, b"2");
        assert_eq!(table.list().count_nodes(), 3);
    }
}
