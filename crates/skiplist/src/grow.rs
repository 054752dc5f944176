//! The data repository: a huge, growable skip list at the bottom level.
//!
//! Lazy-copy compaction (paper §4.4) physically copies the newest version
//! of every key from the last elastic-buffer level into this list and
//! discards outdated versions. Unlike PMTables, the repository holds **at
//! most one version per key** and no tombstones — a tombstone arriving from
//! above physically removes the key here.
//!
//! The list grows by chaining fixed-size chunks allocated from the NVM
//! pool; nodes reference each other with pool-global offsets, so chunk
//! boundaries are invisible to traversal.
//!
//! The paper updates same-sized values in place; we substitute
//! insert-new-node + atomic bypass of the old one, which has identical
//! ordering behaviour but stays data-race-free for concurrent lock-free
//! readers (documented in `DESIGN.md`). The bypassed node stays readable,
//! unchanged, until its owner hands it back ([`GrowableSkipList::recycle`])
//! once no reader can reach it; a later node of the same key and value
//! length is then written in its place.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use miodb_common::{Error, OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};
use parking_lot::Mutex;

use crate::node::{
    self, find_preds, find_preds_from, node_size, raw, LookupResult, SkipList, ValueRef, MAX_HEIGHT,
};

/// What [`GrowableSkipList::apply`] did with an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The key was new; a node holding the value named here was inserted.
    Inserted(ValueRef),
    /// An older version existed and was replaced by a node holding the
    /// value named here (the old node bypassed).
    Updated(ValueRef),
    /// A tombstone removed an existing key.
    Deleted,
    /// A tombstone arrived for a key the repository never had.
    DeletedAbsent,
    /// The repository already holds a version at least as new; the entry
    /// was discarded.
    Superseded,
}

/// A node an apply bypassed or removed: unreachable from the head, but
/// readable by whoever found it earlier, until it is
/// [recycled](GrowableSkipList::recycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unlinked {
    off: u64,
    height: usize,
    /// Key plus value length: a node of the same one fits in its place.
    payload: usize,
}

#[derive(Debug)]
struct GrowState {
    chunks: Vec<RegionLease>,
    /// Next free pool-global offset in the current chunk.
    cursor: u64,
    /// End of the current chunk.
    end: u64,
    /// The writer's finger: `preds` of the position just behind the last
    /// applied key, from which an ascending run resumes its search.
    /// `finger[0]` is the head until the first apply. DRAM-only — a list
    /// rebuilt by [`GrowableSkipList::from_parts`] starts from the head.
    finger: [u64; MAX_HEIGHT],
    /// Nodes unlinked since the last [`GrowableSkipList::take_unlinked`].
    unlinked: Vec<Unlinked>,
    /// Recycled nodes by payload: room for later nodes. DRAM-only, like
    /// the finger; after a restart the nodes are lost to the pool.
    free: HashMap<usize, Vec<Unlinked>>,
}

/// A growable, single-version-per-key persistent skip list.
///
/// Writers (the lazy-copy compactor) must be serialized externally;
/// concurrent readers are lock-free (same discipline as
/// [`SkipListArena`](crate::SkipListArena)).
pub struct GrowableSkipList {
    pool: Arc<PmemPool>,
    head: u64,
    chunk_size: usize,
    /// When true, tombstones are stored as entries (NoveLSM's big mutable
    /// MemTable needs them to shadow older SSTable versions); when false,
    /// a tombstone physically removes the key (MioDB's bottom repository).
    keep_tombstones: bool,
    state: Mutex<GrowState>,
    len: AtomicU64,
    data_bytes: AtomicU64,
    rng: AtomicU64,
}

impl std::fmt::Debug for GrowableSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrowableSkipList")
            .field("head", &self.head)
            .field("len", &self.len())
            .field("chunks", &self.state.lock().chunks.len())
            .finish()
    }
}

impl GrowableSkipList {
    /// Creates an empty repository that grows in `chunk_size`-byte chunks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] if the first chunk cannot be
    /// allocated, or [`Error::InvalidArgument`] for unusably small chunks.
    pub fn new(pool: Arc<PmemPool>, chunk_size: usize) -> Result<GrowableSkipList> {
        Self::with_tombstone_mode(pool, chunk_size, false)
    }

    /// Like [`GrowableSkipList::new`], but tombstones are stored as
    /// regular entries instead of removing keys — required when the list
    /// sits *above* other persistent data (NoveLSM's big NVM MemTable).
    pub fn new_keeping_tombstones(
        pool: Arc<PmemPool>,
        chunk_size: usize,
    ) -> Result<GrowableSkipList> {
        Self::with_tombstone_mode(pool, chunk_size, true)
    }

    fn with_tombstone_mode(
        pool: Arc<PmemPool>,
        chunk_size: usize,
        keep_tombstones: bool,
    ) -> Result<GrowableSkipList> {
        let head_size = node_size(MAX_HEIGHT, 0, 0);
        if (chunk_size as u64) < head_size * 4 {
            return Err(Error::InvalidArgument(format!(
                "repository chunk size {chunk_size} too small"
            )));
        }
        let first = pool.alloc(chunk_size)?;
        let head = first.offset;
        raw::write_header(&pool, head, 0, 0, 0, MAX_HEIGHT, OpKind::Put);
        for level in 0..MAX_HEIGHT {
            pool.atomic_u64(raw::tower_slot(head, level))
                .store(0, Ordering::Relaxed);
        }
        pool.charge_write(head_size as usize);
        Ok(GrowableSkipList {
            rng: AtomicU64::new(crate::arena::next_seed(head ^ 0xD1B5_4A32_D192_ED03)),
            state: Mutex::new(GrowState {
                cursor: head + head_size,
                end: first.end(),
                chunks: vec![RegionLease::new(pool.clone(), first)],
                finger: [head; MAX_HEIGHT],
                unlinked: Vec::new(),
                free: HashMap::new(),
            }),
            pool,
            head,
            chunk_size,
            keep_tombstones,
            len: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
        })
    }

    /// Reconstructs a repository from manifest state after a restart.
    #[allow(clippy::too_many_arguments)] // mirrors the manifest record
    pub fn from_parts(
        pool: Arc<PmemPool>,
        head: u64,
        chunk_size: usize,
        chunks: Vec<PmemRegion>,
        cursor: u64,
        end: u64,
        len: u64,
        data_bytes: u64,
    ) -> GrowableSkipList {
        GrowableSkipList {
            rng: AtomicU64::new(crate::arena::next_seed(head ^ 0xD1B5_4A32_D192_ED03)),
            state: Mutex::new(GrowState {
                chunks: chunks
                    .into_iter()
                    .map(|c| RegionLease::new(pool.clone(), c))
                    .collect(),
                cursor,
                end,
                finger: [head; MAX_HEIGHT],
                unlinked: Vec::new(),
                free: HashMap::new(),
            }),
            pool,
            head,
            chunk_size,
            keep_tombstones: false,
            len: AtomicU64::new(len),
            data_bytes: AtomicU64::new(data_bytes),
        }
    }

    /// Manifest state: `(head, chunks, cursor, end, len, data_bytes)`.
    pub fn parts(&self) -> (u64, Vec<PmemRegion>, u64, u64, u64, u64) {
        let s = self.state.lock();
        (
            self.head,
            s.chunks.iter().map(RegionLease::region).collect(),
            s.cursor,
            s.end,
            self.len.load(Ordering::Acquire),
            self.data_bytes.load(Ordering::Acquire),
        )
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Returns `true` if the repository holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total user bytes (keys + values) of live entries.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes.load(Ordering::Acquire)
    }

    /// Read-only view.
    pub fn list(&self) -> SkipList {
        SkipList::from_raw(self.pool.clone(), self.head)
    }

    /// Point lookup: the repository holds at most one version per key and
    /// never tombstones, so a hit is always live data.
    pub fn get(&self, key: &[u8]) -> Option<LookupResult> {
        self.list().get(key)
    }

    fn random_height(&self) -> usize {
        let mut s = self.rng.load(Ordering::Relaxed);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.rng.store(s, Ordering::Relaxed);
        let mut h = 1;
        let mut bits = s;
        while h < MAX_HEIGHT && bits.is_multiple_of(4) {
            h += 1;
            bits /= 4;
        }
        h
    }

    fn alloc_node(&self, s: &mut GrowState, size: u64) -> Result<u64> {
        if s.cursor + size > s.end {
            let chunk_len = self.chunk_size.max(size as usize);
            let chunk = self.pool.alloc(chunk_len)?;
            s.cursor = chunk.offset;
            s.end = chunk.end();
            s.chunks.push(RegionLease::new(self.pool.clone(), chunk));
        }
        let off = s.cursor;
        s.cursor += size;
        Ok(off)
    }

    /// [`find_preds`] for the newest version of `key`, resumed from `finger`
    /// when `key` sorts after the key the finger was left behind.
    fn locate(&self, finger: &[u64; MAX_HEIGHT], key: &[u8], preds: &mut [u64; MAX_HEIGHT]) -> u64 {
        let pool = &*self.pool;
        let newest = miodb_common::MAX_SEQUENCE_NUMBER;
        // `finger[0]` is the node the previous apply wrote or stopped on:
        // looking at its key again is no device read.
        if finger[0] != self.head && raw::key(pool, finger[0]) < key {
            find_preds_from(pool, finger, key, newest, preds)
        } else {
            find_preds(pool, self.head, key, newest, preds)
        }
    }

    /// Applies one entry from a lazy-copy compaction: inserts/updates a put
    /// or removes the key for a tombstone. Entries must be applied through
    /// a single writer.
    ///
    /// A key that sorts after the previous call's resumes the search from
    /// where that one ended (the sorted drain of a lazy copy); any other
    /// key searches from the head.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] if a new chunk cannot be allocated.
    pub fn apply(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<ApplyOutcome> {
        let pool = &*self.pool;
        let mut state = self.state.lock();
        let mut preds = [0u64; MAX_HEIGHT];
        let existing = self.locate(&state.finger, key, &mut preds);
        // Whatever happens below, `preds` stay linked and before `key`:
        // the nodes a delete or an update unlinks sort after them.
        state.finger = preds;
        let existing = if existing != 0 && raw::key(pool, existing) == key {
            existing
        } else {
            0
        };

        if kind.is_delete() && !self.keep_tombstones {
            if existing == 0 {
                return Ok(ApplyOutcome::DeletedAbsent);
            }
            let removed_bytes = (raw::klen(pool, existing) + raw::vlen(pool, existing)) as u64;
            self.unlink_chain(&preds, existing, key, &mut state.unlinked);
            self.len.fetch_sub(1, Ordering::Release);
            self.data_bytes.fetch_sub(removed_bytes, Ordering::Release);
            return Ok(ApplyOutcome::Deleted);
        }

        if existing != 0 && raw::seq(pool, existing) >= seq {
            return Ok(ApplyOutcome::Superseded);
        }

        // Insert the new node before any existing (older) version, then
        // bypass the old chain. A recycled node of the same payload is
        // reused whole, its height included.
        let payload = key.len() + value.len();
        let (off, height) = match state.free.get_mut(&payload).and_then(Vec::pop) {
            Some(node) => (node.off, node.height),
            None => {
                let height = self.random_height();
                let size = node_size(height, key.len(), value.len());
                (self.alloc_node(&mut state, size)?, height)
            }
        };
        raw::write_header(pool, off, seq, key.len(), value.len(), height, kind);
        let kv_off = off + node::HEADER_BYTES + 8 * height as u64;
        pool.write_bytes(kv_off, key);
        if !value.is_empty() {
            pool.write_bytes(kv_off + key.len() as u64, value);
        }
        pool.charge_write((node::HEADER_BYTES + 8 * height as u64) as usize);

        #[allow(clippy::needless_range_loop)] // level indexes preds AND towers
        for level in 0..height {
            let succ = raw::next(pool, preds[level], level);
            pool.atomic_u64(raw::tower_slot(off, level))
                .store(succ, Ordering::Relaxed);
            raw::set_next(pool, preds[level], level, off);
        }
        state.finger[..height].fill(off);

        let written = ValueRef::new(kv_off + key.len() as u64, value.len(), kind, height);
        let outcome = if existing != 0 {
            let old_bytes = (raw::klen(pool, existing) + raw::vlen(pool, existing)) as u64;
            self.bypass_older(&preds, off, height, key, &mut state.unlinked);
            self.data_bytes.fetch_sub(old_bytes, Ordering::Release);
            ApplyOutcome::Updated(written)
        } else {
            self.len.fetch_add(1, Ordering::Release);
            ApplyOutcome::Inserted(written)
        };
        self.data_bytes
            .fetch_add((key.len() + value.len()) as u64, Ordering::Release);
        Ok(outcome)
    }

    /// Unlinks every same-key node reachable right after `preds` (used for
    /// tombstone removal) into `unlinked`. `first` is the first such node.
    fn unlink_chain(
        &self,
        preds: &[u64; MAX_HEIGHT],
        first: u64,
        key: &[u8],
        unlinked: &mut Vec<Unlinked>,
    ) {
        let pool = &*self.pool;
        let mut victims = vec![first];
        let mut cur = raw::next(pool, first, 0);
        while cur != 0 && raw::key(pool, cur) == key {
            victims.push(cur);
            cur = raw::next(pool, cur, 0);
        }
        for v in victims {
            let h = raw::height(pool, v);
            for level in (0..h).rev() {
                if raw::next(pool, preds[level], level) == v {
                    raw::set_next(pool, preds[level], level, raw::next(pool, v, level));
                }
            }
            unlinked.push(self.unlinked(v, h));
        }
    }

    fn unlinked(&self, off: u64, height: usize) -> Unlinked {
        Unlinked {
            off,
            height,
            payload: raw::klen(&self.pool, off) + raw::vlen(&self.pool, off),
        }
    }

    /// Bypasses older same-key nodes that now follow the freshly inserted
    /// node at `new_off`, into `unlinked`.
    fn bypass_older(
        &self,
        preds: &[u64; MAX_HEIGHT],
        new_off: u64,
        new_height: usize,
        key: &[u8],
        unlinked: &mut Vec<Unlinked>,
    ) {
        let pool = &*self.pool;
        let mut victims = Vec::new();
        let mut cur = raw::next(pool, new_off, 0);
        while cur != 0 && raw::key(pool, cur) == key {
            victims.push(cur);
            cur = raw::next(pool, cur, 0);
        }
        for v in victims {
            let h = raw::height(pool, v);
            for level in (0..h).rev() {
                if level < new_height && raw::next(pool, new_off, level) == v {
                    raw::set_next(pool, new_off, level, raw::next(pool, v, level));
                } else if raw::next(pool, preds[level], level) == v {
                    raw::set_next(pool, preds[level], level, raw::next(pool, v, level));
                }
            }
            unlinked.push(self.unlinked(v, h));
        }
    }

    /// Takes the nodes applies have unlinked since the last call. Each
    /// stays readable, unchanged, until it is handed back to
    /// [`recycle`](Self::recycle).
    pub fn take_unlinked(&self) -> Vec<Unlinked> {
        std::mem::take(&mut self.state.lock().unlinked)
    }

    /// Makes `nodes` room for later applies of the same key plus value
    /// length. Callers pass only nodes taken from this list that no reader
    /// can reach any more: an apply may overwrite them at once.
    pub fn recycle(&self, nodes: Vec<Unlinked>) {
        let free = &mut self.state.lock().free;
        for node in nodes {
            free.entry(node.payload).or_default().push(node);
        }
    }

    /// Marks every chunk as garbage: the memory returns to the pool when
    /// the last handle to this list drops. Call only once the list has
    /// stopped growing (a chunk allocated later would not be retired), and
    /// hold a handle for as long as a [`SkipList`] view of it is in use.
    pub fn retire(&self) {
        for c in &self.state.lock().chunks {
            c.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn repo() -> GrowableSkipList {
        let pool = PmemPool::new(
            32 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        GrowableSkipList::new(pool, 64 * 1024).unwrap()
    }

    #[test]
    fn insert_update_get() {
        let r = repo();
        let ApplyOutcome::Inserted(first) = r.apply(b"k", b"v1", 1, OpKind::Put).unwrap() else {
            panic!("a new key is inserted")
        };
        assert_eq!(r.get(b"k").unwrap().value, b"v1");
        assert_eq!(
            (r.list().value_at(first), first.kind()),
            (b"v1".to_vec(), OpKind::Put)
        );
        let ApplyOutcome::Updated(second) = r.apply(b"k", b"v2", 2, OpKind::Put).unwrap() else {
            panic!("a newer version updates")
        };
        assert_ne!(first, second);
        assert_eq!(r.get(b"k").unwrap().value, b"v2");
        assert_eq!(r.list().value_at(second), b"v2");
        // The bypassed node is unlinked, not rewritten.
        assert_eq!(r.list().value_at(first), b"v1");
        assert_eq!(r.len(), 1);
        assert_eq!(r.list().count_nodes(), 1, "old node bypassed");
    }

    #[test]
    fn recycled_nodes_are_reused_by_later_nodes_of_their_length() {
        let r = repo();
        let ApplyOutcome::Inserted(first) = r.apply(b"k1", b"v1", 1, OpKind::Put).unwrap() else {
            panic!("a new key is inserted")
        };
        r.apply(b"k1", b"v2", 2, OpKind::Put).unwrap();
        r.apply(b"k2", b"v2", 3, OpKind::Put).unwrap();
        r.apply(b"k2", b"", 4, OpKind::Delete).unwrap();
        let unlinked = r.take_unlinked();
        assert_eq!(unlinked.len(), 2, "the bypassed and the removed node");
        assert!(r.take_unlinked().is_empty());
        // Until recycled, an unlinked node stays as it was.
        assert_eq!(r.list().value_at(first), b"v1");
        r.recycle(unlinked);
        // A key and value of another length takes fresh space; one of the
        // same length takes a recycled node.
        let ApplyOutcome::Inserted(longer) = r.apply(b"k3", b"v33", 5, OpKind::Put).unwrap() else {
            panic!("a new key is inserted")
        };
        assert!(longer.offset > first.offset);
        for (i, key) in [b"k4", b"k5"].into_iter().enumerate() {
            let ApplyOutcome::Inserted(v) = r.apply(key, b"vv", 6 + i as u64, OpKind::Put).unwrap()
            else {
                panic!("a new key is inserted")
            };
            assert!(v.offset < longer.offset, "{key:?} reuses a node");
        }
        assert_eq!(r.get(b"k1").unwrap().value, b"v2");
        assert_eq!(r.get(b"k4").unwrap().value, b"vv");
        assert_eq!(r.get(b"k5").unwrap().value, b"vv");
        assert!(r.get(b"k2").is_none());
        assert_eq!(r.list().count_nodes(), 4);
    }

    #[test]
    fn superseded_entries_discarded() {
        let r = repo();
        r.apply(b"k", b"new", 10, OpKind::Put).unwrap();
        assert_eq!(
            r.apply(b"k", b"old", 5, OpKind::Put).unwrap(),
            ApplyOutcome::Superseded
        );
        assert_eq!(r.get(b"k").unwrap().value, b"new");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn tombstone_removes_key() {
        let r = repo();
        r.apply(b"k", b"v", 1, OpKind::Put).unwrap();
        assert_eq!(
            r.apply(b"k", b"", 2, OpKind::Delete).unwrap(),
            ApplyOutcome::Deleted
        );
        assert!(r.get(b"k").is_none());
        assert_eq!(r.len(), 0);
        assert_eq!(r.list().count_nodes(), 0);
    }

    #[test]
    fn tombstone_for_absent_key() {
        let r = repo();
        assert_eq!(
            r.apply(b"ghost", b"", 1, OpKind::Delete).unwrap(),
            ApplyOutcome::DeletedAbsent
        );
    }

    #[test]
    fn grows_across_chunks() {
        let r = repo();
        let value = vec![0xABu8; 1000];
        // 64 KiB chunks, ~1 KiB nodes: forces many chunk allocations.
        for i in 0..500u32 {
            r.apply(
                format!("key{i:05}").as_bytes(),
                &value,
                i as u64 + 1,
                OpKind::Put,
            )
            .unwrap();
        }
        assert_eq!(r.len(), 500);
        assert!(r.state.lock().chunks.len() > 3, "expected multiple chunks");
        for i in (0..500u32).step_by(37) {
            assert_eq!(r.get(format!("key{i:05}").as_bytes()).unwrap().value, value);
        }
        // Ordered iteration across chunk boundaries.
        let keys: Vec<Vec<u8>> = r.list().iter().map(|e| e.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn oversized_value_gets_dedicated_chunk() {
        let r = repo();
        let huge = vec![1u8; 300 * 1024]; // bigger than the 64 KiB chunk
        r.apply(b"big", &huge, 1, OpKind::Put).unwrap();
        assert_eq!(r.get(b"big").unwrap().value, huge);
    }

    #[test]
    fn data_bytes_tracks_live_set() {
        let r = repo();
        r.apply(b"a", b"12345", 1, OpKind::Put).unwrap();
        assert_eq!(r.data_bytes(), 6);
        r.apply(b"a", b"123", 2, OpKind::Put).unwrap();
        assert_eq!(r.data_bytes(), 4);
        r.apply(b"a", b"", 3, OpKind::Delete).unwrap();
        assert_eq!(r.data_bytes(), 0);
    }

    #[test]
    fn retired_list_frees_all_chunks_with_its_last_handle() {
        let pool = PmemPool::new(
            8 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        let before = pool.used_bytes();
        let r = GrowableSkipList::new(pool.clone(), 64 * 1024).unwrap();
        for i in 0..200u32 {
            r.apply(
                format!("k{i}").as_bytes(),
                &[0u8; 500],
                i as u64 + 1,
                OpKind::Put,
            )
            .unwrap();
        }
        assert!(pool.used_bytes() > before);
        let reader = Arc::new(r);
        let owner = reader.clone();
        owner.retire();
        drop(owner);
        assert!(pool.used_bytes() > before, "reader still holds the list");
        drop(reader);
        assert_eq!(pool.used_bytes(), before);
    }

    #[test]
    fn parts_round_trip() {
        let pool = PmemPool::new(
            8 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        let r = GrowableSkipList::new(pool.clone(), 64 * 1024).unwrap();
        r.apply(b"x", b"1", 1, OpKind::Put).unwrap();
        r.apply(b"y", b"2", 2, OpKind::Put).unwrap();
        let (head, chunks, cursor, end, len, bytes) = r.parts();
        drop(r);
        let r2 =
            GrowableSkipList::from_parts(pool, head, 64 * 1024, chunks, cursor, end, len, bytes);
        assert_eq!(r2.get(b"x").unwrap().value, b"1");
        assert_eq!(r2.get(b"y").unwrap().value, b"2");
        assert_eq!(r2.len(), 2);
        // Can keep growing after reconstruction: the finger starts cold,
        // warms on an ascending run and falls back for a key behind it.
        for k in [&b"z"[..], b"zz", b"zzz", b"a"] {
            assert!(matches!(
                r2.apply(k, b"3", 3, OpKind::Put).unwrap(),
                ApplyOutcome::Inserted(_)
            ));
        }
        let keys: Vec<Vec<u8>> = r2.list().iter().map(|e| e.key).collect();
        assert_eq!(keys, [&b"a"[..], b"x", b"y", b"z", b"zz", b"zzz"]);
        assert_eq!(r2.len(), 6);
    }

    // ---- The finger against the head search it replaced ----------------

    type Entry = (Vec<u8>, Vec<u8>, u64, OpKind);

    /// An ascending run over keys `0..space`: one key in three, one entry
    /// in five a tombstone, seqs around `seq` so that some entries update,
    /// some are superseded and some delete what is (or is not) there.
    fn ascending_run(r: &mut StdRng, space: u32, seq: u64) -> Vec<Entry> {
        let mut run = Vec::new();
        for k in 0..space {
            if r.gen_range(0..3u32) != 0 {
                continue;
            }
            let s = seq + r.gen_range(0..40u64);
            let kind = if r.gen_range(0..5u32) == 0 {
                OpKind::Delete
            } else {
                OpKind::Put
            };
            let value = format!("v{s}").into_bytes();
            run.push((format!("key{k:05}").into_bytes(), value, s, kind));
        }
        run
    }

    fn listing(r: &GrowableSkipList) -> Vec<Entry> {
        r.list()
            .iter()
            .map(|e| (e.key, e.value, e.seq, e.kind))
            .collect()
    }

    /// What an apply did, with the value it reports read back: two lists
    /// whose towers differ apply an entry alike when these are equal.
    fn applied(
        r: &GrowableSkipList,
        outcome: Result<ApplyOutcome>,
    ) -> (
        std::mem::Discriminant<ApplyOutcome>,
        Option<(OpKind, Vec<u8>)>,
    ) {
        let outcome = outcome.unwrap();
        let value = match outcome {
            ApplyOutcome::Inserted(v) | ApplyOutcome::Updated(v) => {
                Some((v.kind(), r.list().value_at(v)))
            }
            _ => None,
        };
        (std::mem::discriminant(&outcome), value)
    }

    /// Every finger entry is the head or a node still linked at its level.
    fn assert_finger_linked(r: &GrowableSkipList) {
        let finger = r.state.lock().finger;
        for (level, &f) in finger.iter().enumerate() {
            let mut cur = r.head;
            while cur != f {
                cur = raw::next(&r.pool, cur, level);
                assert_ne!(cur, 0, "finger[{level}] = {f} is not linked");
            }
        }
    }

    #[test]
    fn finger_apply_equals_head_search_apply() {
        for keep_tombstones in [false, true] {
            let pool = || {
                PmemPool::new(
                    8 << 20,
                    DeviceModel::nvm_unthrottled(),
                    Arc::new(Stats::new()),
                )
                .unwrap()
            };
            let with_finger =
                GrowableSkipList::with_tombstone_mode(pool(), 64 * 1024, keep_tombstones).unwrap();
            let by_head =
                GrowableSkipList::with_tombstone_mode(pool(), 64 * 1024, keep_tombstones).unwrap();
            let mut r = StdRng::seed_from_u64(keep_tombstones as u64);
            let mut resumed = 0;
            for round in 0..6u64 {
                for (key, value, seq, kind) in ascending_run(&mut r, 600, 100 + 30 * round) {
                    // Same predecessors, same successor, wherever the
                    // search started.
                    let finger = with_finger.state.lock().finger;
                    let (mut a, mut b) = ([0u64; MAX_HEIGHT], [0u64; MAX_HEIGHT]);
                    let found = with_finger.locate(&finger, &key, &mut a);
                    let newest = miodb_common::MAX_SEQUENCE_NUMBER;
                    let expect =
                        find_preds(&with_finger.pool, with_finger.head, &key, newest, &mut b);
                    assert_eq!((a, found), (b, expect));
                    resumed += (finger[0] != with_finger.head) as u32;

                    by_head.state.lock().finger = [by_head.head; MAX_HEIGHT];
                    assert_eq!(
                        applied(&with_finger, with_finger.apply(&key, &value, seq, kind)),
                        applied(&by_head, by_head.apply(&key, &value, seq, kind))
                    );
                    assert_finger_linked(&with_finger);
                }
                assert_eq!(listing(&with_finger), listing(&by_head), "round {round}");
                assert_eq!(with_finger.len(), by_head.len());
                assert_eq!(with_finger.data_bytes(), by_head.data_bytes());
            }
            assert!(resumed > 1000, "the runs did resume from the finger");
            assert_eq!(with_finger.len(), with_finger.list().count_nodes());
        }
    }

    #[test]
    fn out_of_order_key_after_an_ascending_run_falls_back_to_the_head() {
        let r = repo();
        for i in (0..200u32).step_by(2) {
            let k = format!("key{i:05}");
            r.apply(k.as_bytes(), b"v", 1, OpKind::Put).unwrap();
        }
        // Before the finger, at the finger's own key, and far behind it.
        for i in [151u32, 198, 1, 0, 77] {
            let k = format!("key{i:05}");
            r.apply(k.as_bytes(), b"late", 2, OpKind::Put).unwrap();
            assert_eq!(r.get(k.as_bytes()).unwrap().value, b"late");
            assert_finger_linked(&r);
        }
        let keys: Vec<Vec<u8>> = r.list().iter().map(|e| e.key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, one version");
        assert_eq!(keys.len(), 103);
        assert_eq!(r.len(), 103);
    }

    #[test]
    fn a_run_applied_twice_changes_nothing_the_second_time() {
        // The retried drain of `lazy_worker`: the same entries, same seqs.
        let r = repo();
        let mut rng = StdRng::seed_from_u64(7);
        for entry in ascending_run(&mut rng, 400, 10) {
            r.apply(&entry.0, &entry.1, entry.2, entry.3).unwrap();
        }
        let run = ascending_run(&mut rng, 400, 60);
        for (key, value, seq, kind) in &run {
            r.apply(key, value, *seq, *kind).unwrap();
        }
        let (once, len, bytes) = (listing(&r), r.len(), r.data_bytes());
        for (key, value, seq, kind) in &run {
            let again = r.apply(key, value, *seq, *kind).unwrap();
            assert!(
                matches!(
                    again,
                    ApplyOutcome::Superseded | ApplyOutcome::DeletedAbsent
                ),
                "{again:?}"
            );
            assert_finger_linked(&r);
        }
        assert_eq!((listing(&r), r.len(), r.data_bytes()), (once, len, bytes));
    }

    #[test]
    fn a_delete_leaves_no_finger_entry_on_an_unlinked_node() {
        let r = repo();
        for i in 0..300u32 {
            let k = format!("key{i:05}");
            r.apply(k.as_bytes(), b"v", 1, OpKind::Put).unwrap();
        }
        // Ascending deletes: each victim follows the finger of the one
        // before; then the key right behind a victim, found from it.
        for i in (0..300u32).step_by(3) {
            let k = format!("key{i:05}");
            assert_eq!(
                r.apply(k.as_bytes(), b"", 2, OpKind::Delete).unwrap(),
                ApplyOutcome::Deleted
            );
            assert_finger_linked(&r);
            let next = format!("key{:05}", i + 1);
            assert!(matches!(
                r.apply(next.as_bytes(), b"w", 2, OpKind::Put).unwrap(),
                ApplyOutcome::Updated(_)
            ));
            assert_finger_linked(&r);
            assert!(r.get(k.as_bytes()).is_none());
            assert_eq!(r.get(next.as_bytes()).unwrap().value, b"w");
        }
        // Deleting the finger's own key is not "after the finger".
        r.apply(b"key00298", b"", 3, OpKind::Delete).unwrap();
        r.apply(b"key00298", b"", 4, OpKind::Delete).unwrap();
        assert_finger_linked(&r);
        assert_eq!(r.len(), 199);
        assert_eq!(r.list().count_nodes(), 199);
    }
}
