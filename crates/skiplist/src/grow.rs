//! The data repository: a huge, growable skip list at the bottom level —
//! and NoveLSM's big mutable NVM MemTable, the same list searched.
//!
//! Lazy-copy compaction (paper §4.4) physically copies the newest version
//! of every key from the last elastic-buffer level into the repository and
//! discards outdated versions. The repository holds **at most one version
//! per key** and no tombstones — a tombstone arriving from above physically
//! removes the key here.
//!
//! A lazy-copy run is planned in DRAM, as a zero-copy merge is
//! ([`crate::merge`]): it joins two key-ordered inputs, the drained table's
//! records and the repository's own keys with the nodes holding them (its
//! exact DRAM index), so every record's level-0 predecessor and successor
//! are known before anything is written ([`GrowableSkipList::run`]). A
//! record is linked with one 8-byte store at its predecessor, and an update
//! bypasses the old node in that same store. Nothing searches the
//! repository, so its nodes have no tower: its index, in DRAM, is the only
//! thing searched, and recovery the only reader of its links.
//!
//! NoveLSM's big list is searched instead: [`GrowableSkipList::apply`]
//! descends the towers from the head for every entry — the log(n) probes a
//! KV that paper §4.1 prices NoveLSM's merge at — and keeps a tombstone as
//! an entry, since that list sits above older SSTable versions.
//!
//! The list grows by chaining fixed-size chunks allocated from the NVM
//! pool; nodes reference each other with pool-global offsets, so chunk
//! boundaries are invisible to traversal.
//!
//! The paper updates same-sized values in place; we substitute
//! insert-new-node + atomic bypass of the old one, which has identical
//! ordering behaviour but stays data-race-free for concurrent lock-free
//! readers (documented in `DESIGN.md`). A node a run bypasses or unlinks
//! stays readable, unchanged, until its owner hands it back
//! ([`GrowableSkipList::recycle`]) once no reader can reach it; a later
//! node of the same key and value length is then written in its place.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use miodb_common::{Error, OpKind, Result, SequenceNumber, MAX_SEQUENCE_NUMBER};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};
use parking_lot::Mutex;

use crate::iter::OwnedEntry;
use crate::node::{self, find_preds, node_size, raw, SkipList, ValueRef, MAX_HEIGHT};

/// What a run ([`GrowableSkipList::run`]) or an apply did with a record.
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
    /// The list already holds a version at least as new; the record was
    /// discarded.
    Superseded,
}

/// A node a run bypassed or removed: unreachable from the head, but
/// readable by whoever found it earlier, until it is
/// [recycled](GrowableSkipList::recycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unlinked {
    off: u64,
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
    /// Nodes unlinked since the last [`GrowableSkipList::take_unlinked`].
    unlinked: Vec<Unlinked>,
    /// Recycled nodes by payload: room for later nodes. DRAM-only; after a
    /// restart the nodes are lost to the pool.
    free: HashMap<usize, Vec<u64>>,
}

/// A growable, single-version-per-key persistent skip list.
///
/// Writers (the lazy-copy compactor, NoveLSM's drain) must be serialized
/// externally; concurrent readers are lock-free (same discipline as
/// [`SkipListArena`](crate::SkipListArena)). One list is written either by
/// planned runs ([`run`](Self::run)) or by searched applies
/// ([`apply`](Self::apply)), never both: a run's nodes have no tower to
/// search.
pub struct GrowableSkipList {
    pool: Arc<PmemPool>,
    head: u64,
    chunk_size: usize,
    state: Mutex<GrowState>,
    /// User bytes (keys + values) of the entries [`apply`](Self::apply)
    /// wrote and has not since replaced.
    data_bytes: AtomicU64,
    rng: AtomicU64,
}

impl std::fmt::Debug for GrowableSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrowableSkipList")
            .field("head", &self.head)
            .field("chunks", &self.state.lock().chunks.len())
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// Link stores the runs on this thread may still make before they
    /// stop as a crash would stop them; unlimited outside the tests.
    static LINKS_LEFT: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Whether the next link store of a run happens: always, but in the tests
/// that stop a run at every store.
#[inline]
fn link_allowed() -> bool {
    #[cfg(test)]
    {
        let left = LINKS_LEFT.get();
        if left == 0 {
            return false;
        }
        LINKS_LEFT.set(left - 1);
    }
    true
}

impl GrowableSkipList {
    /// Creates an empty list that grows in `chunk_size`-byte chunks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] if the first chunk cannot be
    /// allocated, or [`Error::InvalidArgument`] for unusably small chunks.
    pub fn new(pool: Arc<PmemPool>, chunk_size: usize) -> Result<GrowableSkipList> {
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
        let (cursor, end) = (head + head_size, first.end());
        Ok(Self::from_parts(
            pool,
            head,
            chunk_size,
            vec![first],
            cursor,
            end,
        ))
    }

    /// Reconstructs a repository from manifest state after a restart.
    pub fn from_parts(
        pool: Arc<PmemPool>,
        head: u64,
        chunk_size: usize,
        chunks: Vec<PmemRegion>,
        cursor: u64,
        end: u64,
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
                unlinked: Vec::new(),
                free: HashMap::new(),
            }),
            pool,
            head,
            chunk_size,
            data_bytes: AtomicU64::new(0),
        }
    }

    /// Manifest state: `(head, chunks, cursor, end)`.
    pub fn parts(&self) -> (u64, Vec<PmemRegion>, u64, u64) {
        let s = self.state.lock();
        (
            self.head,
            s.chunks.iter().map(RegionLease::region).collect(),
            s.cursor,
            s.end,
        )
    }

    /// User bytes (keys + values) of the live entries written by
    /// [`apply`](Self::apply), tombstones included: NoveLSM's overflow
    /// trigger. A repository's live set is its index's.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes.load(Ordering::Acquire)
    }

    /// Read-only view.
    pub fn list(&self) -> SkipList {
        SkipList::from_raw(self.pool.clone(), self.head)
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

    /// Writes the node of a version at `off`, `height` high, with its
    /// level-0 link naming `next` and its higher links left to the caller,
    /// charged as one device write; returns where its value lives. The
    /// node is unpublished until a link store names it.
    #[allow(clippy::too_many_arguments)] // a node's fields
    fn write_node(
        &self,
        off: u64,
        height: usize,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
        next: u64,
    ) -> ValueRef {
        let pool = &*self.pool;
        raw::write_header(pool, off, seq, key.len(), value.len(), height, kind);
        pool.atomic_u64(raw::tower_slot(off, 0))
            .store(next, Ordering::Relaxed);
        let kv_off = off + node::HEADER_BYTES + 8 * height as u64;
        pool.store_bytes(kv_off, key);
        pool.store_bytes(kv_off + key.len() as u64, value);
        pool.charge_write((kv_off - off) as usize + key.len() + value.len());
        ValueRef::new(kv_off + key.len() as u64, value.len(), kind, height)
    }

    /// Applies one lazy-copy run, planned in DRAM from two key-ordered
    /// inputs: `records`, the drained table's newest version of each key,
    /// and `stored`, each key of this list with where its node's value
    /// lives, as the list stands (the repository's exact index). Calls
    /// `applied(key, outcome)` for each record, in key order, once its
    /// store is made.
    ///
    /// A record is linked at level 0 after the node the plan names — the
    /// last stored node before it, or the last node this run linked — with
    /// one 8-byte store; its own link, written with the node, names the
    /// successor the plan knows. An update bypasses the old node in that
    /// same store, and a tombstone unlinks it with one. Nothing else is
    /// written, and nothing read but, for a stored key, the old node's
    /// sequence number: a record no newer is [`Superseded`](ApplyOutcome::Superseded),
    /// so a run re-applied after a crash changes nothing it already did.
    /// Every prefix of a run's stores leaves a list whose level-0 walk
    /// indexes it exactly. An old node stays readable, unchanged, until
    /// it is [taken](Self::take_unlinked) and [recycled](Self::recycle).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] if a new chunk cannot be
    /// allocated; the records before it stay applied, and `applied` has
    /// been told of them.
    pub fn run<'k>(
        &self,
        records: impl IntoIterator<Item = OwnedEntry>,
        stored: impl IntoIterator<Item = (&'k [u8], ValueRef)>,
        mut applied: impl FnMut(&[u8], ApplyOutcome),
    ) -> Result<()> {
        let pool = &*self.pool;
        // The state is locked per record, not per run: a manifest store
        // reads the chunks ([`parts`](Self::parts)) while a run is under
        // way, and must not wait for it.
        // A stored entry's node, and what it holds besides the links.
        let node = |(key, v): (&[u8], ValueRef)| Unlinked {
            off: v.node(key.len()),
            payload: key.len() + v.value_len(),
        };
        let mut stored = stored.into_iter().peekable();
        // The last node before the next record: the head, a stored node or
        // one this run linked.
        let mut pred = self.head;
        for r in records {
            while let Some(entry) = stored.next_if(|&(k, _)| k < r.key.as_slice()) {
                pred = node(entry).off;
            }
            let old = stored.next_if(|&(k, _)| k == r.key).map(node);
            let succ = stored.peek().map_or(0, |&entry| node(entry).off);
            let superseded = old.is_some_and(|old| {
                pool.charge_read(8);
                raw::seq(pool, old.off) >= r.seq
            });
            let outcome = match old {
                Some(old) if superseded => {
                    pred = old.off;
                    ApplyOutcome::Superseded
                }
                None if r.kind.is_delete() => ApplyOutcome::DeletedAbsent,
                Some(old) if r.kind.is_delete() => {
                    if !link_allowed() {
                        return Ok(());
                    }
                    raw::set_next(pool, pred, 0, succ);
                    self.state.lock().unlinked.push(old);
                    ApplyOutcome::Deleted
                }
                _ => {
                    // A recycled node of the same payload is reused whole.
                    let (klen, vlen) = (r.key.len(), r.value.len());
                    let off = {
                        let mut state = self.state.lock();
                        match state.free.get_mut(&(klen + vlen)).and_then(Vec::pop) {
                            Some(off) => off,
                            None => self.alloc_node(&mut state, node_size(1, klen, vlen))?,
                        }
                    };
                    let written = self.write_node(off, 1, &r.key, &r.value, r.seq, r.kind, succ);
                    if !link_allowed() {
                        return Ok(());
                    }
                    raw::set_next(pool, pred, 0, off);
                    pred = off;
                    self.state.lock().unlinked.extend(old);
                    match old {
                        Some(_) => ApplyOutcome::Updated(written),
                        None => ApplyOutcome::Inserted(written),
                    }
                }
            };
            applied(&r.key, outcome);
        }
        Ok(())
    }

    /// Applies one entry by a search from the head, keeping a tombstone as
    /// an entry: NoveLSM's big MemTable, which shadows older SSTable
    /// versions below it. The new node goes in before the key's older one,
    /// which is then bypassed at every level of its tower and left to the
    /// list's readers for as long as the list lives. Entries must be
    /// applied through a single writer.
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
        let succ = find_preds(pool, self.head, key, MAX_SEQUENCE_NUMBER, &mut preds);
        let old = (succ != 0 && raw::key(pool, succ) == key).then_some(succ);
        if old.is_some_and(|old| raw::seq(pool, old) >= seq) {
            return Ok(ApplyOutcome::Superseded);
        }
        let height = self.random_height();
        let off = self.alloc_node(&mut state, node_size(height, key.len(), value.len()))?;
        let next = raw::next(pool, preds[0], 0);
        let written = self.write_node(off, height, key, value, seq, kind, next);
        raw::set_next(pool, preds[0], 0, off);
        for (level, &pred) in preds.iter().enumerate().take(height).skip(1) {
            pool.atomic_u64(raw::tower_slot(off, level))
                .store(raw::next(pool, pred, level), Ordering::Relaxed);
            raw::set_next(pool, pred, level, off);
        }
        self.data_bytes
            .fetch_add((key.len() + value.len()) as u64, Ordering::Release);
        let Some(old) = old else {
            return Ok(ApplyOutcome::Inserted(written));
        };
        // At each level of the old tower, the node before it is the new
        // one where that reaches, and the level's predecessor above.
        for (level, &pred) in preds.iter().enumerate().take(raw::height(pool, old)) {
            let before = if level < height { off } else { pred };
            raw::set_next(pool, before, level, raw::next(pool, old, level));
        }
        let old_bytes = raw::klen(pool, old) + raw::vlen(pool, old);
        self.data_bytes
            .fetch_sub(old_bytes as u64, Ordering::Release);
        Ok(ApplyOutcome::Updated(written))
    }

    /// Takes the nodes runs have unlinked since the last call. Each stays
    /// readable, unchanged, until it is handed back to
    /// [`recycle`](Self::recycle).
    pub fn take_unlinked(&self) -> Vec<Unlinked> {
        std::mem::take(&mut self.state.lock().unlinked)
    }

    /// Makes `nodes` room for later records of the same key plus value
    /// length. Callers pass only nodes taken from this list that no reader
    /// can reach any more: a run may overwrite them at once.
    pub fn recycle(&self, nodes: Vec<Unlinked>) {
        let free = &mut self.state.lock().free;
        for node in nodes {
            free.entry(node.payload).or_default().push(node.off);
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
    use std::collections::BTreeMap;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(
            32 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap()
    }

    fn repo() -> GrowableSkipList {
        GrowableSkipList::new(pool(), 64 * 1024).unwrap()
    }

    type Entry = (Vec<u8>, Vec<u8>, u64, OpKind);

    fn put(key: &[u8], value: &[u8], seq: u64) -> Entry {
        (key.to_vec(), value.to_vec(), seq, OpKind::Put)
    }

    fn del(key: &[u8], seq: u64) -> Entry {
        (key.to_vec(), Vec::new(), seq, OpKind::Delete)
    }

    /// Each key of `r` with where its value lives, walked at level 0: what
    /// the repository's index holds, and recovery's plan input.
    fn stored(r: &GrowableSkipList) -> Vec<(Vec<u8>, ValueRef)> {
        let mut out = Vec::new();
        r.list().walk_newest(|k, v| out.push((k.to_vec(), v)));
        out
    }

    /// One run of `records`, in key order, planned against `stored`; what
    /// it did to each record it got to.
    fn run_against(
        r: &GrowableSkipList,
        records: &[Entry],
        stored: &[(Vec<u8>, ValueRef)],
    ) -> Vec<ApplyOutcome> {
        let mut done = Vec::new();
        let records = records.iter().map(|(key, value, seq, kind)| OwnedEntry {
            key: key.clone(),
            value: value.clone(),
            seq: *seq,
            kind: *kind,
        });
        let stored = stored.iter().map(|(k, n)| (k.as_slice(), *n));
        r.run(records, stored, |_, o| done.push(o)).unwrap();
        done
    }

    /// One run of `records`, planned against `r`'s level-0 walk.
    fn run(r: &GrowableSkipList, records: &[Entry]) -> Vec<ApplyOutcome> {
        run_against(r, records, &stored(r))
    }

    /// Level 0 of `r`, asserting one node a key, in key order.
    fn listing(r: &GrowableSkipList) -> Vec<Entry> {
        let out: Vec<Entry> = r
            .list()
            .iter()
            .map(|e| (e.key, e.value, e.seq, e.kind))
            .collect();
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "one node a key");
        out
    }

    #[test]
    fn insert_update_get() {
        let r = repo();
        let [ApplyOutcome::Inserted(first)] = run(&r, &[put(b"k", b"v1", 1)])[..] else {
            panic!("a new key is inserted")
        };
        assert_eq!(
            (r.list().value_at(first), first.kind(), first.height),
            (b"v1".to_vec(), OpKind::Put, 1),
            "a towerless node"
        );
        let [ApplyOutcome::Updated(second)] = run(&r, &[put(b"k", b"v2", 2)])[..] else {
            panic!("a newer version updates")
        };
        assert_ne!(first, second);
        assert_eq!(listing(&r), [put(b"k", b"v2", 2)], "old node bypassed");
        // The bypassed node is unlinked, not rewritten.
        assert_eq!(r.list().value_at(first), b"v1");
        assert_eq!(r.take_unlinked().len(), 1);
    }

    #[test]
    fn recycled_nodes_are_reused_by_later_nodes_of_their_length() {
        let r = repo();
        let [ApplyOutcome::Inserted(first)] = run(&r, &[put(b"k1", b"v1", 1)])[..] else {
            panic!("a new key is inserted")
        };
        run(&r, &[put(b"k1", b"v2", 2), put(b"k2", b"v2", 3)]);
        run(&r, &[del(b"k2", 4)]);
        let unlinked = r.take_unlinked();
        assert_eq!(unlinked.len(), 2, "the bypassed and the removed node");
        assert!(r.take_unlinked().is_empty());
        // Until recycled, an unlinked node stays as it was.
        assert_eq!(r.list().value_at(first), b"v1");
        r.recycle(unlinked);
        // A key and value of another length takes fresh space; one of the
        // same length takes a recycled node.
        let [ApplyOutcome::Inserted(longer)] = run(&r, &[put(b"k3", b"v33", 5)])[..] else {
            panic!("a new key is inserted")
        };
        assert!(longer.offset > first.offset);
        let reused = run(&r, &[put(b"k4", b"vv", 6), put(b"k5", b"vv", 7)]);
        for outcome in reused {
            let ApplyOutcome::Inserted(v) = outcome else {
                panic!("a new key is inserted")
            };
            assert!(v.offset < longer.offset, "{v:?} reuses a node");
        }
        assert_eq!(
            listing(&r),
            [
                put(b"k1", b"v2", 2),
                put(b"k3", b"v33", 5),
                put(b"k4", b"vv", 6),
                put(b"k5", b"vv", 7)
            ]
        );
    }

    #[test]
    fn superseded_entries_discarded() {
        let r = repo();
        run(&r, &[put(b"k", b"new", 10)]);
        for stale in [put(b"k", b"old", 5), del(b"k", 6), put(b"k", b"same", 10)] {
            assert_eq!(run(&r, &[stale]), [ApplyOutcome::Superseded]);
        }
        assert_eq!(listing(&r), [put(b"k", b"new", 10)]);
    }

    #[test]
    fn tombstone_removes_key() {
        let r = repo();
        run(
            &r,
            &[put(b"j", b"v", 1), put(b"k", b"v", 1), put(b"l", b"v", 1)],
        );
        assert_eq!(run(&r, &[del(b"k", 2)]), [ApplyOutcome::Deleted]);
        assert_eq!(listing(&r), [put(b"j", b"v", 1), put(b"l", b"v", 1)]);
        assert_eq!(
            run(&r, &[del(b"j", 3), del(b"l", 3)]),
            [ApplyOutcome::Deleted; 2]
        );
        assert_eq!(r.list().count_nodes(), 0);
    }

    #[test]
    fn tombstone_for_absent_key() {
        let r = repo();
        run(&r, &[put(b"a", b"v", 1), put(b"z", b"v", 1)]);
        assert_eq!(run(&r, &[del(b"ghost", 2)]), [ApplyOutcome::DeletedAbsent]);
        assert_eq!(r.list().count_nodes(), 2);
    }

    #[test]
    fn grows_across_chunks() {
        let r = repo();
        let value = vec![0xABu8; 1000];
        // 64 KiB chunks, ~1 KiB nodes: forces many chunk allocations.
        let records: Vec<Entry> = (0..500u32)
            .map(|i| put(format!("key{i:05}").as_bytes(), &value, u64::from(i) + 1))
            .collect();
        run(&r, &records);
        assert!(r.state.lock().chunks.len() > 3, "expected multiple chunks");
        // Ordered across chunk boundaries.
        assert_eq!(listing(&r), records);
    }

    #[test]
    fn oversized_value_gets_dedicated_chunk() {
        let r = repo();
        let huge = vec![1u8; 300 * 1024]; // bigger than the 64 KiB chunk
        run(&r, &[put(b"big", &huge, 1)]);
        assert_eq!(listing(&r), [put(b"big", &huge, 1)]);
    }

    #[test]
    fn data_bytes_tracks_live_set() {
        // NoveLSM's searched apply: a tombstone is an entry of its own.
        let r = repo();
        r.apply(b"a", b"12345", 1, OpKind::Put).unwrap();
        assert_eq!(r.data_bytes(), 6);
        r.apply(b"a", b"123", 2, OpKind::Put).unwrap();
        assert_eq!(r.data_bytes(), 4);
        r.apply(b"a", b"", 3, OpKind::Delete).unwrap();
        assert_eq!(r.data_bytes(), 1);
        assert_eq!(r.list().get(b"a").unwrap().kind, OpKind::Delete);
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
        let records: Vec<Entry> = (0..200u32)
            .map(|i| put(format!("k{i:03}").as_bytes(), &[0u8; 500], u64::from(i) + 1))
            .collect();
        run(&r, &records);
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
        let pool = pool();
        let r = GrowableSkipList::new(pool.clone(), 64 * 1024).unwrap();
        run(&r, &[put(b"x", b"1", 1), put(b"y", b"2", 2)]);
        let (head, chunks, cursor, end) = r.parts();
        drop(r);
        let r2 = GrowableSkipList::from_parts(pool, head, 64 * 1024, chunks, cursor, end);
        assert_eq!(listing(&r2), [put(b"x", b"1", 1), put(b"y", b"2", 2)]);
        // It keeps growing after reconstruction, planned from a walk.
        run(&r2, &[put(b"a", b"3", 3), put(b"z", b"3", 3)]);
        let keys: Vec<Vec<u8>> = listing(&r2).into_iter().map(|e| e.0).collect();
        assert_eq!(keys, [&b"a"[..], b"x", b"y", b"z"]);
    }

    /// NoveLSM's big list: each entry found by a descent from the head,
    /// tombstones kept, an older node bypassed at every level of its tower
    /// and queued for no one.
    #[test]
    fn a_searched_apply_keeps_tombstones_and_queues_nothing() {
        let r = repo();
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = BTreeMap::new();
        for seq in 1..=2000u64 {
            let key = format!("key{:03}", rng.gen_range(0..300u32)).into_bytes();
            let (value, kind) = match rng.gen_range(0..4u32) {
                0 => (Vec::new(), OpKind::Delete),
                _ => (format!("v{seq}").into_bytes(), OpKind::Put),
            };
            let outcome = r.apply(&key, &value, seq, kind).unwrap();
            assert_eq!(
                matches!(outcome, ApplyOutcome::Updated(_)),
                model.contains_key(&key)
            );
            model.insert(key, (value, seq, kind));
        }
        assert!(r.take_unlinked().is_empty(), "nothing is queued");
        let expect: Vec<Entry> = model
            .into_iter()
            .map(|(k, (v, s, kind))| (k, v, s, kind))
            .collect();
        assert_eq!(listing(&r), expect);
        for (key, _, seq, kind) in &expect {
            let found = r.list().get(key).unwrap();
            assert_eq!((found.seq, found.kind), (*seq, *kind));
        }
        // Stale entries change nothing.
        let (key, ..) = &expect[0];
        assert_eq!(
            r.apply(key, b"old", 1, OpKind::Put).unwrap(),
            ApplyOutcome::Superseded
        );
    }

    // ---- Planned runs against a model, and stopped at every store ------

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
            let key = format!("key{k:05}").into_bytes();
            run.push(match r.gen_range(0..5u32) {
                0 => del(&key, s),
                _ => put(&key, format!("v{s}").as_bytes(), s),
            });
        }
        run
    }

    /// Modeled bytes a run writes for what it did to `record`: its node
    /// (header, one link word, key and value) and the one link store at
    /// its predecessor; the store alone for a removal; nothing else.
    fn bytes_written(record: &Entry, outcome: ApplyOutcome) -> u64 {
        let (key, value, ..) = record;
        match outcome {
            ApplyOutcome::Inserted(_) | ApplyOutcome::Updated(_) => {
                (24 + 8 + key.len() + value.len() + 8) as u64
            }
            ApplyOutcome::Deleted => 8,
            ApplyOutcome::DeletedAbsent | ApplyOutcome::Superseded => 0,
        }
    }

    #[test]
    fn a_planned_run_equals_the_model() {
        let r = repo();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model: BTreeMap<Vec<u8>, Entry> = BTreeMap::new();
        let mut seen = [0usize; 5];
        for round in 0..8u64 {
            let records = ascending_run(&mut rng, 600, 100 + 10 * round);
            let stored = stored(&r);
            let before = r.pool.stats().snapshot();
            let outcomes = run_against(&r, &records, &stored);
            let io = r.pool.stats().snapshot().diff(&before);
            assert_eq!(outcomes.len(), records.len());
            let (mut written, mut read) = (0, 0);
            for (record, &outcome) in records.iter().zip(&outcomes) {
                let (key, _, seq, kind) = record;
                let old = model.get(key).map(|e| e.2);
                let expect = match old {
                    Some(s) if s >= *seq => ApplyOutcome::Superseded,
                    None if kind.is_delete() => ApplyOutcome::DeletedAbsent,
                    Some(_) if kind.is_delete() => ApplyOutcome::Deleted,
                    _ => outcome,
                };
                assert_eq!(
                    std::mem::discriminant(&outcome),
                    std::mem::discriminant(&expect)
                );
                match outcome {
                    ApplyOutcome::Inserted(v) | ApplyOutcome::Updated(v) => {
                        assert_eq!(matches!(outcome, ApplyOutcome::Updated(_)), old.is_some());
                        assert_eq!(r.list().value_at(v), record.1);
                        model.insert(key.clone(), record.clone());
                    }
                    ApplyOutcome::Deleted => drop(model.remove(key)),
                    _ => {}
                }
                seen[match outcome {
                    ApplyOutcome::Inserted(_) => 0,
                    ApplyOutcome::Updated(_) => 1,
                    ApplyOutcome::Deleted => 2,
                    ApplyOutcome::DeletedAbsent => 3,
                    ApplyOutcome::Superseded => 4,
                }] += 1;
                written += bytes_written(record, outcome);
                // The only read: a stored key's sequence number.
                read += 8 * u64::from(old.is_some());
            }
            assert_eq!(io.nvm_bytes_written, written, "round {round}");
            assert_eq!(io.nvm_bytes_read, read, "round {round}");
            assert_eq!(listing(&r), model.values().cloned().collect::<Vec<_>>());
        }
        assert!(seen.iter().all(|&n| n > 20), "every outcome: {seen:?}");
    }

    /// A manifest store reads the list's chunks while a run is under way
    /// (`parts`); between records, the run holds no lock it would wait on.
    #[test]
    fn a_run_holds_the_state_lock_within_a_record_only() {
        let r = repo();
        let mut rng = StdRng::seed_from_u64(8);
        run(&r, &ascending_run(&mut rng, 300, 10));
        let records = ascending_run(&mut rng, 300, 30);
        let stored = stored(&r);
        let mut checked = 0;
        let records = records
            .into_iter()
            .map(|(key, value, seq, kind)| OwnedEntry {
                key,
                value,
                seq,
                kind,
            });
        let stored = stored.iter().map(|(k, v)| (k.as_slice(), *v));
        r.run(records, stored, |_, _| {
            assert!(r.state.try_lock().is_some(), "the run holds the state");
            checked += 1;
        })
        .unwrap();
        assert!(checked > 50);
    }

    #[test]
    fn a_run_applied_twice_changes_nothing_the_second_time() {
        // A drain retried after a failure, or re-run after a crash: the
        // same records, the same seqs.
        let r = repo();
        let mut rng = StdRng::seed_from_u64(7);
        run(&r, &ascending_run(&mut rng, 400, 10));
        let records = ascending_run(&mut rng, 400, 60);
        run(&r, &records);
        let once = listing(&r);
        let stored = stored(&r);
        let before = r.pool.stats().snapshot();
        for again in run_against(&r, &records, &stored) {
            assert!(
                matches!(
                    again,
                    ApplyOutcome::Superseded | ApplyOutcome::DeletedAbsent
                ),
                "{again:?}"
            );
        }
        let io = r.pool.stats().snapshot().diff(&before);
        assert_eq!(io.nvm_bytes_written, 0);
        assert_eq!(listing(&r), once);
    }

    /// A run stopped after each of its link stores, as a crash stops it,
    /// then planned again from a level-0 walk of what it left, as recovery
    /// plans the re-drained table: the list ends as the uninterrupted
    /// run's. What the stopped run did comes back superseded or absent,
    /// and the rest as the uninterrupted run did it.
    #[test]
    fn a_run_stopped_at_every_link_store_replans_to_the_same_list() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let first = ascending_run(&mut rng, 90, 10);
        let second = ascending_run(&mut rng, 90, 40);
        let fresh = || {
            let r = repo();
            run(&r, &first);
            r
        };
        let whole = fresh();
        let outcomes = run(&whole, &second);
        let expect = listing(&whole);
        let stores = outcomes
            .iter()
            .filter(|o| bytes_written(&second[0], **o) > 0)
            .count() as u64;
        assert!(stores > 10, "{stores} stores");
        for crash_at in 0..=stores {
            let r = fresh();
            LINKS_LEFT.set(crash_at);
            let done = run(&r, &second);
            LINKS_LEFT.set(u64::MAX);
            assert_eq!(done[..], outcomes[..done.len()], "crash_at={crash_at}");
            listing(&r);
            let again = run(&r, &second);
            assert_eq!(listing(&r), expect, "crash_at={crash_at}");
            for (i, (o, w)) in again.iter().zip(&outcomes).enumerate() {
                if i < done.len() {
                    assert!(
                        matches!(o, ApplyOutcome::Superseded | ApplyOutcome::DeletedAbsent),
                        "crash_at={crash_at}, record {i}: {o:?}"
                    );
                } else {
                    assert_eq!(
                        std::mem::discriminant(o),
                        std::mem::discriminant(w),
                        "crash_at={crash_at}, record {i}"
                    );
                }
            }
        }
    }
}
