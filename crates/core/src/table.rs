//! PMTables and the engine-side MemTable wrapper.

use std::sync::Arc;

use miodb_bloom::BloomFilter;
use miodb_common::{OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};
use miodb_skiplist::{ApplyOutcome, LookupResult, SkipList, SkipListArena};
use miodb_wal::WriteAheadLog;
use parking_lot::Mutex;

/// A settled table's exact DRAM index, a sibling of its bloom filter: every
/// key of the table, in key order, with the offset of that key's newest
/// node (a tombstone included). Built once, with the table, from DRAM
/// alone — the flushed MemTable's level 0, or the two inputs' indexes of a
/// zero-copy merge — and immutable afterwards.
///
/// Node payloads never change and a table's leases keep its nodes mapped,
/// so the index stays exact for the table's contents even while a later
/// merge re-links its nodes into another list.
///
/// The data repository has one too
/// ([`RepoIndex`](crate::repository::RepoIndex)): each lazy-copy run
/// records its edits in a `TableIndex` ([`TableIndex::record`]) and
/// publishes the previous index with them applied ([`TableIndex::edited`]).
///
/// Keys live back to back in one buffer, and each of the three arrays ends
/// at its exact size: 12 bytes per entry plus the key.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TableIndex {
    /// Every key, back to back.
    keys: Vec<u8>,
    /// Where entry `i`'s key ends in `keys`.
    ends: Vec<u32>,
    /// Offset of entry `i`'s newest node.
    nodes: Vec<u64>,
}

impl TableIndex {
    fn with_capacity(entries: usize, key_bytes: usize) -> TableIndex {
        TableIndex {
            keys: Vec::with_capacity(key_bytes),
            ends: Vec::with_capacity(entries),
            nodes: Vec::with_capacity(entries),
        }
    }

    /// Appends `key`, which sorts after every key already in the index.
    pub(crate) fn push(&mut self, key: &[u8], node: u64) {
        debug_assert!(self.is_empty() || self.key(self.len() - 1) < key);
        self.keys.extend_from_slice(key);
        // Invariant: a table's keys fit its arenas, and no arena reaches
        // 4 GiB.
        self.ends
            .push(u32::try_from(self.keys.len()).expect("index keys < 4 GiB"));
        self.nodes.push(node);
    }

    /// Frees the spare capacity of an index built from upper bounds.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.nodes.shrink_to_fit();
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.keys[start..self.ends[i] as usize]
    }

    /// The index of a flushed table: one walk of `mem`'s level 0 — the
    /// immutable MemTable, in DRAM — to size it and one to fill it, each
    /// node offset shifted by `delta`
    /// ([`FlushedTable::delta`](miodb_skiplist::FlushedTable)). Reads no
    /// NVM.
    pub fn flushed(mem: &SkipList, delta: u64) -> TableIndex {
        let (mut entries, mut key_bytes) = (0, 0);
        mem.walk_newest(|key, _| {
            entries += 1;
            key_bytes += key.len();
        });
        let mut index = TableIndex::with_capacity(entries, key_bytes);
        mem.walk_newest(|key, node| index.push(key, node.wrapping_add(delta)));
        index
    }

    /// The index of the zero-copy merge of the table indexed by `new` into
    /// the one indexed by `old`: the union of both, merged in DRAM. A merge
    /// moves no node, so every offset stays as it was. A key both hold
    /// resolves to `new`'s node, the version the merge keeps: the two
    /// inputs are adjacent in age, so each of `new`'s versions carries a
    /// higher sequence number than any version of its key in `old`, and
    /// the merge bypasses the older one. Reads no NVM, and makes one pass:
    /// the arrays are sized for disjoint inputs and shrunk to the union
    /// when keys were shared.
    pub fn merged(new: &TableIndex, old: &TableIndex) -> TableIndex {
        let mut index =
            TableIndex::with_capacity(new.len() + old.len(), new.keys.len() + old.keys.len());
        union(new, old, |key, node| index.push(key, node));
        index.shrink_to_fit();
        index
    }

    /// Records what a repository apply did to `key`, which sorts after
    /// every key recorded so far: its new node, or its removal. An apply
    /// that changed nothing — a superseded entry, a tombstone for an absent
    /// key — records nothing.
    pub fn record(&mut self, key: &[u8], outcome: ApplyOutcome) {
        match outcome {
            ApplyOutcome::Inserted(node) | ApplyOutcome::Updated(node) => self.push(key, node),
            ApplyOutcome::Deleted => self.push(key, REMOVED),
            ApplyOutcome::DeletedAbsent | ApplyOutcome::Superseded => {}
        }
    }

    /// This index with `edits` ([`TableIndex::record`]) applied: an edit
    /// wins over the entry it shares a key with, and a removal drops the
    /// key. Reads no NVM, and makes one pass: the arrays are sized for
    /// disjoint inputs and shrunk to the result.
    pub fn edited(&self, edits: &TableIndex) -> TableIndex {
        let mut index =
            TableIndex::with_capacity(edits.len() + self.len(), edits.keys.len() + self.keys.len());
        union(edits, self, |key, node| {
            if node != REMOVED {
                index.push(key, node);
            }
        });
        index.shrink_to_fit();
        index
    }

    /// The index of `list`, walked over its level 0 in NVM: one charged
    /// visit per node. Recovery is the only caller; a running engine
    /// builds every index from DRAM.
    pub fn walk(list: &SkipList) -> TableIndex {
        let mut index = TableIndex::default();
        list.walk_newest(|key, node| index.push(key, node));
        index.shrink_to_fit();
        index
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the index holds no key.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Heap bytes the index holds.
    pub fn bytes(&self) -> u64 {
        (self.keys.capacity() + self.ends.capacity() * 4 + self.nodes.capacity() * 8) as u64
    }

    /// The offset of `key`'s newest node, by binary search in DRAM.
    fn find(&self, key: &[u8]) -> Option<u64> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.nodes[mid]),
            }
        }
        None
    }

    /// The newest version of `key` in the table whose nodes `list` reads
    /// (tombstones included): a binary search in DRAM, then one node read
    /// for a hit and none for a miss.
    pub fn get(&self, list: &SkipList, key: &[u8]) -> Option<LookupResult> {
        self.find(key).map(|node| list.entry_at(node))
    }
}

/// The node an edit records for a removed key: offset 0 is never a node.
const REMOVED: u64 = 0;

/// Calls `f(key, node)` for every key of `new` or `old`, in key order; a
/// key both hold comes from `new`.
fn union(new: &TableIndex, old: &TableIndex, mut f: impl FnMut(&[u8], u64)) {
    let (mut i, mut j) = (0, 0);
    while i < new.len() && j < old.len() {
        let (a, b) = (new.key(i), old.key(j));
        match a.cmp(b) {
            std::cmp::Ordering::Greater => {
                f(b, old.nodes[j]);
                j += 1;
            }
            ord => {
                f(a, new.nodes[i]);
                i += 1;
                j += usize::from(ord == std::cmp::Ordering::Equal);
            }
        }
    }
    for i in i..new.len() {
        f(new.key(i), new.nodes[i]);
    }
    for j in j..old.len() {
        f(old.key(j), old.nodes[j]);
    }
}

/// A persistent, immutable-by-writers skip-list table in the elastic
/// buffer.
///
/// A PMTable holds a lease on every arena its nodes physically live in:
/// after a zero-copy merge the merged table's nodes span the arenas of both
/// inputs, so it shares (clones) both inputs' leases. Holding an
/// `Arc<PmTable>` therefore pins every arena `list` can reach; the memory
/// is reclaimed when the table that was lazy-copied into the repository is
/// [retired](PmTable::retire) *and* the last table sharing an arena is
/// dropped.
#[derive(Debug)]
pub struct PmTable {
    /// Read view rooted at the table's head node.
    pub list: SkipList,
    /// Every arena whose nodes may be reachable from `list`.
    pub arenas: Vec<Arc<RegionLease>>,
    /// Mergeable bloom filter over the table's keys (kept in DRAM; rebuilt
    /// from the list on recovery).
    pub bloom: BloomFilter,
    /// Exact DRAM index over the table's keys.
    pub index: TableIndex,
    /// Approximate number of nodes.
    pub len: usize,
    /// Approximate user bytes.
    pub data_bytes: u64,
    /// Largest sequence number contained (age ordering sanity checks).
    pub newest_seq: SequenceNumber,
}

impl PmTable {
    /// The newest version of `key` in the table (tombstones included),
    /// through its index ([`TableIndex::get`]): one node read for a hit,
    /// none for a miss. Exact whatever a merge has since done to `list`.
    pub fn get(&self, key: &[u8]) -> Option<LookupResult> {
        self.index.get(&self.list, key)
    }

    /// Total NVM bytes held by this table's arenas.
    pub fn arena_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| a.region().len).sum()
    }

    /// Rebuilds the bloom filter by walking the list's level 0 (recovery
    /// path).
    pub fn rebuild_bloom(
        list: &SkipList,
        expected_keys: usize,
        bits_per_key: usize,
    ) -> BloomFilter {
        let mut bloom = BloomFilter::with_bits_per_key(expected_keys.max(16), bits_per_key);
        list.walk_newest(|key, _| bloom.insert(key));
        bloom
    }

    /// Marks every arena as garbage (the table's contents now live in the
    /// repository): each returns to the pool when the last table holding
    /// its lease — this one, a merge input a reader still walks — drops.
    pub fn retire(&self) {
        for a in &self.arenas {
            a.retire();
        }
    }
}

/// The engine-side MemTable: a DRAM skip-list arena plus its WAL and an
/// incrementally built bloom filter (inherited by the flushed PMTable).
pub struct MemTable {
    arena: SkipListArena,
    /// Read view of `arena`, built once so a probe clones no pool handle.
    list: SkipList,
    wal: WriteAheadLog,
    bloom: Mutex<BloomFilter>,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("used", &self.arena.used_bytes())
            .field("len", &self.arena.len())
            .finish()
    }
}

impl MemTable {
    /// Creates a MemTable of `capacity` bytes in `dram`, logging to a
    /// fresh WAL in `nvm`.
    ///
    /// # Errors
    ///
    /// Returns a capacity error if either pool cannot fit its part.
    pub fn new(
        dram: &Arc<PmemPool>,
        nvm: &Arc<PmemPool>,
        capacity: usize,
        wal_segment: usize,
        bloom_bits_per_key: usize,
        bloom_expected_keys: usize,
    ) -> Result<MemTable> {
        let arena = SkipListArena::new(dram.clone(), capacity)?;
        let wal = WriteAheadLog::new(nvm.clone(), wal_segment)?;
        Ok(MemTable {
            list: arena.list(),
            arena,
            wal,
            bloom: Mutex::new(BloomFilter::with_bits_per_key(
                bloom_expected_keys,
                bloom_bits_per_key,
            )),
        })
    }

    /// Logs and inserts one entry that already carries its sequence
    /// number (WAL replay and replicated apply). Writers must be
    /// serialized by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`miodb_common::Error::ArenaFull`] when the MemTable must be
    /// rotated; the WAL record for the failed insert is harmless (its
    /// sequence number is simply replayed into the next MemTable on
    /// recovery — same value, same outcome).
    pub fn insert(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        if !self.arena.fits(key.len(), value.len()) {
            return Err(miodb_common::Error::ArenaFull);
        }
        self.log(&miodb_wal::encode_record(key, value, seq, kind)?)?;
        self.apply(&[miodb_wal::GroupOp { key, value, kind }], seq)
    }

    /// Appends one already-encoded commit record (see
    /// [`miodb_wal::encode_record`] / [`miodb_wal::encode_group_record`])
    /// to this MemTable's WAL: the commit routine encodes once, logs these
    /// bytes here and ships the same bytes to replication.
    ///
    /// # Errors
    ///
    /// Propagates WAL allocation failures; nothing is logged on error.
    pub fn log(&self, record: &[u8]) -> Result<()> {
        self.wal.append_encoded(record)
    }

    /// Indexes already-logged operations, in order, with consecutive
    /// sequence numbers from `seq_base`. Writers must be serialized by the
    /// caller.
    ///
    /// # Errors
    ///
    /// Returns [`miodb_common::Error::ArenaFull`] if the arena cannot fit
    /// a node — the commit routine reserves worst-case capacity before
    /// logging, so this indicates a bug there, but it is handled
    /// gracefully.
    pub fn apply(&self, ops: &[miodb_wal::GroupOp<'_>], seq_base: SequenceNumber) -> Result<()> {
        let mut bloom = self.bloom.lock();
        for (i, op) in ops.iter().enumerate() {
            self.arena
                .insert(op.key, op.value, seq_base + i as u64, op.kind)?;
            bloom.insert(op.key);
        }
        Ok(())
    }

    /// The underlying arena (flush path).
    pub fn arena(&self) -> &SkipListArena {
        &self.arena
    }

    /// Read view.
    pub fn list(&self) -> &SkipList {
        &self.list
    }

    /// DRAM bytes of the arena and of the bloom filter.
    pub fn dram_bytes(&self) -> (u64, u64) {
        (self.arena.region().len, self.bloom.lock().bytes())
    }

    /// Snapshot of the bloom filter (cloned into the flushed PMTable).
    pub fn bloom_snapshot(&self) -> BloomFilter {
        self.bloom.lock().clone()
    }

    /// WAL segments, persisted in the manifest for replay.
    pub fn wal_segments(&self) -> Vec<PmemRegion> {
        self.wal.segments()
    }

    /// Marks the arena and the WAL as garbage (the MemTable has been
    /// flushed): both return to their pools when the last handle to this
    /// MemTable drops.
    pub fn retire(&self) {
        self.arena.retire();
        self.wal.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;

    fn pools() -> (Arc<PmemPool>, Arc<PmemPool>) {
        let stats = Arc::new(Stats::new());
        (
            PmemPool::new(4 << 20, DeviceModel::dram(), stats.clone()).unwrap(),
            PmemPool::new(8 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap(),
        )
    }

    #[test]
    fn memtable_logs_and_indexes() {
        let (dram, nvm) = pools();
        let m = MemTable::new(&dram, &nvm, 64 * 1024, 64 * 1024, 16, 1024).unwrap();
        m.insert(b"k", b"v", 1, OpKind::Put).unwrap();
        assert_eq!(m.list().get(b"k").unwrap().value, b"v");
        let replayed = miodb_wal::WriteAheadLog::replay(&nvm, &m.wal_segments()).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key, b"k");
        assert!(m.bloom_snapshot().may_contain(b"k"));
        assert!(!m.bloom_snapshot().may_contain(b"other"));
    }

    #[test]
    fn logged_record_and_applied_ops_agree() {
        let (dram, nvm) = pools();
        let m = MemTable::new(&dram, &nvm, 64 * 1024, 64 * 1024, 16, 1024).unwrap();
        let ops = [
            miodb_wal::GroupOp {
                key: b"a",
                value: b"1",
                kind: OpKind::Put,
            },
            miodb_wal::GroupOp {
                key: b"b",
                value: b"",
                kind: OpKind::Delete,
            },
        ];
        m.log(&miodb_wal::encode_group_record(&ops, 5).unwrap())
            .unwrap();
        m.apply(&ops, 5).unwrap();
        assert_eq!(m.list().get(b"a").unwrap().seq, 5);
        assert_eq!(m.list().get(b"b").unwrap().kind, OpKind::Delete);
        assert!(m.bloom_snapshot().may_contain(b"b"));
        let replayed = miodb_wal::WriteAheadLog::replay(&nvm, &m.wal_segments()).unwrap();
        let seqs: Vec<u64> = replayed.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
    }

    #[test]
    fn full_memtable_reports_before_logging() {
        let (dram, nvm) = pools();
        let m = MemTable::new(&dram, &nvm, 8 * 1024, 64 * 1024, 16, 1024).unwrap();
        let big = vec![0u8; 4000];
        m.insert(b"a", &big, 1, OpKind::Put).unwrap();
        let err = m.insert(b"b", &big, 2, OpKind::Put).unwrap_err();
        assert!(matches!(err, miodb_common::Error::ArenaFull));
        // The rejected insert must not have reached the WAL.
        let replayed = miodb_wal::WriteAheadLog::replay(&nvm, &m.wal_segments()).unwrap();
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn retired_memtable_frees_both_pools_with_its_last_handle() {
        let (dram, nvm) = pools();
        let d0 = dram.used_bytes();
        let n0 = nvm.used_bytes();
        let m = Arc::new(MemTable::new(&dram, &nvm, 64 * 1024, 16 * 1024, 16, 1024).unwrap());
        m.insert(b"k", b"v", 1, OpKind::Put).unwrap();
        let reader = m.clone();
        m.retire();
        drop(m);
        assert!(dram.used_bytes() > d0 && nvm.used_bytes() > n0);
        assert_eq!(reader.list().get(b"k").unwrap().value, b"v");
        drop(reader);
        assert_eq!(dram.used_bytes(), d0);
        assert_eq!(nvm.used_bytes(), n0);
    }

    #[test]
    fn rebuild_bloom_covers_all_keys() {
        let (dram, _nvm) = pools();
        let arena = SkipListArena::new(dram, 64 * 1024).unwrap();
        for i in 0..100u32 {
            arena
                .insert(format!("k{i}").as_bytes(), b"v", i as u64 + 1, OpKind::Put)
                .unwrap();
        }
        let bloom = PmTable::rebuild_bloom(&arena.list(), 100, 16);
        for i in 0..100u32 {
            assert!(bloom.may_contain(format!("k{i}").as_bytes()));
        }
    }
}
