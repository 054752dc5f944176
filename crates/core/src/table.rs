//! PMTables and the engine-side MemTable wrapper.

use std::sync::Arc;

use miodb_bloom::BloomFilter;
use miodb_common::{OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};
use miodb_skiplist::{LookupResult, SkipList, SkipListArena};
use miodb_wal::WriteAheadLog;
use parking_lot::Mutex;

/// The tower level a table's fence array indexes. With the skip list's
/// branching factor of 4, about 1 node in 16 is a fence, and a fenced
/// lookup descends levels `FENCE_LEVEL - 1` down to 0 only.
pub const FENCE_LEVEL: usize = 2;

/// A settled table's DRAM search layer, a sibling of its bloom filter: the
/// key and node offset of every node whose tower reaches [`FENCE_LEVEL`],
/// in list order. Built once, with the table; immutable afterwards.
///
/// Keys live back to back in one buffer, so a table holds three
/// allocations whatever its fence count.
#[derive(Debug, Default)]
pub struct Fences {
    /// Every fence key, back to back.
    keys: Vec<u8>,
    /// Where fence `i`'s key ends in `keys`.
    ends: Vec<usize>,
    /// Node offset of fence `i`.
    nodes: Vec<u64>,
}

impl Fences {
    /// Walks `list`'s level [`FENCE_LEVEL`], charging one modeled visit per
    /// fence.
    pub fn build(list: &SkipList) -> Fences {
        let mut f = Fences::default();
        list.walk_level(FENCE_LEVEL, |key, node| {
            f.keys.extend_from_slice(key);
            f.ends.push(f.keys.len());
            f.nodes.push(node);
        });
        f.keys.shrink_to_fit();
        f.ends.shrink_to_fit();
        f.nodes.shrink_to_fit();
        f
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.keys[start..self.ends[i]]
    }

    /// The last fence whose key sorts strictly below `key`: every version
    /// of `key` lies after it. A fence *equal* to `key` may be the newest
    /// version itself or an older one, so it never qualifies.
    pub fn start_for(&self, key: &[u8]) -> Option<u64> {
        let (mut lo, mut hi) = (0, self.nodes.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1).map(|i| self.nodes[i])
    }

    /// Number of fences.
    pub fn count(&self) -> usize {
        self.nodes.len()
    }

    /// The newest version of `key` in `list` (tombstones included): a
    /// binary search of the fences in DRAM, then a descent of the levels
    /// below [`FENCE_LEVEL`] from the fence found (or from the head).
    ///
    /// Exact only while `list` is as it was when the fences were built;
    /// callers check that it still is.
    pub fn get(&self, list: &SkipList, key: &[u8]) -> Option<LookupResult> {
        let start = self.start_for(key).unwrap_or(list.head());
        list.get_from(start, FENCE_LEVEL, key)
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
    /// DRAM fences over `list` as it was when the table was created.
    pub fences: Fences,
    /// Approximate number of nodes.
    pub len: usize,
    /// Approximate user bytes.
    pub data_bytes: u64,
    /// Largest sequence number contained (age ordering sanity checks).
    pub newest_seq: SequenceNumber,
}

impl PmTable {
    /// Wraps a settled list — no writer or merge links nodes into it any
    /// more — and builds its fences: one walk of level [`FENCE_LEVEL`],
    /// charged to the calling thread (a background one, except at
    /// recovery).
    pub fn new(
        list: SkipList,
        arenas: Vec<Arc<RegionLease>>,
        bloom: BloomFilter,
        len: usize,
        data_bytes: u64,
        newest_seq: SequenceNumber,
    ) -> PmTable {
        PmTable {
            fences: Fences::build(&list),
            list,
            arenas,
            bloom,
            len,
            data_bytes,
            newest_seq,
        }
    }

    /// The newest version of `key` in the table (tombstones included),
    /// through its fences ([`Fences::get`]).
    ///
    /// Once a merge re-links the table, a fence may have moved into the
    /// other input, and the walk from it can reach that input's older
    /// version; the engine validates every hit against the level version.
    pub fn get(&self, key: &[u8]) -> Option<LookupResult> {
        self.fences.get(&self.list, key)
    }

    /// Total NVM bytes held by this table's arenas.
    pub fn arena_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| a.region().len).sum()
    }

    /// Rebuilds the bloom filter by scanning the list (recovery path).
    pub fn rebuild_bloom(
        list: &SkipList,
        expected_keys: usize,
        bits_per_key: usize,
    ) -> BloomFilter {
        let mut bloom = BloomFilter::with_bits_per_key(expected_keys.max(16), bits_per_key);
        for e in list.iter() {
            bloom.insert(&e.key);
        }
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
    pub fn list(&self) -> SkipList {
        self.arena.list()
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
