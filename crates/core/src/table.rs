//! PMTables and the engine-side MemTable wrapper.

use std::sync::Arc;

use miodb_bloom::{key_hash, AtomicBloomFilter, BloomFilter};
use miodb_common::{OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{ApplyOutcome, LookupResult, SkipList, SkipListArena, ValueRef};
use miodb_wal::WriteAheadLog;

/// A settled table's exact DRAM index, a sibling of its bloom filter: every
/// key of the table, in key order, with where that key's newest version's
/// value lives, whether that version is a tombstone, and its node's tower
/// height ([`ValueRef`]) — so an entry yields its node too
/// ([`TableIndex::nodes`]), which is how a zero-copy merge finds its runs
/// without reading NVM.
/// Built once, with the table, from DRAM alone — the flushed MemTable's
/// level 0, or the two inputs' indexes of a zero-copy merge — and
/// immutable afterwards.
///
/// Node payloads never change and a table's leases keep its nodes mapped,
/// so the index stays exact for the table's contents even while a later
/// merge re-links its nodes into another list. A hit reads the value and
/// nothing else; a tombstone hit and a miss read no NVM.
///
/// The data repository has one too
/// ([`RepoIndex`](crate::repository::RepoIndex)): each lazy-copy run
/// records its edits in a `TableIndex` ([`TableIndex::record`]) and
/// publishes the previous index with them applied ([`TableIndex::edited`]).
///
/// # Key windows
///
/// A lookup compares 8-byte words, not keys. Every key starts with a
/// prefix known before the index is filled — the one its first and last
/// key share, or, for an index built from two, the one the smallest and
/// the largest key of both share — so the index keeps its length and, per
/// entry, the *window*: the 8 key bytes after the prefix, big-endian
/// and zero-padded. Windows ascend with the keys, so a key sorts before
/// every key whose window exceeds its own. `top` holds every 16th window
/// (one per block); a lookup rejects a key without the prefix at once,
/// else searches `top`, then one block, and compares whole keys only across
/// the run of windows equal to its own.
///
/// Keys live back to back in one buffer, and each array ends at its exact
/// size: 24 bytes per entry plus the key, and 8 per block. The tower
/// height rides in the top byte of the value offset's word.
#[derive(Debug, Default)]
pub struct TableIndex {
    /// Every key, back to back.
    keys: Vec<u8>,
    /// Where entry `i`'s key ends in `keys`.
    ends: Vec<u32>,
    /// Pool offset of entry `i`'s value ([`ValueRef::offset`]), with its
    /// node's tower height ([`ValueRef::height`]) in the top byte.
    values: Vec<u64>,
    /// Length and tombstone bit of entry `i`'s value ([`ValueRef::len`]).
    lens: Vec<u32>,
    /// Bytes at the start of every key that all keys share.
    prefix: usize,
    /// Entry `i`'s window.
    windows: Vec<u64>,
    /// `windows[b * BLOCK]` for every block `b`.
    top: Vec<u64>,
}

/// Entries per block of a [`TableIndex`]'s window search.
const BLOCK: usize = 16;

/// Two indexes are equal when they hold the same entries; the windows are
/// derived from the keys, under a prefix that depends on how the index was
/// built.
impl PartialEq for TableIndex {
    fn eq(&self, other: &TableIndex) -> bool {
        (&self.keys, &self.ends, &self.values, &self.lens)
            == (&other.keys, &other.ends, &other.values, &other.lens)
    }
}

impl Eq for TableIndex {}

/// What an index answers for a key it holds: the newest version's kind
/// and value (empty for a tombstone). An index keeps no sequence number,
/// so its answer carries none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexHit {
    /// Put or tombstone.
    pub kind: OpKind,
    /// The value bytes.
    pub value: Vec<u8>,
}

impl From<LookupResult> for IndexHit {
    fn from(r: LookupResult) -> IndexHit {
        IndexHit {
            kind: r.kind,
            value: r.value,
        }
    }
}

impl TableIndex {
    /// An empty index for `entries` keys of `key_bytes` in all, every one
    /// sorting between `first` and `last`: their shared prefix is every
    /// key's.
    fn with_capacity(entries: usize, key_bytes: usize, first: &[u8], last: &[u8]) -> TableIndex {
        TableIndex {
            keys: Vec::with_capacity(key_bytes),
            ends: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries),
            lens: Vec::with_capacity(entries),
            prefix: shared_prefix(first, last),
            windows: Vec::with_capacity(entries),
            top: Vec::with_capacity(entries.div_ceil(BLOCK)),
        }
    }

    /// Appends `key`, which sorts after every key already in the index and
    /// starts with the index's prefix, and where its value lives.
    fn push(&mut self, key: &[u8], value: ValueRef) {
        debug_assert!(self.is_empty() || self.key(self.len() - 1) < key);
        let w = window(&key[self.prefix..]);
        if self.windows.len().is_multiple_of(BLOCK) {
            self.top.push(w);
        }
        self.windows.push(w);
        self.keys.extend_from_slice(key);
        // Invariant: a table's keys fit its arenas, and no arena reaches
        // 4 GiB.
        self.ends
            .push(u32::try_from(self.keys.len()).expect("index keys < 4 GiB"));
        debug_assert_eq!(value.offset >> HEIGHT_SHIFT, 0);
        self.values
            .push(value.offset | u64::from(value.height) << HEIGHT_SHIFT);
        self.lens.push(value.len);
    }

    /// Frees the spare capacity of an index built from upper bounds.
    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.values.shrink_to_fit();
        self.lens.shrink_to_fit();
        self.windows.shrink_to_fit();
        self.top.shrink_to_fit();
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.keys[start..self.ends[i] as usize]
    }

    fn value(&self, i: usize) -> ValueRef {
        let word = self.values[i];
        ValueRef {
            offset: word & ((1 << HEIGHT_SHIFT) - 1),
            len: self.lens[i],
            height: (word >> HEIGHT_SHIFT) as u8,
        }
    }

    /// Every key, in order.
    pub fn keys(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.key(i))
    }

    /// Every key with the node holding its newest version, in key order:
    /// a zero-copy merge's input ([`miodb_skiplist::RunMerge`]).
    pub fn nodes(&self) -> impl Iterator<Item = (&[u8], u64)> {
        (0..self.len()).map(|i| {
            let key = self.key(i);
            (key, self.value(i).node(key.len()))
        })
    }

    /// Every key from the first at or after `start`, in order, with where
    /// its value lives: a scan's source, and from `&[]` both inputs of a
    /// lazy-copy run, the drained table's ([`PmTable::records`]) and the
    /// repository's. Found by a binary search over whole keys, in DRAM.
    pub fn iter_from(&self, start: &[u8]) -> impl Iterator<Item = (&[u8], ValueRef)> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo..self.len()).map(|i| (self.key(i), self.value(i)))
    }

    /// The index of a flushed table: one walk of `mem`'s level 0 — the
    /// immutable MemTable, in DRAM — to size it and find its first and
    /// last key, and one to fill it, each value offset shifted by `delta`
    /// ([`FlushedTable::delta`](miodb_skiplist::FlushedTable)). Reads no
    /// NVM.
    pub fn flushed(mem: &SkipList, delta: u64) -> TableIndex {
        let (mut entries, mut key_bytes) = (0, 0);
        let (mut first, mut last): (&[u8], &[u8]) = (&[], &[]);
        mem.walk_newest(|key, _| {
            if entries == 0 {
                first = key;
            }
            last = key;
            entries += 1;
            key_bytes += key.len();
        });
        let mut index = TableIndex::with_capacity(entries, key_bytes, first, last);
        mem.walk_newest(|key, v| {
            let offset = v.offset.wrapping_add(delta);
            index.push(key, ValueRef { offset, ..v });
        });
        index
    }

    /// The index of the zero-copy merge of the table indexed by `new` into
    /// the one indexed by `old`: the union of both, merged in DRAM. A merge
    /// moves no node, so every value stays where it was. A key both hold
    /// resolves to `new`'s version, the one the merge keeps: the two
    /// inputs are adjacent in age, so each of `new`'s versions carries a
    /// higher sequence number than any version of its key in `old`, and
    /// the merge bypasses the older one. Reads no NVM, and makes one pass:
    /// the arrays are sized for disjoint inputs and shrunk to the union
    /// when keys were shared.
    pub fn merged(new: &TableIndex, old: &TableIndex) -> TableIndex {
        let mut index = TableIndex::joined(new, old);
        union(new, old, |key, v| index.push(key, v));
        index.shrink_to_fit();
        index
    }

    /// Records what a lazy-copy run did to `key`, which sorts after every
    /// key recorded so far: where the value it wrote lives, or the key's
    /// removal. A record that changed nothing — a superseded one, a
    /// tombstone for an absent key — records nothing.
    pub fn record(&mut self, key: &[u8], outcome: ApplyOutcome) {
        match outcome {
            ApplyOutcome::Inserted(v) | ApplyOutcome::Updated(v) => self.push(key, v),
            ApplyOutcome::Deleted => self.push(key, REMOVED),
            ApplyOutcome::DeletedAbsent | ApplyOutcome::Superseded => {}
        }
    }

    /// This index with `edits` ([`TableIndex::record`]) applied: an edit
    /// wins over the entry it shares a key with, and a removal drops the
    /// key. Reads no NVM, and makes one pass: the arrays are sized for
    /// disjoint inputs and shrunk to the result.
    pub fn edited(&self, edits: &TableIndex) -> TableIndex {
        let mut index = TableIndex::joined(edits, self);
        union(edits, self, |key, v| {
            if v != REMOVED {
                index.push(key, v);
            }
        });
        index.shrink_to_fit();
        index
    }

    /// An empty index with room for the keys of `a` and `b`, whose prefix
    /// is the one the smallest and the largest of them share.
    fn joined(a: &TableIndex, b: &TableIndex) -> TableIndex {
        let ends = [a, b].into_iter().filter(|i| !i.is_empty());
        let first = ends.clone().map(|i| i.key(0)).min().unwrap_or_default();
        let last = ends.map(|i| i.key(i.len() - 1)).max().unwrap_or_default();
        TableIndex::with_capacity(a.len() + b.len(), a.keys.len() + b.keys.len(), first, last)
    }

    /// The index of `list`, walked over its level 0 in NVM: one charged
    /// visit per node. Recovery is the only caller; a running engine
    /// builds every index from DRAM. The last key is known only once the
    /// walk ends, so the walk indexes under an empty prefix, and the
    /// windows are then taken again, in DRAM, under the prefix the first
    /// and the last key share.
    pub fn walk(list: &SkipList) -> TableIndex {
        let mut index = TableIndex::default();
        list.walk_newest(|key, v| index.push(key, v));
        if let Some(last) = index.len().checked_sub(1) {
            let p = shared_prefix(index.key(0), index.key(last));
            index.prefix = p;
            for i in 0..index.len() {
                index.windows[i] = window(&index.key(i)[p..]);
            }
            index.top = index.windows.iter().step_by(BLOCK).copied().collect();
        }
        index.shrink_to_fit();
        index
    }

    /// The bloom filter of the table this index indexes: sized for its
    /// keys at `bits_per_key` and holding each of them. The one builder of
    /// a PMTable's filter — at flush, at merge and at recovery — and it
    /// reads no NVM: the index holds every key.
    pub fn bloom(&self, bits_per_key: usize) -> BloomFilter {
        let mut bloom = BloomFilter::with_bits_per_key(self.len(), bits_per_key);
        self.keys().for_each(|key| bloom.insert(key));
        bloom
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the index holds no key.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes the index holds.
    pub fn bytes(&self) -> u64 {
        (self.keys.capacity()
            + self.ends.capacity() * 4
            + self.values.capacity() * 8
            + self.lens.capacity() * 4
            + (self.windows.capacity() + self.top.capacity()) * 8) as u64
    }

    /// The entry of `key`, by its window: rejected at once without the
    /// prefix, else a search of `top`, then of one block, then whole keys
    /// compared across the windows equal to its own. All in DRAM.
    fn find(&self, key: &[u8]) -> Option<usize> {
        let p = self.prefix;
        if self.is_empty() || key.len() < p || key[..p] != self.keys[..p] {
            return None;
        }
        let w = window(&key[p..]);
        // `top[b - 1] < w <= top[b]`: the first window not below `w` is in
        // block `b - 1`, past its first entry, or is block `b`'s first.
        let b = self.top.partition_point(|&t| t < w);
        let lo = b.saturating_sub(1) * BLOCK;
        let hi = (b * BLOCK).min(self.windows.len());
        let mut i = lo + self.windows[lo..hi].partition_point(|&x| x < w);
        while self.windows.get(i) == Some(&w) {
            match self.key(i)[p..].cmp(&key[p..]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Equal => return Some(i),
                std::cmp::Ordering::Greater => return None,
            }
        }
        None
    }

    /// The newest version of `key` in the table whose nodes `list` reads
    /// (tombstones included): found in DRAM, then one read of exactly the
    /// value's bytes for a hit, and none for a tombstone or a miss.
    pub fn get(&self, list: &SkipList, key: &[u8]) -> Option<IndexHit> {
        let v = self.value(self.find(key)?);
        Some(IndexHit {
            kind: v.kind(),
            value: list.value_at(v),
        })
    }
}

/// What an edit records for a removed key: offset 0 is never a value.
const REMOVED: ValueRef = ValueRef {
    offset: 0,
    len: 0,
    height: 0,
};

/// Where a node's tower height starts in an index entry's value word; pool
/// offsets stay below it.
const HEIGHT_SHIFT: u32 = 56;

/// How many bytes `a` and `b` share at their start.
fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The window of a key whose bytes after the prefix are `rest`: its first
/// 8, big-endian, zero-padded.
fn window(rest: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    let n = rest.len().min(8);
    w[..n].copy_from_slice(&rest[..n]);
    u64::from_be_bytes(w)
}

/// Calls `f(key, value)` for every key of `new` or `old`, in key order; a
/// key both hold comes from `new`.
fn union(new: &TableIndex, old: &TableIndex, mut f: impl FnMut(&[u8], ValueRef)) {
    let (mut i, mut j) = (0, 0);
    while i < new.len() && j < old.len() {
        let (a, b) = (new.key(i), old.key(j));
        match a.cmp(b) {
            std::cmp::Ordering::Greater => {
                f(b, old.value(j));
                j += 1;
            }
            ord => {
                f(a, new.value(i));
                i += 1;
                j += usize::from(ord == std::cmp::Ordering::Equal);
            }
        }
    }
    for i in i..new.len() {
        f(new.key(i), new.value(i));
    }
    for j in j..old.len() {
        f(old.key(j), old.value(j));
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
    /// Bloom filter over the table's keys, sized for them and built from
    /// `index` ([`TableIndex::bloom`]); DRAM only.
    pub bloom: BloomFilter,
    /// Exact DRAM index over the table's keys.
    pub index: TableIndex,
    /// Number of nodes of a flushed table, of keys of a merged one.
    pub len: usize,
    /// Approximate user bytes.
    pub data_bytes: u64,
    /// Largest sequence number contained (age ordering sanity checks).
    pub newest_seq: SequenceNumber,
}

impl PmTable {
    /// The newest version of `key` in the table (tombstones included),
    /// through its index ([`TableIndex::get`]): one read of the value for
    /// a hit, none for a tombstone or a miss. Exact whatever a merge has
    /// since done to `list`.
    pub fn get(&self, key: &[u8]) -> Option<IndexHit> {
        self.index.get(&self.list, key)
    }

    /// Each key's newest version, in key order, read through the index
    /// ([`SkipList::entry_at`]): a lazy-copy run's records. Reads each
    /// value and sequence number, and no other byte of a node.
    pub fn records(&self) -> impl Iterator<Item = OwnedEntry> + '_ {
        let entries = self.index.iter_from(&[]);
        entries.map(|(key, v)| self.list.entry_at(key, v))
    }

    /// Total NVM bytes held by this table's arenas.
    pub fn arena_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| a.region().len).sum()
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
/// incrementally built bloom filter, sized for the MemTable.
/// Readers probe the filter without a lock before they descend the arena
/// ([`MemTable::may_contain_hash`]).
pub struct MemTable {
    arena: SkipListArena,
    /// Read view of `arena`, built once so a probe clones no pool handle.
    list: SkipList,
    wal: WriteAheadLog,
    bloom: AtomicBloomFilter,
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
            bloom: AtomicBloomFilter::with_bits_per_key(bloom_expected_keys, bloom_bits_per_key),
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
        for (i, op) in ops.iter().enumerate() {
            // The key's filter bits are stored before its node links: a
            // reader that sees the node sees them too.
            self.bloom.insert_hash(key_hash(op.key));
            self.arena
                .insert(op.key, op.value, seq_base + i as u64, op.kind)?;
        }
        Ok(())
    }

    /// Whether the key whose [`key_hash`] is `h` may be in this MemTable:
    /// `false` only for a key no node of it holds, whatever a concurrent
    /// writer does (see [`AtomicBloomFilter`]).
    pub fn may_contain_hash(&self, h: u64) -> bool {
        self.bloom.may_contain_hash(h)
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
        (self.arena.region().len, self.bloom.bytes())
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
    use miodb_skiplist::merge::MergeLimits;
    use miodb_skiplist::{
        one_piece_flush, swizzle, zero_copy_merge, GrowableSkipList, InsertionMark,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

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
        assert!(m.may_contain_hash(key_hash(b"k")));
        assert!(!m.may_contain_hash(key_hash(b"other")));
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
        assert!(m.may_contain_hash(key_hash(b"b")));
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

    /// A filter rebuilt from a walked index, as recovery rebuilds one,
    /// admits every key, and is sized for the keys at `bits_per_key`.
    #[test]
    fn rebuild_bloom_covers_all_keys() {
        let (dram, _nvm) = pools();
        let arena = SkipListArena::new(dram, 64 * 1024).unwrap();
        for i in 0..100u32 {
            arena
                .insert(format!("k{i}").as_bytes(), b"v", i as u64 + 1, OpKind::Put)
                .unwrap();
        }
        let bloom = TableIndex::walk(&arena.list()).bloom(16);
        for i in 0..100u32 {
            assert!(bloom.may_contain(format!("k{i}").as_bytes()));
        }
        assert_eq!(bloom.num_bits(), 100 * 16);
    }

    /// A MemTable's filter answers every probe as a [`BloomFilter`] of
    /// the same geometry that took the same inserts, and holds as many
    /// bytes.
    #[test]
    fn memtable_filter_equals_a_bloom_filter_of_its_keys() {
        let (dram, nvm) = pools();
        let m = MemTable::new(&dram, &nvm, 256 * 1024, 64 * 1024, 16, 1024).unwrap();
        let mut reference = BloomFilter::with_bits_per_key(1024, 16);
        for i in 0..1500u32 {
            let key = format!("key{:05}", i % 1000);
            m.insert(key.as_bytes(), b"v", u64::from(i) + 1, OpKind::Put)
                .unwrap();
            reference.insert(key.as_bytes());
        }
        for i in 0..20_000u32 {
            let h = key_hash(format!("key{i:05}").as_bytes());
            assert_eq!(
                m.may_contain_hash(h),
                reference.may_contain_hash(h),
                "key{i:05}"
            );
        }
        assert_eq!(m.dram_bytes().1, reference.bytes());
    }

    /// A reader that sees a node in a MemTable — by a descent to it or a
    /// walk over it — sees the node's filter bits: the writer stores them
    /// before the node links. Two readers race one writer's inserts, over
    /// a fresh MemTable each round.
    #[test]
    fn a_reader_sees_the_filter_bits_of_every_node_it_sees() {
        use std::sync::atomic::{AtomicU32, Ordering};
        const KEYS: u32 = 4000;
        let (dram, nvm) = pools();
        let key = |i: u32| format!("key{:05}", (i * 7919) % KEYS).into_bytes();
        for _round in 0..8 {
            let m = MemTable::new(&dram, &nvm, 1 << 20, 1 << 20, 16, KEYS as usize).unwrap();
            let written = AtomicU32::new(0);
            std::thread::scope(|s| {
                let (m, written) = (&m, &written);
                s.spawn(move || {
                    for i in 0..KEYS {
                        m.insert(&key(i), b"v", u64::from(i) + 1, OpKind::Put)
                            .unwrap();
                        written.store(i + 1, Ordering::Release);
                    }
                });
                // Descents: a key at, or just ahead of, the writer.
                s.spawn(move || {
                    let mut seen = 0;
                    while seen < KEYS {
                        let ahead = written.load(Ordering::Acquire);
                        for i in ahead.saturating_sub(2)..(ahead + 2).min(KEYS) {
                            if m.list().get(&key(i)).is_some() {
                                assert!(m.may_contain_hash(key_hash(&key(i))), "key {i}");
                            }
                        }
                        seen = ahead;
                    }
                });
                // Walks: every node a level-0 walk reaches.
                s.spawn(move || {
                    let mut nodes = 0;
                    while nodes < KEYS as usize {
                        nodes = 0;
                        for e in m.list().iter() {
                            assert!(m.may_contain_hash(key_hash(&e.key)), "{:?}", e.key);
                            nodes += 1;
                        }
                    }
                });
            });
            m.retire();
        }
    }

    /// Keys that stress the windows: a prefix of 0–12 bytes most keys
    /// share, then 0–20 bytes in runs over `0x00`, `0x01`, `a` and `0xFF`.
    /// So keys share more than 8 bytes past the prefix, are prefixes of
    /// one another, hold `0x00` bytes, and equal the prefix; and the empty
    /// key, or one off the prefix, is in one set in four.
    fn window_keys(rng: &mut StdRng, n: usize) -> Vec<Vec<u8>> {
        let prefix: Vec<u8> = (0..rng.gen_range(0..13usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();
        let mut keys = std::collections::BTreeSet::new();
        match rng.gen_range(0..8u32) {
            0 => drop(keys.insert(Vec::new())),
            1 => drop(keys.insert(vec![0xFF; 3])),
            _ => {}
        }
        while keys.len() < n {
            let len = prefix.len() + rng.gen_range(0..21usize);
            let mut k = prefix.clone();
            while k.len() < len {
                let b = [0x00, 0x01, b'a', 0xFF][rng.gen_range(0..4usize)];
                k.extend(std::iter::repeat_n(b, rng.gen_range(1..12usize)));
            }
            k.truncate(len);
            keys.insert(k);
        }
        keys.into_iter().collect()
    }

    /// Every key of `keys`, a key just before and just after each, and
    /// keys beyond both ends.
    fn window_probes(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut probes = vec![Vec::new(), vec![0x00], vec![0xFF; 40]];
        for k in keys {
            let mut after = k.clone();
            after.push(0);
            let mut before = k.clone();
            match before.pop() {
                Some(0) | None => {}
                Some(b) => before.extend([b - 1, 0xFF, 0xFF]),
            }
            probes.extend([k.clone(), before, after]);
        }
        probes
    }

    type Model = BTreeMap<Vec<u8>, IndexHit>;

    /// `index` answers as `model` does at every probe of `keys`, reading
    /// values through `list`.
    fn assert_answers(
        index: &TableIndex,
        list: &SkipList,
        model: &Model,
        keys: &[Vec<u8>],
    ) -> TestCaseResult {
        prop_assert_eq!(index.len(), model.len());
        for probe in window_probes(keys) {
            prop_assert_eq!(
                index.get(list, &probe),
                model.get(&probe).cloned(),
                "key {:?}",
                probe
            );
        }
        Ok(())
    }

    /// Writes `recs` — `(key, seq, kind)`, a value naming its seq — into a
    /// MemTable arena in `dram`, flushes it into `nvm` as the engine does,
    /// and indexes it from the MemTable; adds each key's newest version to
    /// `model`, over what it held.
    fn flushed(
        dram: &Arc<PmemPool>,
        nvm: &Arc<PmemPool>,
        recs: &[(Vec<u8>, u64, OpKind)],
        model: &mut Model,
    ) -> (SkipList, TableIndex) {
        let cap = recs
            .iter()
            .map(|(k, ..)| miodb_skiplist::node_size_upper(k.len(), 8) as usize)
            .sum::<usize>()
            + 4096;
        let mem = SkipListArena::new(dram.clone(), cap).unwrap();
        let mut newest = BTreeMap::new();
        for (k, seq, kind) in recs {
            let value = if kind.is_delete() {
                Vec::new()
            } else {
                seq.to_le_bytes().to_vec()
            };
            mem.insert(k, &value, *seq, *kind).unwrap();
            if newest.get(k).is_none_or(|&(s, _)| s < *seq) {
                newest.insert(k.clone(), (*seq, IndexHit { kind: *kind, value }));
            }
        }
        model.extend(newest.into_iter().map(|(k, (_, hit))| (k, hit)));
        let copy = one_piece_flush(&mem, nvm).unwrap();
        swizzle(nvm, &copy);
        (
            SkipList::from_raw(nvm.clone(), copy.head),
            TableIndex::flushed(&mem.list(), copy.delta),
        )
    }

    /// 1–3 versions of each of `keys`, one in four a tombstone, sequence
    /// numbers from `seq0` up.
    fn versions(rng: &mut StdRng, keys: &[Vec<u8>], seq0: u64) -> Vec<(Vec<u8>, u64, OpKind)> {
        let mut seq = seq0;
        let mut recs = Vec::new();
        for k in keys {
            for _ in 0..rng.gen_range(1..4u32) {
                seq += 1;
                let kind = if rng.gen_range(0..4u32) == 0 {
                    OpKind::Delete
                } else {
                    OpKind::Put
                };
                recs.push((k.clone(), seq, kind));
            }
        }
        recs
    }

    /// The key-window index built each way the engine builds one —
    /// flushed, merged, edited and walked — answers as a `BTreeMap` of the
    /// same entries at every key, key before and key after.
    fn check_window_index(seed: u64, n: usize) -> TestCaseResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = Arc::new(Stats::new());
        let dram = PmemPool::new(4 << 20, DeviceModel::dram(), stats.clone()).unwrap();
        let nvm = PmemPool::new(8 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
        let keys = window_keys(&mut rng, n);

        // Flushed, and walked: the older table holds about two keys in
        // three.
        let old_keys: Vec<Vec<u8>> = keys
            .iter()
            .filter(|_| rng.gen_range(0..3u32) > 0)
            .cloned()
            .collect();
        let mut model = Model::new();
        let (old_list, old_index) =
            flushed(&dram, &nvm, &versions(&mut rng, &old_keys, 0), &mut model);
        assert_answers(&old_index, &old_list, &model, &keys)?;
        let walked = TableIndex::walk(&old_list);
        prop_assert_eq!(&walked, &old_index);
        assert_answers(&walked, &old_list, &model, &keys)?;

        // Merged: a newer table over about half the keys, many of them the
        // older table's too; a key both hold resolves to the newer side.
        let new_keys: Vec<Vec<u8>> = keys.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
        let (new_list, new_index) = flushed(
            &dram,
            &nvm,
            &versions(&mut rng, &new_keys, 1 << 32),
            &mut model,
        );
        let merged = TableIndex::merged(&new_index, &old_index);
        assert_answers(&merged, &old_list, &model, &keys)?;
        let mark = InsertionMark::alloc(&nvm).unwrap();
        let out = zero_copy_merge(
            &nvm,
            new_list.head(),
            old_list.head(),
            &mark,
            MergeLimits::none(),
        );
        prop_assert!(out.is_complete());
        let walked = TableIndex::walk(&old_list);
        prop_assert_eq!(&walked, &merged);
        assert_answers(&walked, &old_list, &model, &keys)?;

        // Edited: two lazy-copy runs into a repository, each planned from
        // the index the last left, the second updating, removing and
        // inserting keys.
        let repo = GrowableSkipList::new(nvm.clone(), 256 * 1024).unwrap();
        let mut index = TableIndex::default();
        let mut model = Model::new();
        for run in 0..2u64 {
            let mut records = Vec::new();
            let touched: Vec<&Vec<u8>> =
                keys.iter().filter(|_| rng.gen_range(0..3u32) > 0).collect();
            for k in touched {
                let seq = run + 1;
                let (kind, value) = match run == 1 && rng.gen_range(0..3u32) == 0 {
                    true => (OpKind::Delete, Vec::new()),
                    false => (OpKind::Put, format!("{k:?}@{seq}").into_bytes()),
                };
                match kind {
                    OpKind::Put => model.insert(
                        k.clone(),
                        IndexHit {
                            kind,
                            value: value.clone(),
                        },
                    ),
                    OpKind::Delete => model.remove(k),
                };
                records.push(OwnedEntry {
                    key: k.clone(),
                    value,
                    seq,
                    kind,
                });
            }
            let mut edits = TableIndex::default();
            repo.run(records, index.iter_from(&[]), |k, o| edits.record(k, o))
                .unwrap();
            index = index.edited(&edits);
            assert_answers(&index, &repo.list(), &model, &keys)?;
        }
        let walked = TableIndex::walk(&repo.list());
        prop_assert_eq!(&walked, &index);
        assert_answers(&walked, &repo.list(), &model, &keys)
    }

    #[test]
    fn window_index_of_no_key_and_of_one() {
        for seed in 0..16 {
            check_window_index(seed, seed as usize % 2).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn window_index_answers_as_a_btreemap(seed in any::<u64>(), n in 2usize..400) {
            check_window_index(seed, n)?;
        }
    }
}
