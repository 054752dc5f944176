//! The leveled SSTable hierarchy and its compaction machinery.
//!
//! This models LevelDB's version set: an overlapping `L0` fed by MemTable
//! flushes, and bounded, non-overlapping levels `L1..Ln` maintained by
//! background merges. Unlike MioDB's elastic buffer, **levels here have
//! capacity limits** — the property that produces write stalls (`L0`
//! slowdown/stop) and multi-level write amplification in the baselines.

use std::sync::Arc;
use std::time::Instant;

use miodb_common::{Result, Stats};
use miodb_skiplist::iter::OwnedEntry;
use parking_lot::{Mutex, RwLock};

use crate::merge_iter::{dedup_newest, KWayMerge};
use crate::sstable::{SsTableBuilder, TableMeta};
use crate::storage::TableStore;

/// Tuning knobs for the LSM substrate.
///
/// Defaults are the paper's LevelDB configuration scaled by the dataset
/// scale factor (table size 64 MB → 2 MB, amplification factor 10).
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Target SSTable size; compaction outputs split at this size.
    pub table_bytes: usize,
    /// Data block size (device page granularity).
    pub block_bytes: usize,
    /// Bloom filter density for tables.
    pub bloom_bits_per_key: usize,
    /// Number of `L0` tables that triggers a compaction.
    pub l0_compaction_trigger: usize,
    /// Number of `L0` tables at which writers are slowed down.
    pub l0_slowdown_trigger: usize,
    /// Number of `L0` tables at which writers stop entirely.
    pub l0_stop_trigger: usize,
    /// Byte budget of `L1`; level `i` holds `amplification_factor^(i-1)`
    /// times more.
    pub level1_max_bytes: u64,
    /// Per-level growth factor (10 in LevelDB and the paper).
    pub amplification_factor: u64,
    /// Number of levels including `L0`.
    pub max_levels: usize,
}

impl Default for LsmOptions {
    fn default() -> LsmOptions {
        LsmOptions {
            table_bytes: 2 << 20,
            block_bytes: 4096,
            bloom_bits_per_key: 10,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            level1_max_bytes: 8 << 20,
            amplification_factor: 10,
            max_levels: 7,
        }
    }
}

impl LsmOptions {
    /// Byte budget of `level` (`L0` is count-limited, not byte-limited).
    pub fn level_target_bytes(&self, level: usize) -> u64 {
        if level == 0 {
            u64::MAX
        } else {
            self.level1_max_bytes
                .saturating_mul(self.amplification_factor.saturating_pow(level as u32 - 1))
        }
    }
}

/// The leveled table hierarchy.
///
/// `L0` is ordered newest-first and tables may overlap; `L1+` are sorted by
/// smallest key and non-overlapping. One compaction runs at a time.
pub struct LsmCore {
    opts: LsmOptions,
    store: Arc<TableStore>,
    stats: Arc<Stats>,
    levels: RwLock<Vec<Vec<Arc<TableMeta>>>>,
    compaction_lock: Mutex<Vec<usize>>, // round-robin pointers per level
}

impl std::fmt::Debug for LsmCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmCore")
            .field("tables_per_level", &self.tables_per_level())
            .finish()
    }
}

impl LsmCore {
    /// Creates an empty hierarchy over `store`.
    pub fn new(store: Arc<TableStore>, opts: LsmOptions) -> LsmCore {
        let stats = store.stats().clone();
        let levels = vec![Vec::new(); opts.max_levels];
        LsmCore {
            compaction_lock: Mutex::new(vec![0; opts.max_levels]),
            opts,
            store,
            stats,
            levels: RwLock::new(levels),
        }
    }

    /// The options in use.
    pub fn options(&self) -> &LsmOptions {
        &self.opts
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<TableStore> {
        &self.store
    }

    /// Number of tables currently in `L0`.
    pub fn l0_count(&self) -> usize {
        self.levels.read()[0].len()
    }

    /// Table counts per level, top to bottom.
    pub fn tables_per_level(&self) -> Vec<usize> {
        self.levels.read().iter().map(Vec::len).collect()
    }

    /// Total serialized bytes per level.
    pub fn bytes_per_level(&self) -> Vec<u64> {
        self.levels
            .read()
            .iter()
            .map(|lvl| lvl.iter().map(|t| t.bytes).sum())
            .collect()
    }

    /// Builds one or more SSTables from a multi-version-ordered entry
    /// stream and installs them at the front of `L0` (newest first).
    ///
    /// # Errors
    ///
    /// Propagates build failures; an empty stream is a no-op.
    pub fn ingest_sorted_run(
        &self,
        entries: impl Iterator<Item = OwnedEntry>,
    ) -> Result<Vec<Arc<TableMeta>>> {
        let tables = self.build_tables(entries)?;
        let mut levels = self.levels.write();
        for t in tables.iter().rev() {
            levels[0].insert(0, t.clone());
        }
        Ok(tables)
    }

    /// Serializes an entry stream into size-split tables without
    /// installing them.
    fn build_tables(
        &self,
        entries: impl Iterator<Item = OwnedEntry>,
    ) -> Result<Vec<Arc<TableMeta>>> {
        let mut out = Vec::new();
        let mut builder: Option<SsTableBuilder> = None;
        for e in entries {
            let b = builder.get_or_insert_with(|| {
                SsTableBuilder::new(self.opts.block_bytes, self.opts.bloom_bits_per_key)
            });
            b.add(&e.key, &e.value, e.seq, e.kind);
            if b.estimated_bytes() >= self.opts.table_bytes {
                let meta = builder.take().unwrap().finish(&self.store, &self.stats)?;
                out.push(Arc::new(meta));
            }
        }
        if let Some(b) = builder {
            if b.num_entries() > 0 {
                out.push(Arc::new(b.finish(&self.store, &self.stats)?));
            }
        }
        // Settle: precedes every caller's install of `out`. A background
        // caller holds at most `compaction_lock`, which only background
        // threads take.
        miodb_pmem::device::settle();
        Ok(out)
    }

    /// Point lookup through the hierarchy: `L0` newest-first, then binary
    /// search in each bounded level. Returns tombstones so callers layered
    /// above (MemTables) can resolve deletion.
    ///
    /// # Errors
    ///
    /// Propagates table corruption.
    pub fn get(&self, key: &[u8]) -> Result<Option<OwnedEntry>> {
        let levels = self.levels.read().clone();
        for (i, level) in levels.iter().enumerate() {
            if i == 0 {
                for t in level {
                    if key < t.smallest.as_slice() || key > t.largest.as_slice() {
                        continue;
                    }
                    if !t.reader.may_contain(key) {
                        self.stats
                            .bloom_skips
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        continue;
                    }
                    if let Some(e) = t.reader.get(key, &self.stats)? {
                        return Ok(Some(e));
                    }
                    self.stats
                        .bloom_false_positives
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            } else {
                let idx = level.partition_point(|t| t.largest.as_slice() < key);
                if idx < level.len() && level[idx].smallest.as_slice() <= key {
                    let t = &level[idx];
                    if t.reader.may_contain(key) {
                        if let Some(e) = t.reader.get(key, &self.stats)? {
                            return Ok(Some(e));
                        }
                        self.stats
                            .bloom_false_positives
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        self.stats
                            .bloom_skips
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(None)
    }

    /// Iterator sources for a scan starting at `start`, newest level
    /// first — feed into [`KWayMerge`]/[`dedup_newest`].
    pub fn scan_sources(&self, start: &[u8]) -> Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> {
        let levels = self.levels.read().clone();
        let mut out: Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> = Vec::new();
        for (i, level) in levels.iter().enumerate() {
            if i == 0 {
                for t in level {
                    out.push(Box::new(t.reader.iter_from(start, self.stats.clone())));
                }
            } else {
                // Non-overlapping: chain the tables from the first that can
                // contain `start`.
                let idx = level.partition_point(|t| t.largest.as_slice() < start);
                let stats = self.stats.clone();
                let tables: Vec<Arc<TableMeta>> = level[idx..].to_vec();
                let start = start.to_vec();
                let iter = tables.into_iter().enumerate().flat_map(move |(j, t)| {
                    if j == 0 {
                        t.reader.iter_from(&start, stats.clone())
                    } else {
                        t.reader.iter(stats.clone())
                    }
                });
                out.push(Box::new(iter));
            }
        }
        out
    }

    /// The level most in need of compaction, if any: `L0` past its trigger,
    /// or the most over-budget bounded level.
    pub fn needs_compaction(&self) -> Option<usize> {
        let levels = self.levels.read();
        if levels[0].len() >= self.opts.l0_compaction_trigger {
            return Some(0);
        }
        let mut worst: Option<(usize, f64)> = None;
        for (i, level) in levels
            .iter()
            .enumerate()
            .skip(1)
            .take(self.opts.max_levels - 2)
        {
            let bytes: u64 = level.iter().map(|t| t.bytes).sum();
            let ratio = bytes as f64 / self.opts.level_target_bytes(i) as f64;
            if ratio > 1.0 && worst.is_none_or(|(_, w)| ratio > w) {
                worst = Some((i, ratio));
            }
        }
        worst.map(|(i, _)| i)
    }

    /// Runs at most one compaction. Returns `true` if work was done.
    ///
    /// # Errors
    ///
    /// Propagates build/read failures.
    pub fn run_one_compaction(&self) -> Result<bool> {
        let mut ptrs = self.compaction_lock.lock();
        let Some(level) = self.needs_compaction() else {
            return Ok(false);
        };
        let t0 = Instant::now();

        // Select inputs under the read lock.
        let (inputs_this, inputs_next, out_level) = {
            let levels = self.levels.read();
            if level == 0 {
                let this: Vec<Arc<TableMeta>> = levels[0].clone();
                let (smallest, largest) = key_range(&this);
                let next = overlapping(&levels[1], &smallest, &largest);
                (this, next, 1)
            } else {
                let pick = ptrs[level] % levels[level].len();
                ptrs[level] = ptrs[level].wrapping_add(1);
                let t = levels[level][pick].clone();
                let next = overlapping(&levels[level + 1], &t.smallest, &t.largest);
                (vec![t], next, level + 1)
            }
        };

        // Merge: inputs from the upper level are newer; within L0 the list
        // is already newest-first.
        let mut sources: Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> = Vec::new();
        for t in &inputs_this {
            sources.push(Box::new(t.reader.iter(self.stats.clone())));
        }
        for t in &inputs_next {
            sources.push(Box::new(t.reader.iter(self.stats.clone())));
        }
        let drop_tombstones = out_level == self.opts.max_levels - 1;
        let merged = dedup_newest(KWayMerge::new(sources), drop_tombstones);
        let outputs = self.build_tables(merged)?;

        // Install: replace inputs with outputs.
        {
            let mut levels = self.levels.write();
            let this_ids: Vec<u64> = inputs_this.iter().map(|t| t.id).collect();
            let next_ids: Vec<u64> = inputs_next.iter().map(|t| t.id).collect();
            levels[level].retain(|t| !this_ids.contains(&t.id));
            levels[out_level].retain(|t| !next_ids.contains(&t.id));
            for t in &outputs {
                levels[out_level].push(t.clone());
            }
            levels[out_level].sort_by(|a, b| a.smallest.cmp(&b.smallest));
        }
        for t in inputs_this.iter().chain(inputs_next.iter()) {
            self.store.delete(t.id);
        }

        Stats::add_time(&self.stats.copy_compaction_ns, t0.elapsed());
        self.stats
            .copy_compactions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(true)
    }

    /// Merges a sorted run straight into `level` (MatrixKV's column
    /// compaction path), bypassing `L0`.
    ///
    /// # Errors
    ///
    /// Propagates build/read failures.
    pub fn ingest_run_to_level(
        &self,
        entries: impl Iterator<Item = OwnedEntry> + Send + 'static,
        level: usize,
    ) -> Result<()> {
        let _ptrs = self.compaction_lock.lock();
        let t0 = Instant::now();
        let mut run = entries.peekable();
        let Some(first) = run.peek() else {
            return Ok(());
        };
        let smallest = first.key.clone();
        // The run is sorted, so its overlap range is [first, last]; we do
        // not know `last` without draining, so conservatively merge with
        // tables overlapping from `smallest` onward, bounded after draining.
        let buffered: Vec<OwnedEntry> = run.collect();
        let largest = buffered.last().unwrap().key.clone();
        let inputs = {
            let levels = self.levels.read();
            overlapping(&levels[level], &smallest, &largest)
        };
        let mut sources: Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> =
            vec![Box::new(buffered.into_iter())];
        for t in &inputs {
            sources.push(Box::new(t.reader.iter(self.stats.clone())));
        }
        let drop_tombstones = level == self.opts.max_levels - 1;
        let merged = dedup_newest(KWayMerge::new(sources), drop_tombstones);
        let outputs = self.build_tables(merged)?;
        {
            let mut levels = self.levels.write();
            let ids: Vec<u64> = inputs.iter().map(|t| t.id).collect();
            levels[level].retain(|t| !ids.contains(&t.id));
            for t in &outputs {
                levels[level].push(t.clone());
            }
            levels[level].sort_by(|a, b| a.smallest.cmp(&b.smallest));
        }
        for t in &inputs {
            self.store.delete(t.id);
        }
        Stats::add_time(&self.stats.copy_compaction_ns, t0.elapsed());
        self.stats
            .copy_compactions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Runs compactions on the calling thread until none is needed (tests
    /// drive the hierarchy with it; engines use
    /// [`run_compactions`](crate::front::run_compactions)).
    ///
    /// # Errors
    ///
    /// Propagates compaction failures.
    pub fn compact_to_quiescence(&self) -> Result<()> {
        while self.run_one_compaction()? {}
        Ok(())
    }
}

fn key_range(tables: &[Arc<TableMeta>]) -> (Vec<u8>, Vec<u8>) {
    let mut smallest = tables[0].smallest.clone();
    let mut largest = tables[0].largest.clone();
    for t in &tables[1..] {
        if t.smallest < smallest {
            smallest = t.smallest.clone();
        }
        if t.largest > largest {
            largest = t.largest.clone();
        }
    }
    (smallest, largest)
}

fn overlapping(level: &[Arc<TableMeta>], smallest: &[u8], largest: &[u8]) -> Vec<Arc<TableMeta>> {
    level
        .iter()
        .filter(|t| !(t.largest.as_slice() < smallest || t.smallest.as_slice() > largest))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::OpKind;
    use miodb_pmem::DeviceModel;

    fn entry(i: u32, seq: u64) -> OwnedEntry {
        OwnedEntry {
            key: format!("key{i:06}").into_bytes(),
            value: vec![b'v'; 100],
            seq,
            kind: OpKind::Put,
        }
    }

    fn core() -> LsmCore {
        let stats = Arc::new(Stats::new());
        let store = TableStore::new(DeviceModel::ssd_unthrottled(), stats);
        LsmCore::new(
            store,
            LsmOptions {
                table_bytes: 16 * 1024,
                level1_max_bytes: 64 * 1024,
                ..LsmOptions::default()
            },
        )
    }

    #[test]
    fn ingest_and_get() {
        let c = core();
        c.ingest_sorted_run((0..100).map(|i| entry(i, i as u64 + 1)))
            .unwrap();
        assert!(c.l0_count() > 0);
        let e = c.get(b"key000042").unwrap().unwrap();
        assert_eq!(e.seq, 43);
        assert!(c.get(b"nope").unwrap().is_none());
    }

    #[test]
    fn l0_newest_wins() {
        let c = core();
        c.ingest_sorted_run(std::iter::once(entry(7, 1))).unwrap();
        c.ingest_sorted_run(std::iter::once(OwnedEntry {
            value: b"newer".to_vec(),
            ..entry(7, 2)
        }))
        .unwrap();
        let e = c.get(b"key000007").unwrap().unwrap();
        assert_eq!(e.value, b"newer");
        assert_eq!(e.seq, 2);
    }

    #[test]
    fn l0_compaction_moves_to_l1() {
        let c = core();
        for round in 0..c.options().l0_compaction_trigger {
            c.ingest_sorted_run((0..50).map(|i| entry(i, (round * 50 + i as usize) as u64 + 1)))
                .unwrap();
        }
        assert_eq!(c.needs_compaction(), Some(0));
        assert!(c.run_one_compaction().unwrap());
        let counts = c.tables_per_level();
        assert_eq!(counts[0], 0, "L0 drained");
        assert!(counts[1] > 0, "L1 populated");
        // Data survives and newest version wins.
        let e = c.get(b"key000010").unwrap().unwrap();
        assert!(e.seq > 150);
    }

    #[test]
    fn deep_compaction_cascades() {
        let c = core();
        // Enough data to overflow L1 (64 KiB): ~40 runs of 50 x 100 B.
        let mut seq = 0u64;
        for _ in 0..40 {
            let mut batch: Vec<OwnedEntry> = (0..50)
                .map(|i| {
                    seq += 1;
                    entry(i * 13 % 997, seq)
                })
                .collect();
            batch.sort_by(|a, b| miodb_common::types::mv_cmp(&a.key, a.seq, &b.key, b.seq));
            c.ingest_sorted_run(batch.into_iter()).unwrap();
            c.compact_to_quiescence().unwrap();
        }
        let counts = c.tables_per_level();
        assert!(counts[2] > 0 || counts[1] > 0, "levels: {counts:?}");
        assert!(c.needs_compaction().is_none());
        // WA: total device writes exceed unique data (multi-level rewrites).
        let snap = c.store().stats().snapshot();
        assert!(snap.ssd_bytes_written > 0);
    }

    #[test]
    fn tombstones_drop_at_bottom() {
        let stats = Arc::new(Stats::new());
        let store = TableStore::new(DeviceModel::ssd_unthrottled(), stats);
        let c = LsmCore::new(
            store,
            LsmOptions {
                table_bytes: 8 * 1024,
                level1_max_bytes: 64, // force immediate L1 -> bottom cascade
                max_levels: 3,        // bottom = L2
                l0_compaction_trigger: 1,
                ..LsmOptions::default()
            },
        );
        c.ingest_sorted_run(std::iter::once(entry(1, 1))).unwrap();
        c.compact_to_quiescence().unwrap();
        c.ingest_sorted_run(std::iter::once(OwnedEntry {
            value: Vec::new(),
            kind: OpKind::Delete,
            ..entry(1, 2)
        }))
        .unwrap();
        c.compact_to_quiescence().unwrap();
        // Eventually the tombstone and the value both vanish at the bottom.
        let total: u64 = c
            .tables_per_level()
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let levels = c.levels.read();
                levels[i].iter().map(|t| t.num_entries).sum::<u64>()
            })
            .sum();
        assert_eq!(total, 0, "tables: {:?}", c.tables_per_level());
        assert!(c.get(b"key000001").unwrap().is_none());
    }

    #[test]
    fn scan_sources_merge_correctly() {
        let c = core();
        c.ingest_sorted_run((0..30).map(|i| entry(i * 2, i as u64 + 1)))
            .unwrap();
        c.ingest_sorted_run((0..30).map(|i| entry(i * 2 + 1, 100 + i as u64)))
            .unwrap();
        let merged: Vec<OwnedEntry> =
            dedup_newest(KWayMerge::new(c.scan_sources(b"key000010")), true).collect();
        assert_eq!(merged[0].key, b"key000010");
        assert_eq!(merged.len(), 50);
        for w in merged.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn ingest_run_to_level_merges_in_place() {
        let c = core();
        // Seed L1 via a normal compaction.
        for _ in 0..4 {
            c.ingest_sorted_run((0..50).map(|i| entry(i, i as u64 + 1)))
                .unwrap();
        }
        c.compact_to_quiescence().unwrap();
        let seeded_l1 = c.tables_per_level()[1];
        assert!(seeded_l1 > 0);
        // Column-compact a newer run for the lower half of the keyspace.
        let run: Vec<OwnedEntry> = (0..25)
            .map(|i| OwnedEntry {
                value: b"column".to_vec(),
                ..entry(i, 1000 + i as u64)
            })
            .collect();
        c.ingest_run_to_level(run.into_iter(), 1).unwrap();
        assert_eq!(c.get(b"key000010").unwrap().unwrap().value, b"column");
        assert_eq!(c.get(b"key000040").unwrap().unwrap().seq, 41);
        assert_eq!(c.l0_count(), 0, "column compaction bypasses L0");
    }
}
