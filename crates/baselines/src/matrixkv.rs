//! MatrixKV baseline: an NVM matrix container replacing `L0`, drained by
//! fine-grained column compactions.
//!
//! Per the paper (§2.3, Figure 1d):
//!
//! - flushed MemTables are **serialized into rows** of a matrix container
//!   in NVM (we reuse the SSTable block format for rows — MatrixKV's
//!   RowTable is likewise a serialized sorted run with a DRAM index);
//! - when the container grows past its budget, a **column compaction**
//!   selects one key-range column across all rows, merges it directly into
//!   `L1`, and logically truncates each row — far less data per compaction
//!   than a monolithic `L0→L1` merge, which removes interval stalls but
//!   keeps cumulative ones (Table 1);
//! - reads binary-search each row through its DRAM-resident index
//!   (deserializing the touched blocks), newest row first.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use miodb_common::{
    CompactionKind, EngineReport, EngineTelemetry, KvEngine, OpKind, Result, ScanEntry, StallKind,
    Stats, Timed,
};
use miodb_lsm::front::{run_compactions, FrontEngine, Lower, MemFront, Source};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_lsm::sstable::{SsTableBuilder, TableMeta};
use miodb_lsm::{LsmCore, LsmOptions, TableStore};
use miodb_pmem::DeviceModel;
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::SkipListArena;
use parking_lot::RwLock;

/// MatrixKV configuration.
#[derive(Debug, Clone)]
pub struct MatrixKvOptions {
    /// DRAM MemTable capacity.
    pub memtable_bytes: usize,
    /// Matrix container byte budget (paper: 8 GB of NVM, scaled).
    pub container_bytes: u64,
    /// Fraction of the container drained per column compaction
    /// (denominator: 8 → one eighth per compaction).
    pub column_denominator: u64,
    /// LSM hierarchy for `L1+` (its `L0` stays empty).
    pub lsm: LsmOptions,
    /// Device for SSTables (`L1+`).
    pub table_device: DeviceModel,
    /// Device the matrix container rows live on (NVM-class).
    pub row_device: DeviceModel,
    /// Engine name.
    pub name: String,
}

impl Default for MatrixKvOptions {
    fn default() -> MatrixKvOptions {
        MatrixKvOptions {
            memtable_bytes: 2 << 20,
            container_bytes: 16 << 20,
            column_denominator: 8,
            lsm: LsmOptions::default(),
            table_device: DeviceModel::nvm(),
            row_device: DeviceModel::nvm(),
            name: "MatrixKV".to_string(),
        }
    }
}

/// One matrix row: a serialized sorted run plus the logical lower bound
/// below which its cells were consumed by column compactions.
#[derive(Debug, Clone)]
struct Row {
    meta: Arc<TableMeta>,
    /// Keys `< lower_bound` in this row are dead (already compacted).
    lower_bound: Vec<u8>,
}

impl Row {
    fn live(&self, key: &[u8]) -> bool {
        key >= self.lower_bound.as_slice() && key <= self.meta.largest.as_slice()
    }

    fn exhausted(&self) -> bool {
        self.lower_bound.as_slice() > self.meta.largest.as_slice()
    }
}

struct Inner {
    opts: MatrixKvOptions,
    front: MemFront,
    row_store: Arc<TableStore>,
    /// Rows, newest first.
    rows: RwLock<Vec<Row>>,
    lsm: LsmCore,
}

/// The MatrixKV baseline engine.
pub struct MatrixKv {
    db: FrontEngine<Inner>,
}

impl std::fmt::Debug for MatrixKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixKv")
            .field("rows", &self.db.rows.read().len())
            .finish()
    }
}

impl MatrixKv {
    /// Opens a fresh engine.
    ///
    /// # Errors
    ///
    /// Returns allocation errors from the DRAM pool.
    pub fn open(opts: MatrixKvOptions, stats: Arc<Stats>) -> Result<MatrixKv> {
        let row_store = TableStore::new(opts.row_device, stats.clone());
        let table_store = TableStore::new(opts.table_device, stats.clone());
        let lsm = LsmCore::new(table_store, opts.lsm.clone());
        // Level 0 is the matrix container; deeper levels mirror the LSM.
        let levels = 1 + lsm.tables_per_level().len();
        // The WAL is appended to the container's NVM device.
        let front = MemFront::new(opts.memtable_bytes, opts.row_device, levels, stats)?;
        let inner = Inner {
            opts,
            front,
            row_store,
            rows: RwLock::new(Vec::new()),
            lsm,
        };
        Ok(MatrixKv {
            db: FrontEngine::start(
                inner,
                &[column_worker, |m| run_compactions(&m.front, &m.lsm)],
            ),
        })
    }
}

impl Lower for Inner {
    fn front(&self) -> &MemFront {
        &self.front
    }

    /// Serializes the immutable MemTable into a new container row.
    fn drain(&self, imm: &SkipListArena) -> Result<()> {
        let mut builder =
            SsTableBuilder::new(self.opts.lsm.block_bytes, self.opts.lsm.bloom_bits_per_key);
        for e in imm.list().iter() {
            builder.add(&e.key, &e.value, e.seq, e.kind);
        }
        if builder.num_entries() > 0 {
            let meta = builder.finish(&self.row_store, self.front.stats())?;
            self.rows.write().insert(
                0,
                Row {
                    meta: Arc::new(meta),
                    lower_bound: Vec::new(),
                },
            );
        }
        Ok(())
    }

    /// Container backpressure: pacing past the soft budget, as MatrixKV
    /// does when column compactions fall behind (cumulative stalls).
    fn pace(&self) {
        if self.row_store.total_bytes() > self.opts.container_bytes {
            let _stall = self
                .front
                .telemetry()
                .begin(Timed::Stall(StallKind::Cumulative));
            std::thread::sleep(Duration::from_micros(800));
        }
    }

    fn busy(&self) -> bool {
        self.row_store.total_bytes() >= self.opts.container_bytes / 2
            || self.lsm.needs_compaction().is_some()
    }

    fn get(&self, key: &[u8]) -> Result<Option<(Vec<u8>, OpKind)>> {
        let stats = self.front.stats();
        // Matrix container rows, newest first.
        let rows: Vec<Row> = self.rows.read().clone();
        for row in &rows {
            if !row.live(key) || key < row.meta.smallest.as_slice() {
                continue;
            }
            if !row.meta.reader.may_contain(key) {
                stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(e) = row.meta.reader.get(key, stats)? {
                return Ok(Some((e.value, e.kind)));
            }
        }
        // LSM levels below.
        Ok(self.lsm.get(key)?.map(|e| (e.value, e.kind)))
    }

    fn scan_sources(&self, start: &[u8]) -> Vec<Source> {
        let rows: Vec<Row> = self.rows.read().clone();
        let mut sources: Vec<Source> = Vec::new();
        for row in &rows {
            let from = if start < row.lower_bound.as_slice() {
                row.lower_bound.clone()
            } else {
                start.to_vec()
            };
            sources.push(Box::new(
                row.meta.reader.iter_from(&from, self.front.stats().clone()),
            ));
        }
        sources.extend(self.lsm.scan_sources(start));
        sources
    }
}

/// Column compaction: drain the lowest key-range column of the container
/// into `L1` directly.
fn column_worker(inner: &Inner) {
    while !inner.front.is_shut_down() {
        if inner.row_store.total_bytes() < inner.opts.container_bytes / 2 {
            // Settle: precedes the idle poll (a column compaction's `L1`
            // install settles first; see `LsmCore::build_tables`).
            miodb_pmem::device::settle_idle();
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        if let Err(e) = run_column_compaction(inner) {
            inner.front.fail(format!("column compaction failed: {e}"));
            return;
        }
    }
}

fn run_column_compaction(inner: &Inner) -> Result<()> {
    let rows: Vec<Row> = inner.rows.read().clone();
    if rows.is_empty() {
        std::thread::sleep(Duration::from_millis(2));
        return Ok(());
    }
    // The container is level 0; a column compaction moves data into L1.
    let column_compaction = inner.front.telemetry().begin(Timed::Compaction {
        level: 0,
        kind: CompactionKind::LazyCopy,
    });
    let target_bytes =
        (inner.opts.container_bytes / inner.opts.column_denominator).max(64 * 1024) as usize;

    // Collect the global lowest column: merge all live row entries and cut
    // at the target size. Rows are newest-first so ties resolve correctly.
    let mut sources: Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> = Vec::new();
    for row in &rows {
        let lb = row.lower_bound.clone();
        sources.push(Box::new(
            row.meta.reader.iter_from(&lb, inner.front.stats().clone()),
        ));
    }
    let mut merged = KWayMerge::new(sources);
    let mut column: Vec<OwnedEntry> = Vec::new();
    let mut bytes = 0usize;
    let mut split: Option<Vec<u8>> = None;
    for e in &mut merged {
        bytes += e.key.len() + e.value.len() + 17;
        column.push(e);
        if bytes >= target_bytes {
            split = Some(column.last().unwrap().key.clone());
            break;
        }
    }
    if column.is_empty() {
        return Ok(());
    }
    // Include every remaining version of the split key so no row keeps a
    // stale newer version below its lower bound.
    if let Some(split_key) = &split {
        for e in merged {
            if &e.key == split_key {
                column.push(e);
            } else {
                break;
            }
        }
    }

    let deduped: Vec<OwnedEntry> = dedup_newest(column.into_iter(), false).collect();
    inner.lsm.ingest_run_to_level(deduped.into_iter(), 1)?;

    // Truncate rows logically; drop exhausted ones and free their NVM.
    let new_bound: Vec<u8> = match &split {
        Some(k) => {
            let mut b = k.clone();
            b.push(0);
            b
        }
        // No split: the whole container was consumed.
        None => {
            let mut max = Vec::new();
            for r in &rows {
                if r.meta.largest > max {
                    max = r.meta.largest.clone();
                }
            }
            max.push(0);
            max
        }
    };
    {
        // Only the rows that contributed to this column may be truncated —
        // a row flushed after the snapshot holds newer versions that were
        // not moved.
        let participant_ids: std::collections::HashSet<u64> =
            rows.iter().map(|r| r.meta.id).collect();
        let mut rows_w = inner.rows.write();
        for row in rows_w.iter_mut() {
            if participant_ids.contains(&row.meta.id) && row.lower_bound < new_bound {
                row.lower_bound = new_bound.clone();
            }
        }
        let dead: Vec<Row> = rows_w.iter().filter(|r| r.exhausted()).cloned().collect();
        rows_w.retain(|r| !r.exhausted());
        for d in dead {
            inner.row_store.delete(d.meta.id);
        }
    }
    column_compaction.finish(bytes as u64);
    Ok(())
}

impl KvEngine for MatrixKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.db.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.db.delete(key)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.get(key)
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        Ok(self.db.scan(start, limit))
    }

    fn wait_idle(&self) -> Result<()> {
        self.db.wait_idle()
    }

    fn report(&self) -> EngineReport {
        let d = &*self.db;
        let mut tables = vec![d.rows.read().len()];
        tables.extend(d.lsm.tables_per_level());
        EngineReport {
            name: d.opts.name.clone(),
            nvm_used_bytes: d.row_store.total_bytes() + d.lsm.store().total_bytes(),
            nvm_peak_bytes: d.row_store.total_bytes(),
            dram_huge_page_bytes: d.front.dram().huge_page_bytes(),
            tables_per_level: tables,
            stats: d.front.stats().snapshot(),
            ..EngineReport::default()
        }
    }

    fn name(&self) -> &str {
        &self.db.opts.name
    }

    fn telemetry(&self) -> Option<&EngineTelemetry> {
        Some(self.db.front.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> MatrixKvOptions {
        MatrixKvOptions {
            memtable_bytes: 32 * 1024,
            container_bytes: 256 * 1024,
            column_denominator: 4,
            lsm: LsmOptions {
                table_bytes: 32 * 1024,
                level1_max_bytes: 128 * 1024,
                ..LsmOptions::default()
            },
            table_device: DeviceModel::nvm_unthrottled(),
            row_device: DeviceModel::nvm_unthrottled(),
            ..MatrixKvOptions::default()
        }
    }

    #[test]
    fn put_get_delete() {
        let d = MatrixKv::open(opts(), Arc::new(Stats::new())).unwrap();
        d.put(b"k", b"v").unwrap();
        assert_eq!(d.get(b"k").unwrap().unwrap(), b"v");
        d.delete(b"k").unwrap();
        assert!(d.get(b"k").unwrap().is_none());
    }

    #[test]
    fn rows_form_and_columns_drain() {
        let d = MatrixKv::open(opts(), Arc::new(Stats::new())).unwrap();
        let value = vec![1u8; 512];
        for i in 0..3000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let snap = d.report().stats;
        assert!(snap.flush_count > 1, "rows must form");
        assert!(snap.copy_compactions > 0, "column compactions must run");
        assert!(
            d.report().tables_per_level[1..].iter().sum::<usize>() > 0,
            "L1+ must receive columns: {:?}",
            d.report().tables_per_level
        );
        for i in (0..3000u32).step_by(271) {
            assert_eq!(
                d.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value,
                "key{i}"
            );
        }
    }

    #[test]
    fn newest_version_wins_across_rows_and_lsm() {
        let d = MatrixKv::open(opts(), Arc::new(Stats::new())).unwrap();
        for round in 0..8 {
            for i in 0..300u32 {
                d.put(
                    format!("key{i:05}").as_bytes(),
                    format!("v{round}-{:0400}", i).as_bytes(),
                )
                .unwrap();
            }
        }
        d.wait_idle().unwrap();
        for i in (0..300u32).step_by(23) {
            let v = d.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
            assert!(
                v.starts_with(b"v7-"),
                "stale: {:?}",
                String::from_utf8_lossy(&v[..4])
            );
        }
    }

    #[test]
    fn scan_sees_all_layers() {
        let d = MatrixKv::open(opts(), Arc::new(Stats::new())).unwrap();
        let value = vec![2u8; 300];
        for i in 0..2000u32 {
            d.put(format!("key{i:05}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let out = d.scan(b"key00100", 20).unwrap();
        assert_eq!(out.len(), 20);
        assert_eq!(out[0].key, b"key00100");
        for w in out.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn deletes_hold_across_column_compaction() {
        let d = MatrixKv::open(opts(), Arc::new(Stats::new())).unwrap();
        let value = vec![3u8; 400];
        for i in 0..1500u32 {
            d.put(format!("key{i:05}").as_bytes(), &value).unwrap();
        }
        for i in (0..1500u32).step_by(3) {
            d.delete(format!("key{i:05}").as_bytes()).unwrap();
        }
        d.wait_idle().unwrap();
        for i in (0..1500u32).step_by(50) {
            let got = d.get(format!("key{i:05}").as_bytes()).unwrap();
            if i % 3 == 0 {
                assert!(got.is_none(), "key{i:05} must stay deleted");
            } else {
                assert!(got.is_some(), "key{i:05} must live");
            }
        }
    }
}
