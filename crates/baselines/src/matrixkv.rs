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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_common::{
    CompactionKind, EngineReport, EngineTelemetry, Error, KvEngine, OpKind, Result, ScanEntry,
    StallKind, Stats, Timed,
};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_lsm::sstable::{SsTableBuilder, TableMeta};
use miodb_lsm::{LsmCore, LsmOptions, TableStore};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::SkipListArena;
use parking_lot::{Condvar, Mutex, RwLock};

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

struct MemState {
    active: Arc<SkipListArena>,
    imm: Option<Arc<SkipListArena>>,
}

struct Inner {
    opts: MatrixKvOptions,
    stats: Arc<Stats>,
    dram: Arc<PmemPool>,
    row_store: Arc<TableStore>,
    /// Rows, newest first.
    rows: RwLock<Vec<Row>>,
    lsm: LsmCore,
    mem: RwLock<MemState>,
    write_mutex: Mutex<()>,
    imm_cv: Condvar,
    flush_flag: Mutex<bool>,
    flush_cv: Condvar,
    seq: AtomicU64,
    shutdown: AtomicBool,
    bg_error: Mutex<Option<String>>,
    telemetry: EngineTelemetry,
}

/// The MatrixKV baseline engine.
pub struct MatrixKv {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for MatrixKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixKv")
            .field("rows", &self.inner.rows.read().len())
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
        let dram = PmemPool::new(
            (opts.memtable_bytes * 6).max(8 << 20),
            DeviceModel::dram(),
            stats.clone(),
        )?;
        let row_store = TableStore::new(opts.row_device, stats.clone());
        let table_store = TableStore::new(opts.table_device, stats.clone());
        let lsm = LsmCore::new(table_store, opts.lsm.clone());
        let active = Arc::new(SkipListArena::new(dram.clone(), opts.memtable_bytes)?);
        // Level 0 is the matrix container; deeper levels mirror the LSM.
        let telemetry = EngineTelemetry::new(1 + lsm.tables_per_level().len(), stats.clone());
        let inner = Arc::new(Inner {
            opts,
            stats,
            dram,
            row_store,
            rows: RwLock::new(Vec::new()),
            lsm,
            mem: RwLock::new(MemState { active, imm: None }),
            write_mutex: Mutex::new(()),
            imm_cv: Condvar::new(),
            flush_flag: Mutex::new(false),
            flush_cv: Condvar::new(),
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            bg_error: Mutex::new(None),
            telemetry,
        });
        let mut threads = Vec::new();
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || flush_worker(inner)));
        }
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || column_worker(inner)));
        }
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || lsm_worker(inner)));
        }
        Ok(MatrixKv {
            inner,
            threads: Mutex::new(threads),
        })
    }

    fn container_bytes(&self) -> u64 {
        self.inner.row_store.total_bytes()
    }

    fn write(&self, key: &[u8], value: &[u8], kind: OpKind) -> Result<()> {
        let inner = &*self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::Closed);
        }
        if let Some(msg) = inner.bg_error.lock().clone() {
            return Err(Error::Background(msg));
        }
        let op_start = Instant::now();
        let mut guard = inner.write_mutex.lock();
        inner
            .stats
            .user_bytes_written
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);

        // Container backpressure: pacing past the soft budget, as MatrixKV
        // does when column compactions fall behind (cumulative stalls).
        let used = self.container_bytes();
        if used > inner.opts.container_bytes {
            let _stall = inner.telemetry.begin(Timed::Stall(StallKind::Cumulative));
            std::thread::sleep(Duration::from_micros(800));
        }

        // WAL to NVM (modeled append).
        inner
            .row_store
            .stats()
            .nvm_bytes_written
            .fetch_add((17 + key.len() + value.len()) as u64, Ordering::Relaxed);
        inner
            .opts
            .row_device
            .delay_write(17 + key.len() + value.len());

        let seq = inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        loop {
            // Scope the Arc clone to the attempt so a MemTable that rotates
            // out is not pinned in DRAM by its own writer.
            let r = {
                let active = inner.mem.read().active.clone();
                active.insert(key, value, seq, kind)
            };
            match r {
                Ok(()) => {
                    let h = match kind {
                        OpKind::Put => &inner.telemetry.put_latency,
                        OpKind::Delete => &inner.telemetry.delete_latency,
                    };
                    h.record_elapsed(op_start);
                    return Ok(());
                }
                Err(Error::ArenaFull) => {
                    let mut stall = None;
                    while inner.mem.read().imm.is_some() {
                        if stall.is_none() {
                            stall = Some(inner.telemetry.begin(Timed::Stall(StallKind::Interval)));
                        }
                        inner.imm_cv.wait_for(&mut guard, Duration::from_millis(5));
                        if inner.shutdown.load(Ordering::Acquire) {
                            return Err(Error::Closed);
                        }
                    }
                    drop(stall);
                    let fresh = Arc::new(SkipListArena::new(
                        inner.dram.clone(),
                        inner
                            .opts
                            .memtable_bytes
                            .max(SkipListArena::capacity_for_entry(key.len(), value.len())),
                    )?);
                    {
                        let mut mem = inner.mem.write();
                        let old = std::mem::replace(&mut mem.active, fresh);
                        mem.imm = Some(old);
                    }
                    let mut flag = inner.flush_flag.lock();
                    *flag = true;
                    inner.flush_cv.notify_all();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serializes the immutable MemTable into a new container row.
fn flush_worker(inner: Arc<Inner>) {
    loop {
        {
            let mut flag = inner.flush_flag.lock();
            while !*flag && !inner.shutdown.load(Ordering::Acquire) {
                inner
                    .flush_cv
                    .wait_for(&mut flag, Duration::from_millis(10));
            }
            *flag = false;
        }
        let imm = inner.mem.read().imm.clone();
        if let Some(imm) = imm {
            let bytes = imm.used_bytes();
            let flush = inner.telemetry.begin(Timed::Flush { bytes });
            let result: Result<()> = (|| {
                let mut builder = SsTableBuilder::new(
                    inner.opts.lsm.block_bytes,
                    inner.opts.lsm.bloom_bits_per_key,
                );
                for e in imm.list().iter() {
                    builder.add(&e.key, &e.value, e.seq, e.kind);
                }
                if builder.num_entries() > 0 {
                    let meta = builder.finish(&inner.row_store, &inner.stats)?;
                    inner.rows.write().insert(
                        0,
                        Row {
                            meta: Arc::new(meta),
                            lower_bound: Vec::new(),
                        },
                    );
                }
                Ok(())
            })();
            match result {
                Ok(()) => flush.finish(bytes),
                Err(e) => {
                    drop(flush);
                    *inner.bg_error.lock() = Some(format!("row flush failed: {e}"));
                }
            }
            {
                let mut mem = inner.mem.write();
                mem.imm = None;
            }
            {
                // Notify under the writer mutex to avoid lost wakeups.
                let _writers = inner.write_mutex.lock();
                inner.imm_cv.notify_all();
            }
            // Garbage from here on; the last reader to let go frees it.
            imm.retire();
        }
        if inner.shutdown.load(Ordering::Acquire) && inner.mem.read().imm.is_none() {
            return;
        }
    }
}

/// Column compaction: drain the lowest key-range column of the container
/// into `L1` directly.
fn column_worker(inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        if inner.row_store.total_bytes() < inner.opts.container_bytes / 2 {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        if let Err(e) = run_column_compaction(&inner) {
            *inner.bg_error.lock() = Some(format!("column compaction failed: {e}"));
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
    let column_compaction = inner.telemetry.begin(Timed::Compaction {
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
            row.meta.reader.iter_from(&lb, inner.stats.clone()),
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

fn lsm_worker(inner: Arc<Inner>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match inner.lsm.run_one_compaction() {
            Ok(true) => continue,
            Ok(false) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                *inner.bg_error.lock() = Some(format!("lsm compaction failed: {e}"));
                return;
            }
        }
    }
}

impl KvEngine for MatrixKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, OpKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", OpKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let r = self.get_impl(key);
        if r.is_ok() {
            self.inner.telemetry.get_latency.record_elapsed(t0);
        }
        r
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let t0 = Instant::now();
        let r = self.scan_impl(start, limit);
        if r.is_ok() {
            self.inner.telemetry.scan_latency.record_elapsed(t0);
        }
        r
    }

    fn wait_idle(&self) -> Result<()> {
        let inner = &*self.inner;
        loop {
            if let Some(msg) = inner.bg_error.lock().clone() {
                return Err(Error::Background(msg));
            }
            let busy = inner.mem.read().imm.is_some()
                || inner.row_store.total_bytes() >= inner.opts.container_bytes / 2
                || inner.lsm.needs_compaction().is_some();
            if !busy {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn report(&self) -> EngineReport {
        let inner = &*self.inner;
        let mut tables = vec![inner.rows.read().len()];
        tables.extend(inner.lsm.tables_per_level());
        EngineReport {
            name: inner.opts.name.clone(),
            nvm_used_bytes: inner.row_store.total_bytes() + inner.lsm.store().total_bytes(),
            nvm_peak_bytes: inner.row_store.total_bytes(),
            tables_per_level: tables,
            stats: inner.stats.snapshot(),
        }
    }

    fn name(&self) -> &str {
        &self.inner.opts.name
    }

    fn telemetry(&self) -> Option<&EngineTelemetry> {
        Some(&self.inner.telemetry)
    }
}

impl MatrixKv {
    /// The `get` layer walk; [`KvEngine::get`] wraps it with latency
    /// recording.
    fn get_impl(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = &*self.inner;
        inner.stats.gets.fetch_add(1, Ordering::Relaxed);
        let (active, imm) = {
            let mem = inner.mem.read();
            (mem.active.clone(), mem.imm.clone())
        };
        if let Some(r) = active.list().get(key) {
            count_hit(&inner.stats, r.kind);
            return Ok(resolve_kind(r.kind, r.value));
        }
        if let Some(imm) = imm {
            if let Some(r) = imm.list().get(key) {
                count_hit(&inner.stats, r.kind);
                return Ok(resolve_kind(r.kind, r.value));
            }
        }
        // Matrix container rows, newest first.
        let rows: Vec<Row> = inner.rows.read().clone();
        for row in &rows {
            if !row.live(key) || key < row.meta.smallest.as_slice() {
                continue;
            }
            if !row.meta.reader.may_contain(key) {
                inner.stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(e) = row.meta.reader.get(key, &inner.stats)? {
                count_hit(&inner.stats, e.kind);
                return Ok(resolve_kind(e.kind, e.value));
            }
        }
        // LSM levels below.
        if let Some(e) = inner.lsm.get(key)? {
            return Ok(match e.kind {
                OpKind::Put => {
                    inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    Some(e.value)
                }
                OpKind::Delete => None,
            });
        }
        Ok(None)
    }

    /// The `scan` source assembly; [`KvEngine::scan`] wraps it with latency
    /// recording.
    fn scan_impl(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let inner = &*self.inner;
        let (active, imm) = {
            let mem = inner.mem.read();
            (mem.active.clone(), mem.imm.clone())
        };
        // The iterators own nothing: the handles taken here keep every
        // source's memory alive until the merge has been consumed.
        let mut sources: Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> = Vec::new();
        sources.push(Box::new(active.list().iter_from(start)));
        if let Some(imm) = &imm {
            sources.push(Box::new(imm.list().iter_from(start)));
        }
        let rows: Vec<Row> = inner.rows.read().clone();
        for row in &rows {
            let from = if start < row.lower_bound.as_slice() {
                row.lower_bound.clone()
            } else {
                start.to_vec()
            };
            sources.push(Box::new(
                row.meta.reader.iter_from(&from, inner.stats.clone()),
            ));
        }
        sources.extend(inner.lsm.scan_sources(start));
        let merged = dedup_newest(KWayMerge::new(sources), true);
        Ok(merged
            .take(limit)
            .map(|e| ScanEntry {
                key: e.key,
                value: e.value,
            })
            .collect())
    }
}

fn resolve_kind(kind: OpKind, value: Vec<u8>) -> Option<Vec<u8>> {
    match kind {
        OpKind::Put => Some(value),
        OpKind::Delete => None,
    }
}

fn count_hit(stats: &Stats, kind: OpKind) {
    if kind == OpKind::Put {
        stats.get_hits.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for MatrixKv {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.flush_cv.notify_all();
        self.inner.imm_cv.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
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
