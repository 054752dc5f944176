//! A complete LevelDB-model engine: MemTable, flush, background
//! compaction, and the write-stall mechanics the paper measures.
//!
//! This is the "traditional LSM on a fast device" reference point. Its
//! write path exhibits exactly the two stall classes of §3.1:
//!
//! - **interval stalls**: the active MemTable fills while the immutable one
//!   is still being serialized to an `L0` SSTable — the writer blocks;
//! - **cumulative stalls**: `L0` reaches its slowdown trigger and every
//!   write is delayed by a fixed pacing sleep; at the stop trigger writes
//!   block until compaction catches up.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_common::{
    EngineReport, EngineTelemetry, Error, KvEngine, OpKind, Result, ScanEntry, SequenceNumber,
    StallKind, Stats, Timed,
};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::SkipListArena;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::core::{LsmCore, LsmOptions};
use crate::merge_iter::{dedup_newest, KWayMerge};
use crate::storage::TableStore;

/// Pacing delay applied per write while `L0` is past the slowdown trigger.
const SLOWDOWN_SLEEP: Duration = Duration::from_micros(1000);

/// Configuration of the full LSM engine.
#[derive(Debug, Clone)]
pub struct LsmDbOptions {
    /// MemTable capacity (also the flush unit).
    pub memtable_bytes: usize,
    /// The table hierarchy configuration.
    pub lsm: LsmOptions,
    /// Device the SSTables live on (NVM-class for in-memory mode,
    /// SSD-class for tiered mode).
    pub table_device: DeviceModel,
    /// Device the write-ahead log is charged to.
    pub wal_device: DeviceModel,
    /// Engine name for reports.
    pub name: String,
}

impl Default for LsmDbOptions {
    fn default() -> LsmDbOptions {
        LsmDbOptions {
            memtable_bytes: 2 << 20,
            lsm: LsmOptions::default(),
            table_device: DeviceModel::nvm(),
            wal_device: DeviceModel::nvm(),
            name: "LevelDB-NVM".to_string(),
        }
    }
}

struct MemState {
    active: Arc<SkipListArena>,
    imm: Option<Arc<SkipListArena>>,
}

struct DbInner {
    opts: LsmDbOptions,
    core: LsmCore,
    dram: Arc<PmemPool>,
    mem: RwLock<MemState>,
    mem_mutex: Mutex<()>,
    imm_cv: Condvar,
    flush_signal: Mutex<bool>,
    flush_cv: Condvar,
    seq: AtomicU64,
    stats: Arc<Stats>,
    telemetry: EngineTelemetry,
    shutdown: AtomicBool,
    background_error: Mutex<Option<String>>,
}

/// The LevelDB-model key-value engine.
pub struct LsmDb {
    inner: Arc<DbInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for LsmDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmDb")
            .field("name", &self.inner.opts.name)
            .field("tables", &self.inner.core.tables_per_level())
            .finish()
    }
}

impl LsmDb {
    /// Opens a fresh engine with the given options and shared statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if the DRAM pool for MemTables cannot be allocated.
    pub fn open(opts: LsmDbOptions, stats: Arc<Stats>) -> Result<LsmDb> {
        let dram = PmemPool::new(
            (opts.memtable_bytes * 6).max(8 << 20),
            DeviceModel::dram(),
            stats.clone(),
        )?;
        let store = TableStore::new(opts.table_device, stats.clone());
        let core = LsmCore::new(store, opts.lsm.clone());
        let active = Arc::new(SkipListArena::new(dram.clone(), opts.memtable_bytes)?);
        let telemetry = EngineTelemetry::new(core.tables_per_level().len(), stats.clone());
        let inner = Arc::new(DbInner {
            opts,
            core,
            dram,
            mem: RwLock::new(MemState { active, imm: None }),
            mem_mutex: Mutex::new(()),
            imm_cv: Condvar::new(),
            flush_signal: Mutex::new(false),
            flush_cv: Condvar::new(),
            seq: AtomicU64::new(0),
            stats,
            telemetry,
            shutdown: AtomicBool::new(false),
            background_error: Mutex::new(None),
        });
        let mut threads = Vec::new();
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || flush_worker(inner)));
        }
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || compaction_worker(inner)));
        }
        Ok(LsmDb {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// The table hierarchy, for baselines layered on this engine.
    pub fn core(&self) -> &LsmCore {
        &self.inner.core
    }

    fn write(&self, key: &[u8], value: &[u8], kind: OpKind) -> Result<()> {
        let inner = &*self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::Closed);
        }
        if let Some(msg) = inner.background_error.lock().clone() {
            return Err(Error::Background(msg));
        }
        let op_start = Instant::now();
        let guard = inner.mem_mutex.lock();
        inner
            .stats
            .user_bytes_written
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);

        // L0 pacing (cumulative stalls).
        self.apply_l0_backpressure();

        // WAL append (modeled): sequential write of the record.
        let rec = 17 + key.len() + value.len();
        charge_device_write(&inner.stats, &inner.opts.wal_device, rec);

        let seq = inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.insert_with_rotation(guard, key, value, seq, kind)?;
        let latency = match kind {
            OpKind::Put => &inner.telemetry.put_latency,
            OpKind::Delete => &inner.telemetry.delete_latency,
        };
        latency.record_elapsed(op_start);
        Ok(())
    }

    fn insert_with_rotation(
        &self,
        mut guard: parking_lot::MutexGuard<'_, ()>,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        let inner = &*self.inner;
        loop {
            // Scope the Arc clone to the attempt so a MemTable that rotates
            // out is not pinned in DRAM by its own writer.
            let r = {
                let active = inner.mem.read().active.clone();
                active.insert(key, value, seq, kind)
            };
            match r {
                Ok(()) => return Ok(()),
                Err(Error::ArenaFull) => {
                    // Rotate. If an immutable MemTable is still being
                    // flushed, this is an interval stall.
                    let mut stall = None;
                    while inner.mem.read().imm.is_some() {
                        if stall.is_none() {
                            stall = Some(inner.telemetry.begin(Timed::Stall(StallKind::Interval)));
                        }
                        inner.imm_cv.wait_for(&mut guard, Duration::from_millis(10));
                        if inner.shutdown.load(Ordering::Acquire) {
                            return Err(Error::Closed);
                        }
                    }
                    drop(stall);
                    let new_active = Arc::new(SkipListArena::new(
                        inner.dram.clone(),
                        inner
                            .opts
                            .memtable_bytes
                            .max(SkipListArena::capacity_for_entry(key.len(), value.len())),
                    )?);
                    {
                        let mut mem = inner.mem.write();
                        let old = std::mem::replace(&mut mem.active, new_active);
                        mem.imm = Some(old);
                    }
                    let mut flag = inner.flush_signal.lock();
                    *flag = true;
                    inner.flush_cv.notify_all();
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn apply_l0_backpressure(&self) {
        let inner = &*self.inner;
        let l0 = inner.core.l0_count();
        if l0 < inner.opts.lsm.l0_slowdown_trigger {
            return;
        }
        let _stall = inner.telemetry.begin(Timed::Stall(StallKind::Cumulative));
        if l0 >= inner.opts.lsm.l0_stop_trigger {
            while inner.core.l0_count() >= inner.opts.lsm.l0_stop_trigger
                && !inner.shutdown.load(Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_micros(200));
            }
        } else {
            std::thread::sleep(SLOWDOWN_SLEEP);
        }
    }
}

fn charge_device_write(stats: &Stats, device: &DeviceModel, bytes: usize) {
    use miodb_pmem::DeviceClass;
    match device.class {
        DeviceClass::Nvm => stats
            .nvm_bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed),
        DeviceClass::Ssd => stats
            .ssd_bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed),
        DeviceClass::Dram => 0,
    };
    device.delay_write(bytes);
}

fn flush_worker(inner: Arc<DbInner>) {
    loop {
        {
            let mut flag = inner.flush_signal.lock();
            while !*flag && !inner.shutdown.load(Ordering::Acquire) {
                inner
                    .flush_cv
                    .wait_for(&mut flag, Duration::from_millis(100));
            }
            *flag = false;
        }
        let imm = inner.mem.read().imm.clone();
        if let Some(imm) = imm {
            let bytes = imm.used_bytes();
            let flush = inner.telemetry.begin(Timed::Flush { bytes });
            match inner.core.ingest_sorted_run(imm.list().iter()) {
                Ok(_) => flush.finish(bytes),
                Err(e) => {
                    drop(flush);
                    *inner.background_error.lock() = Some(format!("flush failed: {e}"));
                }
            }
            {
                let mut mem = inner.mem.write();
                mem.imm = None;
            }
            {
                // Notify under the writer mutex to avoid lost wakeups (see
                // miodb-core's flush worker).
                let _writers = inner.mem_mutex.lock();
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

fn compaction_worker(inner: Arc<DbInner>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match inner.core.run_one_compaction() {
            Ok(true) => continue,
            Ok(false) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                *inner.background_error.lock() = Some(format!("compaction failed: {e}"));
                return;
            }
        }
    }
}

impl KvEngine for LsmDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, OpKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", OpKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = &*self.inner;
        let op_start = Instant::now();
        inner.stats.gets.fetch_add(1, Ordering::Relaxed);
        let (active, imm) = {
            let mem = inner.mem.read();
            (mem.active.clone(), mem.imm.clone())
        };
        let found = active
            .list()
            .get(key)
            .or_else(|| imm.and_then(|m| m.list().get(key)))
            .map(|r| (r.value, r.kind));
        let found = match found {
            Some(v) => Some(v),
            None => inner.core.get(key)?.map(|e| (e.value, e.kind)),
        };
        inner.telemetry.get_latency.record_elapsed(op_start);
        match found {
            Some((_, OpKind::Delete)) => Ok(None),
            Some((v, OpKind::Put)) => {
                inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let inner = &*self.inner;
        let op_start = Instant::now();
        let (active, imm) = {
            let mem = inner.mem.read();
            (mem.active.clone(), mem.imm.clone())
        };
        // The iterators own nothing: the handles taken here keep every
        // source's memory alive until the merge has been consumed.
        let mut sources: Vec<Box<dyn Iterator<Item = miodb_skiplist::iter::OwnedEntry> + Send>> =
            Vec::new();
        sources.push(Box::new(active.list().iter_from(start)));
        if let Some(imm) = &imm {
            sources.push(Box::new(imm.list().iter_from(start)));
        }
        sources.extend(inner.core.scan_sources(start));
        let merged = dedup_newest(KWayMerge::new(sources), true);
        let out = merged
            .take(limit)
            .map(|e| ScanEntry {
                key: e.key,
                value: e.value,
            })
            .collect();
        inner.telemetry.scan_latency.record_elapsed(op_start);
        Ok(out)
    }

    fn wait_idle(&self) -> Result<()> {
        let inner = &*self.inner;
        loop {
            if let Some(msg) = inner.background_error.lock().clone() {
                return Err(Error::Background(msg));
            }
            let imm_pending = inner.mem.read().imm.is_some();
            if !imm_pending && inner.core.needs_compaction().is_none() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn report(&self) -> EngineReport {
        let inner = &*self.inner;
        EngineReport {
            name: inner.opts.name.clone(),
            nvm_used_bytes: inner.core.store().total_bytes(),
            nvm_peak_bytes: inner.core.store().total_bytes(),
            tables_per_level: inner.core.tables_per_level(),
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

impl Drop for LsmDb {
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

    fn db() -> LsmDb {
        let opts = LsmDbOptions {
            memtable_bytes: 64 * 1024,
            lsm: LsmOptions {
                table_bytes: 32 * 1024,
                level1_max_bytes: 128 * 1024,
                ..LsmOptions::default()
            },
            table_device: DeviceModel::nvm_unthrottled(),
            wal_device: DeviceModel::nvm_unthrottled(),
            name: "test-lsm".to_string(),
        };
        LsmDb::open(opts, Arc::new(Stats::new())).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let d = db();
        d.put(b"k1", b"v1").unwrap();
        assert_eq!(d.get(b"k1").unwrap().unwrap(), b"v1");
        d.delete(b"k1").unwrap();
        assert!(d.get(b"k1").unwrap().is_none());
        assert!(d.get(b"absent").unwrap().is_none());
    }

    #[test]
    fn overwrite_returns_newest() {
        let d = db();
        d.put(b"k", b"v1").unwrap();
        d.put(b"k", b"v2").unwrap();
        assert_eq!(d.get(b"k").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn data_survives_flush_and_compaction() {
        let d = db();
        let value = vec![7u8; 512];
        for i in 0..2000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let report = d.report();
        assert!(report.stats.flush_count > 0, "expected flushes");
        for i in (0..2000u32).step_by(173) {
            assert_eq!(
                d.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value,
                "key{i}"
            );
        }
    }

    #[test]
    fn serialization_costs_are_recorded() {
        let d = db();
        let value = vec![1u8; 1024];
        for i in 0..500u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let snap = d.report().stats;
        assert!(snap.serialization_ns > 0, "flushes must serialize");
        assert!(snap.nvm_bytes_written > snap.user_bytes_written, "WA > 1");
        for i in 0..100u32 {
            d.get(format!("key{i:06}").as_bytes()).unwrap();
        }
        assert!(
            d.report().stats.deserialization_ns > 0,
            "reads must deserialize"
        );
    }

    #[test]
    fn scan_spans_memtable_and_tables() {
        let d = db();
        let value = vec![9u8; 400];
        for i in 0..800u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        // A few fresh keys stay in the MemTable.
        d.put(b"key000000x", b"fresh").unwrap();
        let entries = d.scan(b"key000000", 5).unwrap();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].key, b"key000000");
        assert_eq!(entries[1].key, b"key000000x");
        assert_eq!(entries[1].value, b"fresh");
    }

    #[test]
    fn deleted_keys_vanish_from_scans() {
        let d = db();
        d.put(b"a", b"1").unwrap();
        d.put(b"b", b"2").unwrap();
        d.put(b"c", b"3").unwrap();
        d.delete(b"b").unwrap();
        let entries = d.scan(b"a", 10).unwrap();
        let keys: Vec<Vec<u8>> = entries.into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn stall_accounting_under_write_burst() {
        // Tiny MemTable + slow flush device → interval stalls must appear.
        let opts = LsmDbOptions {
            memtable_bytes: 16 * 1024,
            lsm: LsmOptions {
                table_bytes: 16 * 1024,
                level1_max_bytes: 32 * 1024,
                l0_compaction_trigger: 2,
                l0_slowdown_trigger: 3,
                l0_stop_trigger: 5,
                ..LsmOptions::default()
            },
            // Heavily throttled device so flushing cannot keep up.
            table_device: DeviceModel::ssd().scaled(4.0),
            wal_device: DeviceModel::nvm_unthrottled(),
            name: "stall-test".to_string(),
        };
        let d = LsmDb::open(opts, Arc::new(Stats::new())).unwrap();
        let value = vec![3u8; 1024];
        for i in 0..600u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        let snap = d.report().stats;
        assert!(
            snap.interval_stall_ns + snap.cumulative_stall_ns > 0,
            "burst writes against a slow device must stall: {snap:?}"
        );
    }

    #[test]
    fn closed_db_rejects_writes() {
        let d = db();
        d.inner.shutdown.store(true, Ordering::Release);
        assert!(matches!(d.put(b"k", b"v"), Err(Error::Closed)));
    }
}
