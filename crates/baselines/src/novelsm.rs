//! NoveLSM (flat architecture) and the NoveLSM-NoSST configuration.
//!
//! Flat NoveLSM (paper §2.3, Figure 1c) enlarges the MemTable with a big
//! **mutable** persistent skip list in NVM:
//!
//! - writes go to a small DRAM MemTable;
//! - when it fills, its entries are merged into the large NVM MemTable
//!   **one by one** — each insert pays a long search in the big list plus
//!   random NVM writes (the cost §4.1 analyzes: `log(n)` probes and a
//!   `memcpy` per KV);
//! - when the NVM MemTable exceeds its capacity, it is serialized into
//!   `L0` SSTables of a traditional LSM, whose slow `L0→L1` compaction
//!   blocks everything above — the interval-stall source of Figure 2.
//!
//! `NoveLSM-NoSST` disables the SSTable layer entirely: the big skip list
//! absorbs everything (used for comparison in Figure 7).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_common::{
    CompactionKind, EngineReport, EngineTelemetry, Error, KvEngine, OpKind, Result, ScanEntry,
    StallKind, Stats, Timed,
};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_lsm::{LsmCore, LsmOptions, TableStore};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{GrowableSkipList, SkipListArena};
use parking_lot::{Condvar, Mutex, RwLock};

/// NoveLSM configuration.
#[derive(Debug, Clone)]
pub struct NoveLsmOptions {
    /// DRAM MemTable capacity.
    pub memtable_bytes: usize,
    /// Capacity threshold of the big NVM MemTable before it is flushed to
    /// SSTables (paper: 4 GB, scaled).
    pub nvm_memtable_bytes: u64,
    /// Disable SSTables entirely (the NoveLSM-NoSST configuration).
    pub no_sst: bool,
    /// LSM hierarchy configuration.
    pub lsm: LsmOptions,
    /// Device holding the SSTables (NVM-class in-memory mode, SSD-class
    /// tiered mode).
    pub table_device: DeviceModel,
    /// NVM device/pool model for the big MemTable.
    pub nvm_device: DeviceModel,
    /// NVM pool capacity.
    pub nvm_pool_bytes: usize,
    /// Engine name for reports.
    pub name: String,
}

impl Default for NoveLsmOptions {
    fn default() -> NoveLsmOptions {
        NoveLsmOptions {
            memtable_bytes: 2 << 20,
            nvm_memtable_bytes: 8 << 20,
            no_sst: false,
            lsm: LsmOptions::default(),
            table_device: DeviceModel::nvm(),
            nvm_device: DeviceModel::nvm(),
            nvm_pool_bytes: 256 << 20,
            name: "NoveLSM".to_string(),
        }
    }
}

struct MemState {
    active: Arc<SkipListArena>,
    imm: Option<Arc<SkipListArena>>,
}

struct Inner {
    opts: NoveLsmOptions,
    stats: Arc<Stats>,
    dram: Arc<PmemPool>,
    nvm: Arc<PmemPool>,
    mem: RwLock<MemState>,
    write_mutex: Mutex<()>,
    imm_cv: Condvar,
    drain_flag: Mutex<bool>,
    drain_cv: Condvar,
    /// The big mutable NVM MemTable; swapped out atomically when flushed.
    nvm_mem: RwLock<Arc<GrowableSkipList>>,
    /// A full NVM MemTable being serialized into `L0`; stays readable so
    /// its entries (and tombstones) never vanish mid-flush.
    nvm_imm: RwLock<Option<Arc<GrowableSkipList>>>,
    lsm: LsmCore,
    seq: AtomicU64,
    shutdown: AtomicBool,
    bg_error: Mutex<Option<String>>,
    telemetry: EngineTelemetry,
}

/// The flat-NoveLSM baseline engine.
pub struct NoveLsm {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for NoveLsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoveLsm")
            .field("name", &self.inner.opts.name)
            .finish()
    }
}

impl NoveLsm {
    /// Opens a fresh engine.
    ///
    /// # Errors
    ///
    /// Returns allocation errors from the DRAM or NVM pools.
    pub fn open(opts: NoveLsmOptions, stats: Arc<Stats>) -> Result<NoveLsm> {
        let dram = PmemPool::new(
            (opts.memtable_bytes * 6).max(8 << 20),
            DeviceModel::dram(),
            stats.clone(),
        )?;
        let nvm = PmemPool::new(opts.nvm_pool_bytes, opts.nvm_device, stats.clone())?;
        let store = TableStore::new(opts.table_device, stats.clone());
        let lsm = LsmCore::new(store, opts.lsm.clone());
        let active = Arc::new(SkipListArena::new(dram.clone(), opts.memtable_bytes)?);
        let nvm_mem = Arc::new(GrowableSkipList::new_keeping_tombstones(
            nvm.clone(),
            1 << 20,
        )?);
        let telemetry = EngineTelemetry::new(lsm.tables_per_level().len(), stats.clone());
        let inner = Arc::new(Inner {
            opts,
            stats,
            dram,
            nvm,
            mem: RwLock::new(MemState { active, imm: None }),
            write_mutex: Mutex::new(()),
            imm_cv: Condvar::new(),
            drain_flag: Mutex::new(false),
            drain_cv: Condvar::new(),
            nvm_mem: RwLock::new(nvm_mem),
            nvm_imm: RwLock::new(None),
            lsm,
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            bg_error: Mutex::new(None),
            telemetry,
        });
        let mut threads = Vec::new();
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || drain_worker(inner)));
        }
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || compaction_worker(inner)));
        }
        Ok(NoveLsm {
            inner,
            threads: Mutex::new(threads),
        })
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

        // L0 backpressure from the traditional LSM below.
        if !inner.opts.no_sst {
            let l0 = inner.lsm.l0_count();
            if l0 >= inner.opts.lsm.l0_slowdown_trigger {
                let _stall = inner.telemetry.begin(Timed::Stall(StallKind::Cumulative));
                std::thread::sleep(Duration::from_micros(1000));
            }
        }

        // WAL to NVM (modeled append).
        inner.nvm.charge_write(17 + key.len() + value.len());

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
                    let mut flag = inner.drain_flag.lock();
                    *flag = true;
                    inner.drain_cv.notify_all();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Merges the immutable DRAM MemTable into the big NVM MemTable entry by
/// entry, then flushes the big list into `L0` SSTables when it overflows.
fn drain_worker(inner: Arc<Inner>) {
    loop {
        {
            let mut flag = inner.drain_flag.lock();
            while !*flag && !inner.shutdown.load(Ordering::Acquire) {
                inner
                    .drain_cv
                    .wait_for(&mut flag, Duration::from_millis(10));
            }
            *flag = false;
        }
        let imm = inner.mem.read().imm.clone();
        if let Some(imm) = imm {
            let bytes = imm.used_bytes();
            let flush = inner.telemetry.begin(Timed::Flush { bytes });
            let result: Result<()> = (|| {
                let nvm_mem = inner.nvm_mem.read().clone();
                // Per-entry insertion into the big skip list: the cost the
                // paper's Principle 2 calls out.
                for e in imm.list().iter() {
                    nvm_mem.apply(&e.key, &e.value, e.seq, e.kind)?;
                }
                Ok(())
            })();
            match result {
                Ok(()) => flush.finish(bytes),
                Err(e) => {
                    drop(flush);
                    *inner.bg_error.lock() = Some(format!("nvm-memtable merge failed: {e}"));
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

            // Overflow: serialize the big NVM MemTable into L0 SSTables.
            if !inner.opts.no_sst {
                let needs_flush = {
                    let nvm_mem = inner.nvm_mem.read();
                    nvm_mem.data_bytes() >= inner.opts.nvm_memtable_bytes
                };
                if needs_flush {
                    if let Err(e) = flush_big_memtable(&inner) {
                        *inner.bg_error.lock() = Some(format!("nvm-memtable flush failed: {e}"));
                    }
                }
            }
        }
        if inner.shutdown.load(Ordering::Acquire) && inner.mem.read().imm.is_none() {
            return;
        }
    }
}

fn flush_big_memtable(inner: &Inner) -> Result<()> {
    let fresh = Arc::new(GrowableSkipList::new_keeping_tombstones(
        inner.nvm.clone(),
        1 << 20,
    )?);
    let full = {
        let mut nvm_mem = inner.nvm_mem.write();
        std::mem::replace(&mut *nvm_mem, fresh)
    };
    *inner.nvm_imm.write() = Some(full.clone());
    // Serialize into SSTables (the deserialization/serialization costs the
    // paper measures stem from here). The immutable list stays readable
    // until its tables are installed in L0.
    let drained_bytes = full.data_bytes();
    let drain = inner.telemetry.begin(Timed::Compaction {
        level: 0,
        kind: CompactionKind::LazyCopy,
    });
    let result = inner.lsm.ingest_sorted_run(full.list().iter());
    *inner.nvm_imm.write() = None;
    result?;
    drain.finish(drained_bytes);
    // Its entries live in L0 now; the last reader to let go frees it.
    full.retire();
    Ok(())
}

fn compaction_worker(inner: Arc<Inner>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        if inner.opts.no_sst {
            return;
        }
        match inner.lsm.run_one_compaction() {
            Ok(true) => continue,
            Ok(false) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                *inner.bg_error.lock() = Some(format!("compaction failed: {e}"));
                return;
            }
        }
    }
}

impl KvEngine for NoveLsm {
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
                || inner.nvm_imm.read().is_some()
                || (!inner.opts.no_sst && inner.lsm.needs_compaction().is_some());
            if !busy {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn report(&self) -> EngineReport {
        let inner = &*self.inner;
        EngineReport {
            name: inner.opts.name.clone(),
            nvm_used_bytes: inner.nvm.used_bytes() + inner.lsm.store().total_bytes(),
            nvm_peak_bytes: inner.nvm.peak_bytes(),
            tables_per_level: inner.lsm.tables_per_level(),
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

impl NoveLsm {
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
            return Ok(resolve_counted(&inner.stats, r));
        }
        if let Some(imm) = imm {
            if let Some(r) = imm.list().get(key) {
                return Ok(resolve_counted(&inner.stats, r));
            }
        }
        let nvm_mem = inner.nvm_mem.read().clone();
        if let Some(r) = nvm_mem.get(key) {
            return Ok(resolve_counted(&inner.stats, r));
        }
        if let Some(imm) = inner.nvm_imm.read().clone() {
            if let Some(r) = imm.get(key) {
                return Ok(resolve_counted(&inner.stats, r));
            }
        }
        if !inner.opts.no_sst {
            if let Some(e) = inner.lsm.get(key)? {
                return Ok(match e.kind {
                    OpKind::Put => {
                        inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                        Some(e.value)
                    }
                    OpKind::Delete => None,
                });
            }
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
        let nvm_mem = inner.nvm_mem.read().clone();
        sources.push(Box::new(nvm_mem.list().iter_from(start)));
        let nvm_imm = inner.nvm_imm.read().clone();
        if let Some(nvm_imm) = &nvm_imm {
            sources.push(Box::new(nvm_imm.list().iter_from(start)));
        }
        if !inner.opts.no_sst {
            sources.extend(inner.lsm.scan_sources(start));
        }
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

fn resolve(r: miodb_skiplist::LookupResult) -> Option<Vec<u8>> {
    match r.kind {
        OpKind::Put => Some(r.value),
        OpKind::Delete => None,
    }
}

fn resolve_counted(stats: &Stats, r: miodb_skiplist::LookupResult) -> Option<Vec<u8>> {
    if r.kind == OpKind::Put {
        stats.get_hits.fetch_add(1, Ordering::Relaxed);
    }
    resolve(r)
}

impl Drop for NoveLsm {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.drain_cv.notify_all();
        self.inner.imm_cv.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> NoveLsmOptions {
        NoveLsmOptions {
            memtable_bytes: 32 * 1024,
            nvm_memtable_bytes: 128 * 1024,
            lsm: LsmOptions {
                table_bytes: 32 * 1024,
                level1_max_bytes: 128 * 1024,
                ..LsmOptions::default()
            },
            table_device: DeviceModel::nvm_unthrottled(),
            nvm_device: DeviceModel::nvm_unthrottled(),
            nvm_pool_bytes: 64 << 20,
            ..NoveLsmOptions::default()
        }
    }

    #[test]
    fn put_get_delete() {
        let d = NoveLsm::open(opts(), Arc::new(Stats::new())).unwrap();
        d.put(b"k", b"v").unwrap();
        assert_eq!(d.get(b"k").unwrap().unwrap(), b"v");
        d.delete(b"k").unwrap();
        assert!(d.get(b"k").unwrap().is_none());
    }

    #[test]
    fn data_flows_into_sstables() {
        let d = NoveLsm::open(opts(), Arc::new(Stats::new())).unwrap();
        let value = vec![1u8; 512];
        for i in 0..2000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let report = d.report();
        assert!(
            report.tables_per_level.iter().sum::<usize>() > 0,
            "big memtable must overflow into SSTables: {report:?}"
        );
        for i in (0..2000u32).step_by(211) {
            assert_eq!(
                d.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value
            );
        }
    }

    #[test]
    fn nosst_keeps_everything_in_big_list() {
        let d = NoveLsm::open(
            NoveLsmOptions {
                no_sst: true,
                name: "NoveLSM-NoSST".to_string(),
                ..opts()
            },
            Arc::new(Stats::new()),
        )
        .unwrap();
        let value = vec![2u8; 512];
        for i in 0..1500u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        assert_eq!(d.report().tables_per_level.iter().sum::<usize>(), 0);
        for i in (0..1500u32).step_by(97) {
            assert_eq!(
                d.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value
            );
        }
    }

    #[test]
    fn scan_merges_all_layers() {
        let d = NoveLsm::open(opts(), Arc::new(Stats::new())).unwrap();
        let value = vec![3u8; 256];
        for i in 0..1000u32 {
            d.put(format!("key{i:05}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        d.put(b"key00001x", b"fresh").unwrap();
        let out = d.scan(b"key00001", 3).unwrap();
        assert_eq!(out[0].key, b"key00001");
        assert_eq!(out[1].key, b"key00001x");
        assert_eq!(out[2].key, b"key00002");
    }

    #[test]
    fn overwrites_resolve_to_newest() {
        let d = NoveLsm::open(opts(), Arc::new(Stats::new())).unwrap();
        let value = vec![4u8; 600];
        // Enough traffic to push old versions into the big list and L0.
        for round in 0..6 {
            for i in 0..200u32 {
                d.put(
                    format!("key{i:05}").as_bytes(),
                    format!("v{round}-{}", String::from_utf8_lossy(&value[..8])).as_bytes(),
                )
                .unwrap();
            }
        }
        d.wait_idle().unwrap();
        for i in (0..200u32).step_by(17) {
            let v = d.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
            assert!(
                v.starts_with(b"v5-"),
                "stale value {:?}",
                String::from_utf8_lossy(&v)
            );
        }
    }
}
