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

use std::sync::Arc;
use std::time::Duration;

use miodb_common::{
    CompactionKind, EngineReport, EngineTelemetry, KvEngine, OpKind, Result, ScanEntry, StallKind,
    Stats, Timed,
};
use miodb_lsm::front::{run_compactions, FrontEngine, Lower, MemFront, Source};
use miodb_lsm::{LsmCore, LsmOptions, TableStore};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::{GrowableSkipList, SkipListArena};
use parking_lot::RwLock;

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

/// The big mutable NVM MemTable and, while it is serialized into `L0`,
/// its full predecessor. One lock covers both so a reader sees the
/// handoff whole: the full list is either still `mem` or already `imm`.
struct BigLists {
    mem: Arc<GrowableSkipList>,
    imm: Option<Arc<GrowableSkipList>>,
}

struct Inner {
    opts: NoveLsmOptions,
    front: MemFront,
    nvm: Arc<PmemPool>,
    big: RwLock<BigLists>,
    lsm: LsmCore,
}

/// The flat-NoveLSM baseline engine.
pub struct NoveLsm {
    db: FrontEngine<Inner>,
}

impl std::fmt::Debug for NoveLsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoveLsm")
            .field("name", &self.db.opts.name)
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
        let nvm = PmemPool::new(opts.nvm_pool_bytes, opts.nvm_device, stats.clone())?;
        let store = TableStore::new(opts.table_device, stats.clone());
        let lsm = LsmCore::new(store, opts.lsm.clone());
        let levels = lsm.tables_per_level().len();
        // The WAL is appended to the NVM device.
        let front = MemFront::new(opts.memtable_bytes, opts.nvm_device, levels, stats)?;
        let mem = Arc::new(GrowableSkipList::new(nvm.clone(), 1 << 20)?);
        let compact: &[fn(&Inner)] = if opts.no_sst {
            &[]
        } else {
            &[|n| run_compactions(&n.front, &n.lsm)]
        };
        let inner = Inner {
            opts,
            front,
            nvm,
            big: RwLock::new(BigLists { mem, imm: None }),
            lsm,
        };
        Ok(NoveLsm {
            db: FrontEngine::start(inner, compact),
        })
    }
}

impl Inner {
    fn big_lists(&self) -> (Arc<GrowableSkipList>, Option<Arc<GrowableSkipList>>) {
        let big = self.big.read();
        (big.mem.clone(), big.imm.clone())
    }

    /// Serializes the full big NVM MemTable into `L0` SSTables.
    fn flush_big_memtable(&self) -> Result<()> {
        let fresh = Arc::new(GrowableSkipList::new(self.nvm.clone(), 1 << 20)?);
        let full = {
            let mut big = self.big.write();
            let full = std::mem::replace(&mut big.mem, fresh);
            big.imm = Some(full.clone());
            full
        };
        // Serialize into SSTables (the deserialization/serialization costs
        // the paper measures stem from here). The immutable list stays
        // readable until its tables are installed in L0.
        let drained_bytes = full.data_bytes();
        let drain = self.front.telemetry().begin(Timed::Compaction {
            level: 0,
            kind: CompactionKind::LazyCopy,
        });
        let result = self.lsm.ingest_sorted_run(full.list().iter());
        self.big.write().imm = None;
        result?;
        drain.finish(drained_bytes);
        // Its entries live in L0 now; the last reader to let go frees it.
        full.retire();
        Ok(())
    }
}

impl Lower for Inner {
    fn front(&self) -> &MemFront {
        &self.front
    }

    /// Merges the immutable DRAM MemTable into the big NVM MemTable entry
    /// by entry: each insert is a search in the big list (the cost the
    /// paper's Principle 2 calls out).
    fn drain(&self, imm: &SkipListArena) -> Result<()> {
        let mem = self.big.read().mem.clone();
        for e in imm.list().iter() {
            mem.apply(&e.key, &e.value, e.seq, e.kind)?;
        }
        Ok(())
    }

    /// Overflow: the big NVM MemTable goes to `L0` SSTables.
    fn after_drain(&self) {
        if self.opts.no_sst || self.big.read().mem.data_bytes() < self.opts.nvm_memtable_bytes {
            return;
        }
        if let Err(e) = self.flush_big_memtable() {
            self.front.fail(format!("nvm-memtable flush failed: {e}"));
        }
    }

    /// `L0` backpressure from the traditional LSM below.
    fn pace(&self) {
        if !self.opts.no_sst && self.lsm.l0_count() >= self.opts.lsm.l0_slowdown_trigger {
            let _stall = self
                .front
                .telemetry()
                .begin(Timed::Stall(StallKind::Cumulative));
            std::thread::sleep(Duration::from_micros(1000));
        }
    }

    fn busy(&self) -> bool {
        self.big.read().imm.is_some()
            || (!self.opts.no_sst && self.lsm.needs_compaction().is_some())
    }

    fn get(&self, key: &[u8]) -> Result<Option<(Vec<u8>, OpKind)>> {
        let (mem, imm) = self.big_lists();
        let found = mem.list().get(key);
        if let Some(r) = found.or_else(|| imm.and_then(|l| l.list().get(key))) {
            return Ok(Some((r.value, r.kind)));
        }
        if self.opts.no_sst {
            return Ok(None);
        }
        Ok(self.lsm.get(key)?.map(|e| (e.value, e.kind)))
    }

    fn scan_sources(&self, start: &[u8]) -> Vec<Source> {
        let (mem, imm) = self.big_lists();
        let mut sources = vec![holding_iter(mem, start)];
        sources.extend(imm.map(|l| holding_iter(l, start)));
        if !self.opts.no_sst {
            sources.extend(self.lsm.scan_sources(start));
        }
        sources
    }
}

/// Iterates `list` from `start`. A skip-list iterator owns nothing, so the
/// source holds the list until it is dropped.
fn holding_iter(list: Arc<GrowableSkipList>, start: &[u8]) -> Source {
    let iter = list.list().iter_from(start);
    Box::new(iter.inspect(move |_| {
        let _held = &list;
    }))
}

impl KvEngine for NoveLsm {
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
        EngineReport {
            name: d.opts.name.clone(),
            nvm_used_bytes: d.nvm.used_bytes() + d.lsm.store().total_bytes(),
            nvm_peak_bytes: d.nvm.peak_bytes(),
            nvm_huge_page_bytes: d.nvm.huge_page_bytes(),
            dram_huge_page_bytes: d.front.dram().huge_page_bytes(),
            tables_per_level: d.lsm.tables_per_level(),
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

    /// Acknowledged keys stay readable while the big NVM MemTable is
    /// handed off to `L0`. A reader sweeps the last 64 acknowledged keys
    /// (the preload first, then whatever the writer just wrote: the DRAM
    /// MemTables and the whole big list, at 2 KB a value) while the writer
    /// forces 20 big-list flushes; a sweep that lands between the swap of
    /// the full list and its publication as `imm` would miss keys.
    #[test]
    fn reads_never_miss_during_big_list_handoff() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let d = NoveLsm::open(
            NoveLsmOptions {
                nvm_memtable_bytes: 64 * 1024,
                ..opts()
            },
            Arc::new(Stats::new()),
        )
        .unwrap();
        let key = |i: usize| format!("key{i:06}").into_bytes();
        let value = |i: usize| format!("{i:02000}").into_bytes();
        let preload = 64;
        for i in 0..preload {
            d.put(&key(i), &value(i)).unwrap();
        }
        let big_flushes = || {
            let level0 = d.db.front.telemetry().level(0).unwrap();
            level0.lazy_copy_compactions.load(Ordering::Relaxed)
        };
        let acked = AtomicUsize::new(preload);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let n = acked.load(Ordering::Acquire);
                    for i in n - preload..n {
                        let got = d.get(&key(i)).unwrap();
                        assert_eq!(got, Some(value(i)), "acknowledged key {i} missed");
                    }
                }
            });
            let mut i = preload;
            while big_flushes() < 20 && i < 100_000 {
                d.put(&key(i), &value(i)).unwrap();
                i += 1;
                acked.store(i, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap();
        });
        assert!(
            big_flushes() >= 20,
            "only {} big-list flushes",
            big_flushes()
        );
    }
}
