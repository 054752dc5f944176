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
//!
//! The MemTable, rotation and flush thread are the shared
//! [`front`](crate::front); this engine's drain ingests the flushed
//! MemTable into `L0`, and its pacing is the `L0` triggers.

use std::sync::Arc;
use std::time::Duration;

use miodb_common::{
    EngineReport, EngineTelemetry, KvEngine, OpKind, Result, ScanEntry, StallKind, Stats, Timed,
};
use miodb_pmem::DeviceModel;
use miodb_skiplist::SkipListArena;

use crate::core::{LsmCore, LsmOptions};
use crate::front::{run_compactions, FrontEngine, Lower, MemFront, Source};
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

struct DbInner {
    opts: LsmDbOptions,
    front: MemFront,
    core: LsmCore,
}

impl Lower for DbInner {
    fn front(&self) -> &MemFront {
        &self.front
    }

    fn drain(&self, imm: &SkipListArena) -> Result<()> {
        self.core.ingest_sorted_run(imm.list().iter()).map(drop)
    }

    /// `L0` slowdown and stop triggers (cumulative stalls).
    fn pace(&self) {
        let lsm = &self.opts.lsm;
        let l0 = self.core.l0_count();
        if l0 < lsm.l0_slowdown_trigger {
            return;
        }
        let _stall = self
            .front
            .telemetry()
            .begin(Timed::Stall(StallKind::Cumulative));
        if l0 >= lsm.l0_stop_trigger {
            while self.core.l0_count() >= lsm.l0_stop_trigger && !self.front.is_shut_down() {
                std::thread::sleep(Duration::from_micros(200));
            }
        } else {
            std::thread::sleep(SLOWDOWN_SLEEP);
        }
    }

    fn busy(&self) -> bool {
        self.core.needs_compaction().is_some()
    }

    fn get(&self, key: &[u8]) -> Result<Option<(Vec<u8>, OpKind)>> {
        Ok(self.core.get(key)?.map(|e| (e.value, e.kind)))
    }

    fn scan_sources(&self, start: &[u8]) -> Vec<Source> {
        self.core.scan_sources(start)
    }
}

/// The LevelDB-model key-value engine.
pub struct LsmDb {
    db: FrontEngine<DbInner>,
}

impl std::fmt::Debug for LsmDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmDb")
            .field("name", &self.db.opts.name)
            .field("tables", &self.db.core.tables_per_level())
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
        let store = TableStore::new(opts.table_device, stats.clone());
        let core = LsmCore::new(store, opts.lsm.clone());
        let levels = core.tables_per_level().len();
        let front = MemFront::new(opts.memtable_bytes, opts.wal_device, levels, stats)?;
        let inner = DbInner { opts, front, core };
        Ok(LsmDb {
            db: FrontEngine::start(inner, &[|d| run_compactions(&d.front, &d.core)]),
        })
    }

    /// The table hierarchy, for baselines layered on this engine.
    pub fn core(&self) -> &LsmCore {
        &self.db.core
    }
}

impl KvEngine for LsmDb {
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
        let store = self.db.core.store();
        EngineReport {
            name: self.db.opts.name.clone(),
            nvm_used_bytes: store.total_bytes(),
            nvm_peak_bytes: store.total_bytes(),
            tables_per_level: self.db.core.tables_per_level(),
            stats: self.db.front.stats().snapshot(),
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
    use miodb_common::Error;

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
        d.db.front.shut_down();
        assert!(matches!(d.put(b"k", b"v"), Err(Error::Closed)));
    }

    #[test]
    fn first_background_error_wins() {
        let d = db();
        d.db.front.fail("flush failed: a".to_string());
        d.db.front.fail("compaction failed: b".to_string());
        for r in [d.put(b"k", b"v"), d.wait_idle()] {
            match r {
                Err(Error::Background(msg)) => assert_eq!(msg, "flush failed: a"),
                other => panic!("expected the first error, got {other:?}"),
            }
        }
    }
}
