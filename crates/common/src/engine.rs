//! The uniform engine interface driven by workloads and benchmarks.

use crate::error::Result;
use crate::metrics::MetricsRegistry;
use crate::stats::StatsSnapshot;
use crate::telemetry::EngineTelemetry;

/// One entry returned by a range scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanEntry {
    /// User key.
    pub key: Vec<u8>,
    /// Value bytes.
    pub value: Vec<u8>,
}

/// Summary of an engine's internal state for reports (Figure 14 NVM usage,
/// Table 1 cost analysis).
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Human-readable engine name (e.g. `"MioDB"`, `"MatrixKV"`).
    pub name: String,
    /// Current bytes allocated in the NVM pool.
    pub nvm_used_bytes: u64,
    /// High-water mark of NVM pool usage.
    pub nvm_peak_bytes: u64,
    /// Bytes of the NVM pool backed by transparent huge pages, read when
    /// the pool was opened.
    pub nvm_huge_page_bytes: u64,
    /// Bytes of the MemTables' DRAM pool backed by transparent huge pages,
    /// read when the pool was opened.
    pub dram_huge_page_bytes: u64,
    /// Engine-owned DRAM by use (all zero for engines that do not
    /// account it).
    pub dram_bytes: DramBytes,
    /// Number of tables/runs per level, top to bottom.
    pub tables_per_level: Vec<usize>,
    /// Statistics snapshot.
    pub stats: StatsSnapshot,
}

/// Engine-owned DRAM in bytes, by what it holds: the `miodb_dram_bytes`
/// gauge family, one series per [`use`](DramBytes::uses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramBytes {
    /// The MemTables' arenas, active and immutable.
    pub memtable: u64,
    /// Every bloom filter: the MemTables' and the PMTables'.
    pub bloom: u64,
    /// The PMTables' exact key indexes.
    pub index: u64,
    /// The data repository's exact key index.
    pub repo_index: u64,
}

impl DramBytes {
    /// Each use with its `use` label.
    pub fn uses(&self) -> [(&'static str, u64); 4] {
        [
            ("memtable", self.memtable),
            ("bloom", self.bloom),
            ("index", self.index),
            ("repo_index", self.repo_index),
        ]
    }
}

impl std::ops::AddAssign for DramBytes {
    fn add_assign(&mut self, other: DramBytes) {
        self.memtable += other.memtable;
        self.bloom += other.bloom;
        self.index += other.index;
        self.repo_index += other.repo_index;
    }
}

/// A key-value storage engine.
///
/// MioDB and all baselines (NoveLSM flat/hierarchical/NoSST, MatrixKV, and
/// the plain LevelDB-model LSM) implement this trait so the workload drivers
/// in `miodb-workloads` and the benchmark harness can treat them uniformly.
///
/// Implementations must be safe to share across threads (`&self` methods,
/// `Send + Sync`): the YCSB driver issues concurrent operations.
pub trait KvEngine: Send + Sync {
    /// Inserts or overwrites `key` with `value`.
    ///
    /// # Errors
    ///
    /// Returns an error if the write-ahead log or persistent layer fails, or
    /// if the engine is closed.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Returns the current value of `key`, or `None` if absent or deleted.
    ///
    /// # Errors
    ///
    /// Returns an error on persistent-layer corruption.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Removes `key` (writes a tombstone).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvEngine::put`].
    fn delete(&self, key: &[u8]) -> Result<()>;

    /// Returns up to `limit` entries with keys `>= start`, in ascending key
    /// order, skipping tombstones.
    ///
    /// # Errors
    ///
    /// Returns an error on persistent-layer corruption.
    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>>;

    /// Returns up to `limit` live entries with keys in `[start, end)`, in
    /// ascending key order.
    ///
    /// The default implementation pages through [`KvEngine::scan`] and
    /// stops at `end`; engines with native range support may override it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvEngine::scan`].
    fn scan_range(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let mut out = Vec::new();
        let mut cursor = start.to_vec();
        while out.len() < limit {
            let page = self.scan(&cursor, (limit - out.len()).max(16))?;
            if page.is_empty() {
                break;
            }
            let mut progressed = false;
            for e in page {
                if e.key.as_slice() >= end {
                    return Ok(out);
                }
                // Continue after this key next page.
                cursor = e.key.clone();
                cursor.push(0);
                progressed = true;
                out.push(e);
                if out.len() == limit {
                    return Ok(out);
                }
            }
            if !progressed {
                break;
            }
        }
        Ok(out)
    }

    /// Blocks until all buffered writes are persistent and background
    /// compactions triggered by them have settled. Used between the load and
    /// run phases of benchmarks.
    ///
    /// # Errors
    ///
    /// Returns an error if a background thread failed.
    fn wait_idle(&self) -> Result<()>;

    /// Engine state and statistics for reports.
    fn report(&self) -> EngineReport;

    /// Short engine name for tables/plots.
    fn name(&self) -> &str;

    /// The engine's telemetry collectors, when it has them.
    ///
    /// Engines returning `Some` get op-latency summaries, per-level byte
    /// gauges and compaction breakdowns in their metrics output; the
    /// default `None` limits
    /// [`register_metrics`](KvEngine::register_metrics) to report-derived
    /// families.
    fn telemetry(&self) -> Option<&EngineTelemetry> {
        None
    }

    /// Registers the engine's metric families into `reg`, so a caller
    /// with families of its own (the server's STATS) renders one registry.
    fn register_metrics(&self, reg: &mut MetricsRegistry) {
        crate::metrics::register_engine(reg, &self.report(), self.telemetry().as_slice());
    }

    /// Renders current metrics in the Prometheus text exposition format.
    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        self.register_metrics(&mut reg);
        reg.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_e: &dyn KvEngine) {}
    }

    #[test]
    fn scan_entry_equality() {
        let a = ScanEntry {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        };
        assert_eq!(a.clone(), a);
    }
}
