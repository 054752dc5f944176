//! Engine configuration.

use miodb_lsm::LsmOptions;
use miodb_pmem::DeviceModel;

/// Where the bottom-level data repository lives.
#[derive(Debug, Clone)]
pub enum RepositoryMode {
    /// DRAM-NVM mode: a huge persistent skip list in the NVM pool
    /// (the paper's primary configuration).
    HugePmTable,
    /// DRAM-NVM-SSD mode: a traditional SSTable LSM on an SSD-class device
    /// (§4.1, evaluated in §5.4).
    Ssd {
        /// Hierarchy configuration for the on-SSD LSM.
        lsm: LsmOptions,
        /// SSD device model.
        device: DeviceModel,
    },
}

/// MioDB configuration.
///
/// Defaults mirror the paper's setup scaled by the dataset scale factor:
/// 64 MB MemTables → 2 MB, 8 elastic-buffer levels, 16 bloom bits per key.
#[derive(Debug, Clone)]
pub struct MioOptions {
    /// DRAM MemTable capacity (also the one-piece flush unit).
    pub memtable_bytes: usize,
    /// Number of elastic-buffer levels (`n`); one compactor thread per
    /// level. The bottom buffer level feeds the repository via lazy-copy.
    pub elastic_levels: usize,
    /// Bloom filter density for PMTables (paper: 16): each table's filter
    /// has this many bits per key it holds.
    pub bloom_bits_per_key: usize,
    /// Capacity of the NVM pool.
    pub nvm_pool_bytes: usize,
    /// Capacity of the DRAM pool backing MemTable arenas.
    pub dram_pool_bytes: usize,
    /// NVM device timing model.
    pub nvm_device: DeviceModel,
    /// Optional cap on elastic-buffer bytes (Figure 14's "NVM buffer
    /// size"); `None` means bounded only by the pool.
    pub elastic_buffer_cap: Option<u64>,
    /// WAL segment size.
    pub wal_segment_bytes: usize,
    /// Chunk size of the huge-PMTable repository.
    pub repo_chunk_bytes: usize,
    /// Number of PMTables in the bottom buffer level that triggers a
    /// lazy-copy compaction.
    pub lazy_copy_trigger: usize,
    /// Repository placement.
    pub repository: RepositoryMode,
    /// Consult bloom filters before probing a MemTable or a PMTable
    /// (§4.6). Disabling them is the read-optimization ablation: every
    /// lookup probes every table.
    pub bloom_enabled: bool,
    /// One compactor thread per level (§4.5). Disabling runs a single
    /// thread that serves all levels round-robin — the parallel-compaction
    /// ablation (Figure 9's mechanism).
    pub parallel_compaction: bool,
    /// Engine name for reports.
    pub name: String,
}

impl Default for MioOptions {
    fn default() -> MioOptions {
        MioOptions {
            memtable_bytes: 2 << 20,
            elastic_levels: 8,
            bloom_bits_per_key: 16,
            nvm_pool_bytes: 512 << 20,
            dram_pool_bytes: 24 << 20,
            nvm_device: DeviceModel::nvm(),
            elastic_buffer_cap: None,
            wal_segment_bytes: 1 << 20,
            repo_chunk_bytes: 4 << 20,
            lazy_copy_trigger: 2,
            repository: RepositoryMode::HugePmTable,
            bloom_enabled: true,
            parallel_compaction: true,
            name: "MioDB".to_string(),
        }
    }
}

impl MioOptions {
    /// A small, unthrottled configuration for unit tests: 64 KiB
    /// MemTables, 4 levels, 32 MiB pool, no injected device delays.
    pub fn small_for_tests() -> MioOptions {
        MioOptions {
            memtable_bytes: 64 * 1024,
            elastic_levels: 4,
            nvm_pool_bytes: 64 << 20,
            dram_pool_bytes: 4 << 20,
            nvm_device: DeviceModel::nvm_unthrottled(),
            wal_segment_bytes: 64 * 1024,
            repo_chunk_bytes: 256 * 1024,
            ..MioOptions::default()
        }
    }

    /// Keys a MemTable's bloom filter is sized for: a MemTable of
    /// 256-byte entries. A MemTable of smaller entries holds more keys and
    /// its filter admits more false positives; a false positive costs one
    /// descent of the MemTable, never a wrong answer.
    pub(crate) fn memtable_bloom_keys(&self) -> usize {
        (self.memtable_bytes / 256).max(64)
    }

    /// Keys in the deepest merged table of the elastic buffer: a
    /// bottom-buffer table is up to `2^(levels-1)` merged MemTables, capped
    /// at a million. This is the size the paper's fixed-size, OR-mergeable
    /// filters (§4.6) would need; the engine sizes each PMTable's filter to
    /// the table's own keys instead, and only bloom probes outside the
    /// engine size a filter by it.
    pub fn bloom_expected_keys(&self) -> usize {
        self.memtable_bloom_keys()
            .saturating_mul(1usize << (self.elastic_levels.min(16).saturating_sub(1)))
            .min(1_000_000)
    }

    /// Derives the options for shard `index` of `count` when the keyspace
    /// is hash-partitioned across independent engines (the network
    /// service layer's `ShardRouter`): pools shrink proportionally (with
    /// floors that keep [`MioOptions::validate`] happy) and the engine
    /// name gains a shard suffix so reports and metrics stay
    /// distinguishable.
    pub fn shard(&self, index: usize, count: usize) -> MioOptions {
        let count = count.max(1);
        MioOptions {
            nvm_pool_bytes: (self.nvm_pool_bytes / count).max(self.memtable_bytes * 4),
            dram_pool_bytes: (self.dram_pool_bytes / count).max(self.memtable_bytes * 2),
            name: format!("{}-shard{index}", self.name),
            ..self.clone()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`miodb_common::Error::InvalidArgument`] for impossible
    /// combinations (zero levels, pools smaller than a MemTable, ...).
    pub fn validate(&self) -> miodb_common::Result<()> {
        if self.elastic_levels == 0 {
            return Err(miodb_common::Error::InvalidArgument(
                "need at least one elastic level".to_string(),
            ));
        }
        if self.dram_pool_bytes < self.memtable_bytes * 2 {
            return Err(miodb_common::Error::InvalidArgument(
                "dram pool must fit at least two memtables".to_string(),
            ));
        }
        if self.nvm_pool_bytes < self.memtable_bytes * 4 {
            return Err(miodb_common::Error::InvalidArgument(
                "nvm pool must fit several flushed memtables".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        MioOptions::default().validate().unwrap();
        MioOptions::small_for_tests().validate().unwrap();
    }

    #[test]
    fn zero_levels_rejected() {
        let opts = MioOptions {
            elastic_levels: 0,
            ..MioOptions::small_for_tests()
        };
        assert!(opts.validate().is_err());
    }

    #[test]
    fn tiny_pools_rejected() {
        let opts = MioOptions {
            dram_pool_bytes: 1024,
            ..MioOptions::small_for_tests()
        };
        assert!(opts.validate().is_err());
        let opts = MioOptions {
            nvm_pool_bytes: 1024,
            ..MioOptions::small_for_tests()
        };
        assert!(opts.validate().is_err());
    }
}
