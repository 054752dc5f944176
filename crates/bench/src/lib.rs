//! Shared harness for the paper-reproduction benchmarks.
//!
//! Provides an engine factory that builds MioDB and every baseline with
//! **consistently scaled** configurations (the paper's 80 GB / 64 MB-
//! MemTable setup shrunk by a single scale factor so stall and WA
//! phenomena keep their shape), plus table-printing helpers used by the
//! `repro` binary.

use std::sync::Arc;

use miodb_baselines::{MatrixKv, MatrixKvOptions, NoveLsm, NoveLsmOptions};
use miodb_common::{KvEngine, Result, Stats};
use miodb_core::{MioDb, MioOptions, RepositoryMode};
use miodb_lsm::{LsmDb, LsmOptions};
use miodb_pmem::DeviceModel;

/// Storage mode matching the paper's two deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// §5.1–5.3: everything persistent lives on the NVM device.
    InMemory,
    /// §5.4: SSTables/repository on an SSD device, buffers on NVM.
    Tiered,
}

/// Which engine to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's system.
    MioDb,
    /// Flat NoveLSM.
    NoveLsm,
    /// NoveLSM without SSTables (one big skip list).
    NoveLsmNoSst,
    /// MatrixKV.
    MatrixKv,
    /// Plain LevelDB-model LSM (extra reference point / ablation).
    LevelDb,
}

impl EngineKind {
    /// Engines compared in the main figures.
    pub fn main_three() -> [EngineKind; 3] {
        [EngineKind::MioDb, EngineKind::MatrixKv, EngineKind::NoveLsm]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::MioDb => "MioDB",
            EngineKind::NoveLsm => "NoveLSM",
            EngineKind::NoveLsmNoSst => "NoveLSM-NoSST",
            EngineKind::MatrixKv => "MatrixKV",
            EngineKind::LevelDb => "LevelDB",
        }
    }
}

/// Scaled experiment geometry.
///
/// The paper: 80 GB dataset, 64 MB MemTables, 4 GB NoveLSM NVM MemTable,
/// 8 GB MatrixKV container, 64 MB SSTables, AF 10. `Scale::new` keeps all
/// the ratios while shrinking the dataset.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Total bytes written by the load phase.
    pub dataset_bytes: u64,
    /// Value size.
    pub value_len: usize,
    /// MemTable bytes (dataset/512, clamped).
    pub memtable_bytes: usize,
    /// Reads performed by read benchmarks (paper: 1/20 of the keys).
    pub read_ops: u64,
}

impl Scale {
    /// Builds a scale around a dataset size and value length. The
    /// MemTable:dataset ratio follows the paper (64 MB : 80 GB ~ 1:1280,
    /// clamped so arenas stay usable at laptop scale) — structure counts
    /// (container rows, SSTables per level, flush count) drive the read
    /// and stall behaviour, so they must shrink *less* than byte sizes.
    pub fn new(dataset_bytes: u64, value_len: usize) -> Scale {
        let memtable_bytes = (dataset_bytes / 512).clamp(64 * 1024, 4 << 20) as usize;
        let keys = dataset_bytes / (16 + value_len as u64).max(1);
        Scale {
            dataset_bytes,
            value_len,
            memtable_bytes,
            read_ops: (keys / 20).max(200),
        }
    }

    /// Default scale for the repro harness: 48 MiB of 4 KiB values
    /// (the paper's 80 GB shrunk ~1700×; all thresholds shrink alongside).
    pub fn default_scale() -> Scale {
        Scale::new(48 << 20, 4096)
    }

    /// Number of keys in the dataset.
    pub fn keys(&self) -> u64 {
        self.dataset_bytes / (16 + self.value_len as u64).max(1)
    }

    /// NoveLSM's big-NVM-MemTable threshold (paper 4 GB : 80 GB = 1/20).
    pub fn nvm_memtable_bytes(&self) -> u64 {
        (self.dataset_bytes / 20).max(4 * self.memtable_bytes as u64)
    }

    /// MatrixKV's container budget (paper 8 GB : 80 GB = 1/10).
    pub fn container_bytes(&self) -> u64 {
        (self.dataset_bytes / 10).max(4 * self.memtable_bytes as u64)
    }

    /// LSM geometry shared by the baselines.
    pub fn lsm_options(&self) -> LsmOptions {
        LsmOptions {
            table_bytes: self.memtable_bytes,
            block_bytes: 4096,
            bloom_bits_per_key: 10,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            level1_max_bytes: self.memtable_bytes as u64 * 10,
            amplification_factor: 10,
            max_levels: 7,
        }
    }

    /// NVM pool size for engines (generous: dataset × 4 plus slack).
    pub fn nvm_pool_bytes(&self) -> usize {
        (self.dataset_bytes * 4 + (64 << 20)) as usize
    }
}

/// MioDB options matching the repro harness geometry at `scale`.
fn mio_options(
    mode: Mode,
    scale: &Scale,
    mio_levels: Option<usize>,
    nvm_buffer_cap: Option<u64>,
) -> MioOptions {
    let repository = match mode {
        Mode::InMemory => RepositoryMode::HugePmTable,
        Mode::Tiered => RepositoryMode::Ssd {
            lsm: scale.lsm_options(),
            device: DeviceModel::ssd(),
        },
    };
    MioOptions {
        memtable_bytes: scale.memtable_bytes,
        elastic_levels: mio_levels.unwrap_or(8),
        bloom_bits_per_key: 16,
        nvm_pool_bytes: scale.nvm_pool_bytes(),
        dram_pool_bytes: (scale.memtable_bytes * 10).max(16 << 20),
        nvm_device: DeviceModel::nvm(),
        elastic_buffer_cap: nvm_buffer_cap,
        wal_segment_bytes: scale.memtable_bytes,
        repo_chunk_bytes: (scale.memtable_bytes * 2).max(1 << 20),
        lazy_copy_trigger: 2,
        repository,
        bloom_enabled: true,
        parallel_compaction: true,
        name: "MioDB".to_string(),
    }
}

/// Builds an engine for `kind` under `mode` at `scale`. Devices are
/// throttled (the timing model is the measurement substrate).
///
/// # Errors
///
/// Propagates pool-allocation failures.
pub fn build_engine(kind: EngineKind, mode: Mode, scale: &Scale) -> Result<Box<dyn KvEngine>> {
    build_engine_with(kind, mode, scale, None, None)
}

/// [`build_engine`] with optional overrides used by the sensitivity
/// sweeps: MioDB level count (Figure 9) and NVM-buffer cap (Figure 14).
///
/// # Errors
///
/// Propagates pool-allocation failures.
pub fn build_engine_with(
    kind: EngineKind,
    mode: Mode,
    scale: &Scale,
    mio_levels: Option<usize>,
    nvm_buffer_cap: Option<u64>,
) -> Result<Box<dyn KvEngine>> {
    let nvm_dev = DeviceModel::nvm();
    let ssd_dev = DeviceModel::ssd();
    let table_device = match mode {
        Mode::InMemory => nvm_dev,
        Mode::Tiered => ssd_dev,
    };
    let stats = Arc::new(Stats::new());
    match kind {
        EngineKind::MioDb => {
            let opts = mio_options(mode, scale, mio_levels, nvm_buffer_cap);
            Ok(Box::new(MioDb::open(opts)?))
        }
        EngineKind::NoveLsm | EngineKind::NoveLsmNoSst => {
            let no_sst = kind == EngineKind::NoveLsmNoSst;
            let opts = NoveLsmOptions {
                memtable_bytes: scale.memtable_bytes,
                nvm_memtable_bytes: nvm_buffer_cap.unwrap_or_else(|| scale.nvm_memtable_bytes()),
                no_sst,
                lsm: scale.lsm_options(),
                table_device,
                nvm_device: nvm_dev,
                nvm_pool_bytes: scale.nvm_pool_bytes(),
                name: if no_sst { "NoveLSM-NoSST" } else { "NoveLSM" }.to_string(),
            };
            Ok(Box::new(NoveLsm::open(opts, stats)?))
        }
        EngineKind::MatrixKv => {
            let opts = MatrixKvOptions {
                memtable_bytes: scale.memtable_bytes,
                container_bytes: nvm_buffer_cap.unwrap_or_else(|| scale.container_bytes()),
                column_denominator: 8,
                lsm: scale.lsm_options(),
                table_device,
                row_device: nvm_dev,
                name: "MatrixKV".to_string(),
            };
            Ok(Box::new(MatrixKv::open(opts, stats)?))
        }
        EngineKind::LevelDb => {
            let opts = miodb_lsm::db::LsmDbOptions {
                memtable_bytes: scale.memtable_bytes,
                lsm: scale.lsm_options(),
                table_device,
                wal_device: nvm_dev,
                name: match mode {
                    Mode::InMemory => "LevelDB-NVM".to_string(),
                    Mode::Tiered => "LevelDB-SSD".to_string(),
                },
            };
            Ok(Box::new(LsmDb::open(opts, stats)?))
        }
    }
}

/// Prints a markdown-ish table row, padding cells to `widths`.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::from("| ");
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$} | ", w = w));
    }
    println!("{line}");
}

/// Prints a table header and separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let mut line = String::from("|-");
    for w in widths {
        line.push_str(&"-".repeat(*w));
        line.push_str("-|-");
    }
    line.pop();
    println!("{line}");
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1}KiB", b as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_ratios_match_paper() {
        let s = Scale::new(80 << 20, 4096);
        // 1/20 for NoveLSM's NVM memtable, 1/10 for MatrixKV's container.
        assert_eq!(s.nvm_memtable_bytes(), 4 << 20);
        assert_eq!(s.container_bytes(), 8 << 20);
        assert!(s.memtable_bytes >= 128 * 1024);
        assert!(s.keys() > 0);
    }

    #[test]
    fn engines_build_in_memory() {
        let s = Scale::new(4 << 20, 1024);
        for kind in [
            EngineKind::MioDb,
            EngineKind::NoveLsm,
            EngineKind::NoveLsmNoSst,
            EngineKind::MatrixKv,
            EngineKind::LevelDb,
        ] {
            let e = build_engine(kind, Mode::InMemory, &s).unwrap();
            e.put(b"k", b"v").unwrap();
            assert_eq!(e.get(b"k").unwrap().unwrap(), b"v", "{}", kind.name());
        }
    }

    #[test]
    fn engines_build_tiered() {
        let s = Scale::new(4 << 20, 1024);
        for kind in EngineKind::main_three() {
            let e = build_engine(kind, Mode::Tiered, &s).unwrap();
            e.put(b"k", b"v").unwrap();
            assert_eq!(e.get(b"k").unwrap().unwrap(), b"v", "{}", kind.name());
        }
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "0.5KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert_eq!(fmt_bytes(2 << 30), "2.0GiB");
    }
}
