//! A mini LevelDB-model LSM substrate.
//!
//! The paper's baselines (NoveLSM, MatrixKV) and MioDB's DRAM-NVM-SSD mode
//! all sit on a traditional block-based LSM-tree: serialized SSTables in
//! levels of bounded size, leveled compaction, and the write-stall
//! mechanics (`L0` slowdown/stop triggers, immutable-MemTable waits) whose
//! elimination is MioDB's headline result. This crate implements that
//! substrate from scratch:
//!
//! - [`storage`]: a table store over a modeled block device (NVM- or
//!   SSD-class) with byte accounting for write amplification;
//! - [`sstable`]: the block-based SSTable format — building one *is* the
//!   data serialization the paper measures, reading one is the
//!   deserialization;
//! - [`merge_iter`]: k-way multi-version merging used by compaction and
//!   scans;
//! - [`core`]: [`core::LsmCore`], the leveled table hierarchy with
//!   compaction picking, used directly by the baselines;
//! - [`front`]: the DRAM MemTable front every engine here shares — write
//!   path, rotation, flush thread, MemTable reads, shutdown — and the one
//!   compaction loop; an engine supplies only what sits below the
//!   MemTable ([`front::Lower`]: drain, pacing, lower reads);
//! - [`db`]: [`db::LsmDb`], a complete engine (the front, draining into
//!   `L0`, background compaction, `L0` stalls) implementing
//!   [`KvEngine`](miodb_common::KvEngine) — the "LevelDB on NVM/SSD"
//!   reference point.

pub mod core;
pub mod db;
pub mod front;
pub mod merge_iter;
pub mod sstable;
pub mod storage;

pub use crate::core::{LsmCore, LsmOptions};
pub use crate::db::LsmDb;
pub use crate::sstable::{SsTableBuilder, SsTableReader};
pub use crate::storage::TableStore;
