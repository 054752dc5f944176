//! Baseline KV engines the paper compares MioDB against.
//!
//! Both are faithful reimplementations of the *storage logic* of their
//! research prototypes on the shared mini-LSM substrate (`miodb-lsm`), so
//! all engines are measured with identical device models, statistics and
//! workload drivers. Everything above the DRAM MemTable — write path,
//! rotation, flush thread, MemTable reads — is `miodb_lsm::front`, the
//! same code the LevelDB model runs; each engine here implements only
//! [`Lower`](miodb_lsm::front::Lower): its drain, its pacing and its
//! lower reads.
//!
//! - [`NoveLsm`]: the flat-NoveLSM architecture (paper Figure 1c) — a
//!   small DRAM MemTable staged into a **large mutable NVM MemTable**
//!   (per-entry skip-list inserts), flushed into block SSTables when the
//!   NVM MemTable fills. Also provides the **NoveLSM-NoSST**
//!   configuration (one big persistent skip list, no SSTables) used in
//!   Figure 7.
//! - [`MatrixKv`]: MatrixKV (Figure 1d) — `L0` replaced by an NVM
//!   **matrix container** of serialized rows with DRAM indexes, drained by
//!   fine-grained **column compactions** directly into `L1`.

pub mod matrixkv;
pub mod novelsm;

pub use matrixkv::{MatrixKv, MatrixKvOptions};
pub use novelsm::{NoveLsm, NoveLsmOptions};
