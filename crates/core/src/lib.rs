//! MioDB — an LSM-tree key-value store for hybrid DRAM/NVM memory.
//!
//! This crate is the reproduction's primary contribution: the engine
//! described in *"Revisiting Log-Structured Merging for KV Stores in
//! Hybrid Memory Systems"* (ASPLOS'23). It combines:
//!
//! - a DRAM MemTable protected by an NVM write-ahead log;
//! - **one-piece flushing** (§4.2): the full MemTable arena is copied into
//!   NVM with one bulk memcpy and its pointers are swizzled in the
//!   background while the immutable MemTable still serves reads;
//! - an **elastic multi-level buffer** of PMTables with *no capacity
//!   limits* (§4.1), so flushing is never blocked by lower levels;
//! - **zero-copy compaction** (§4.3): each level's compactor merges its two
//!   oldest PMTables by pointer re-linking only, with an insertion mark
//!   keeping in-flight nodes visible to lock-free readers;
//! - **parallel compaction** (§4.5): one compactor thread per level,
//!   completely independent because merges never cross levels;
//! - **lazy-copy compaction** (§4.4) into the bottom *data repository* — a
//!   huge skip list in NVM, or a traditional SSTable LSM on SSD in
//!   DRAM-NVM-SSD mode (§4.1 "Supporting Memory/Storage Hierarchy") — which
//!   is also the only place memory of superseded nodes is reclaimed;
//! - per-PMTable **bloom filters** (§4.6), each sized to its table's keys
//!   and built from its DRAM index rather than OR-merged at a fixed size,
//!   and a configurable buffer depth for the read/write trade-off of
//!   Figure 9;
//! - a manifest in the NVM pool header plus WAL replay for crash recovery
//!   (§4.7), including resumption of interrupted zero-copy merges.
//!
//! # Quick start
//!
//! ```
//! use miodb_core::{MioDb, MioOptions};
//! use miodb_common::KvEngine;
//!
//! # fn main() -> miodb_common::Result<()> {
//! let db = MioDb::open(MioOptions::small_for_tests())?;
//! db.put(b"hello", b"world")?;
//! assert_eq!(db.get(b"hello")?.as_deref(), Some(&b"world"[..]));
//! db.delete(b"hello")?;
//! assert!(db.get(b"hello")?.is_none());
//! # Ok(())
//! # }
//! ```

pub mod db;
pub mod manifest;
pub mod options;
mod read;
pub mod repository;
pub mod table;

pub use db::{MioDb, WriteBatch};
pub use options::{MioOptions, RepositoryMode};
