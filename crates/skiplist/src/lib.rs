//! Arena-backed persistent skip lists — the storage structure of MioDB.
//!
//! The paper replaces on-disk SSTables with byte-addressable skip lists
//! ("PMTables") living in NVM, using the *same* data structure as the
//! DRAM-resident MemTable. This crate implements that structure and the
//! three operations the paper builds on it:
//!
//! - [`SkipListArena`]: a skip list built inside one contiguous arena (a
//!   MemTable in the DRAM pool, or a freshly flushed PMTable in the NVM
//!   pool). Multi-version: duplicate keys are ordered newest-first.
//! - [`flush::one_piece_flush`]: copies a frozen MemTable arena into NVM
//!   with a **single bulk memcpy**, then
//!   [`flush::swizzle`] rebases every link word by the constant address
//!   delta — the paper's background pointer swizzling (§4.2).
//! - [`merge::zero_copy_merge`] and [`merge::RunMerge`]: merge two
//!   PMTables by **re-linking pointers only** (no data movement, §4.3), a
//!   run of newtable keys at a time at level 0, with three link stores and
//!   a persistent [`merge::InsertionMark`] store per run; `RunMerge` plans
//!   the runs from the two tables' DRAM indexes and reads no NVM. The
//!   merge is resumable after a crash.
//! - [`grow::GrowableSkipList`]: the bottom-level "huge PMTable" data
//!   repository that receives lazy-copy compactions (§4.4).
//!
//! # Examples
//!
//! ```
//! use miodb_common::{OpKind, Stats};
//! use miodb_pmem::{DeviceModel, PmemPool};
//! use miodb_skiplist::SkipListArena;
//! use std::sync::Arc;
//!
//! # fn main() -> miodb_common::Result<()> {
//! let pool = PmemPool::new(1 << 20, DeviceModel::dram(), Arc::new(Stats::new()))?;
//! let table = SkipListArena::new(pool, 64 * 1024)?;
//! table.insert(b"key", b"value", 1, OpKind::Put)?;
//! let found = table.list().get(b"key").expect("present");
//! assert_eq!(found.value, b"value");
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod flush;
pub mod grow;
pub mod iter;
pub mod merge;
pub mod node;

pub use arena::SkipListArena;
pub use flush::{one_piece_flush, swizzle, FlushedTable};
pub use grow::{ApplyOutcome, GrowableSkipList, Unlinked};
pub use iter::SkipListIter;
pub use merge::{zero_copy_merge, InsertionMark, MergeOutcome, MergeStats, RunMerge};
pub use node::{LookupResult, SkipList, ValueRef, MAX_HEIGHT};

/// Worst-case arena bytes one entry can consume (max tower height).
pub fn node_size_upper(klen: usize, vlen: usize) -> u64 {
    node::node_size(MAX_HEIGHT, klen, vlen)
}
