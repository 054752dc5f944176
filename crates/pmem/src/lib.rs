//! Simulated byte-addressable non-volatile memory for MioDB.
//!
//! The paper's testbed has Intel Optane DC Persistent Memory Modules; this
//! crate substitutes them with an in-process **NVM pool**:
//!
//! - a single large, stable address space ([`PmemPool`]) from which arenas
//!   are allocated — mirroring a DAX-mapped persistent region, so that
//!   offsets ("pointers") stay valid across PMTables and for the pool's
//!   whole lifetime. It is mapped as DAX maps Optane: one anonymous
//!   mapping, 2 MiB-aligned, backed by transparent huge pages where the
//!   host allows them ([`PmemPool::huge_page_bytes`]) and pre-faulted once
//!   at open, so no access after open takes a page fault;
//! - a calibrated **device timing model** ([`DeviceModel`]) that injects
//!   read/write latency and bandwidth delays at access points, reproducing
//!   the DRAM : NVM : SSD performance ratios the paper's results depend on;
//! - byte counters shared with [`miodb_common::Stats`] so write
//!   amplification is measured at the device layer for every engine;
//! - [`RegionLease`], the ownership handle through which every structure
//!   holds (and eventually returns) its allocations;
//! - a file [`snapshot`](PmemPool::snapshot_to_file) / restore facility used
//!   by the crash-consistency and recovery tests.
//!
//! # Examples
//!
//! ```
//! use miodb_pmem::{DeviceModel, PmemPool};
//! use miodb_common::Stats;
//! use std::sync::Arc;
//!
//! # fn main() -> miodb_common::Result<()> {
//! let pool = PmemPool::new(1 << 20, DeviceModel::nvm_unthrottled(), Arc::new(Stats::new()))?;
//! let region = pool.alloc(4096)?;
//! pool.write_bytes(region.offset, b"hello persistent world");
//! let mut buf = [0u8; 22];
//! pool.read_bytes(region.offset, &mut buf);
//! assert_eq!(&buf, b"hello persistent world");
//! pool.free(region);
//! # Ok(())
//! # }
//! ```

pub mod device;
pub mod lease;
mod mapping;
pub mod pool;
pub mod snapshot;

pub use device::{DeviceClass, DeviceModel};
pub use lease::RegionLease;
pub use pool::{PmemPool, PmemRegion, POOL_HEADER_BYTES};
