//! The NVM pool: a single stable address space with arena allocation.
//!
//! All persistent structures (PMTables, the huge data repository, the WAL,
//! the manifest) live inside one pool so that offsets — the reproduction's
//! equivalent of the paper's absolute pointers at a fixed DAX mapping —
//! remain valid across zero-copy compactions that link nodes of different
//! arenas into one skip list.
//!
//! The pool's memory is one anonymous mapping, 2 MiB-aligned, huge-page
//! backed and pre-faulted at open, as a DAX mapping of Optane is (the
//! crate's `mapping` module); a zeroed heap block off Linux.
//!
//! Offset `0` is the universal NIL "pointer"; the first
//! [`POOL_HEADER_BYTES`] of the pool are reserved for the manifest so no
//! allocation can ever sit at offset 0.
//!
//! # Concurrency discipline
//!
//! The pool itself only synchronizes allocation (a mutex around the free
//! list). Data-race freedom for the contents is the responsibility of the
//! storage structures and follows the paper's protocol:
//!
//! - node payloads are written **before** the node is published and never
//!   mutated afterwards;
//! - link words are 8-aligned and accessed **only** through
//!   [`PmemPool::atomic_u64`] (release stores by the single compactor of a
//!   level, acquire loads by readers).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use miodb_common::{fault, Error, Result, Stats};
use parking_lot::Mutex;

use crate::device::DeviceModel;
use crate::mapping::Mapping;

/// Bytes reserved at the front of every pool for the manifest header.
pub const POOL_HEADER_BYTES: u64 = 64 * 1024;

/// Allocation granularity and alignment inside the pool.
pub const POOL_ALIGN: u64 = 64;

/// A contiguous allocation inside a [`PmemPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmemRegion {
    /// Start offset within the pool (always `>= POOL_HEADER_BYTES`,
    /// 64-aligned).
    pub offset: u64,
    /// Length in bytes (64-aligned).
    pub len: u64,
}

impl PmemRegion {
    /// Exclusive end offset of the region.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

#[derive(Debug)]
struct FreeList {
    /// Sorted, coalesced list of (offset, len) holes.
    holes: Vec<(u64, u64)>,
    /// Highest offset ever handed out (exclusive) — snapshot bound.
    high_water: u64,
}

impl FreeList {
    fn new(capacity: u64) -> FreeList {
        FreeList {
            holes: vec![(POOL_HEADER_BYTES, capacity - POOL_HEADER_BYTES)],
            high_water: POOL_HEADER_BYTES,
        }
    }

    fn alloc(&mut self, len: u64) -> Option<u64> {
        for i in 0..self.holes.len() {
            let (off, hlen) = self.holes[i];
            if hlen >= len {
                if hlen == len {
                    self.holes.remove(i);
                } else {
                    self.holes[i] = (off + len, hlen - len);
                }
                self.high_water = self.high_water.max(off + len);
                return Some(off);
            }
        }
        None
    }

    fn free(&mut self, off: u64, len: u64) {
        let idx = self.holes.partition_point(|&(o, _)| o < off);
        self.holes.insert(idx, (off, len));
        // Coalesce with successor then predecessor.
        if idx + 1 < self.holes.len()
            && self.holes[idx].0 + self.holes[idx].1 == self.holes[idx + 1].0
        {
            self.holes[idx].1 += self.holes[idx + 1].1;
            self.holes.remove(idx + 1);
        }
        if idx > 0 && self.holes[idx - 1].0 + self.holes[idx - 1].1 == self.holes[idx].0 {
            self.holes[idx - 1].1 += self.holes[idx].1;
            self.holes.remove(idx);
        }
    }

    fn largest_hole(&self) -> u64 {
        self.holes.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }
}

/// A fixed-capacity, byte-addressable memory pool with arena allocation,
/// modeled device timing and WA accounting.
///
/// See the [crate docs](crate) for an example.
pub struct PmemPool {
    memory: Mapping,
    capacity: usize,
    huge_page_bytes: u64,
    device: DeviceModel,
    stats: Arc<Stats>,
    free_list: Mutex<FreeList>,
    used: AtomicU64,
    peak: AtomicU64,
}

// SAFETY: the pool hands out raw memory; synchronization of contents is the
// documented responsibility of callers (atomics for link words, publish-
// then-read for payloads). The mapping is owned by the pool alone and
// unmapped only when it drops. The allocator state is mutex-protected.
unsafe impl Send for PmemPool {}
unsafe impl Sync for PmemPool {}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("capacity", &self.capacity)
            .field("used", &self.used_bytes())
            .field("peak", &self.peak_bytes())
            .field("device", &self.device.class)
            .finish()
    }
}

impl PmemPool {
    /// Creates a pool of `capacity` bytes (zero-initialized and resident)
    /// charged to `device`, with byte counters routed into `stats`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `capacity` is smaller than the
    /// reserved header, and [`Error::PoolExhausted`] if the host cannot map
    /// it (address space exhausted, e.g. under `RLIMIT_AS`).
    pub fn new(capacity: usize, device: DeviceModel, stats: Arc<Stats>) -> Result<Arc<PmemPool>> {
        PmemPool::with_populated(capacity, capacity, device, stats)
    }

    /// [`PmemPool::new`], with only the first `populate` bytes (rounded up
    /// to a page) resident at open; the rest reads zero as well and is
    /// faulted in on first use. For a DRAM pool whose working set is far
    /// below its capacity: the engine's MemTables, allocated first fit,
    /// stay near the bottom of theirs.
    ///
    /// # Errors
    ///
    /// As [`PmemPool::new`].
    pub fn with_populated(
        capacity: usize,
        populate: usize,
        device: DeviceModel,
        stats: Arc<Stats>,
    ) -> Result<Arc<PmemPool>> {
        if (capacity as u64) < POOL_HEADER_BYTES * 2 {
            return Err(Error::InvalidArgument(format!(
                "pool capacity {capacity} below minimum {}",
                POOL_HEADER_BYTES * 2
            )));
        }
        let capacity = (capacity as u64 & !(POOL_ALIGN - 1)) as usize;
        let memory = Mapping::new(capacity, populate).ok_or(Error::PoolExhausted {
            requested: capacity,
            available: 0,
        })?;
        Ok(Arc::new(PmemPool {
            huge_page_bytes: memory.huge_page_bytes(),
            memory,
            capacity,
            device,
            stats,
            free_list: Mutex::new(FreeList::new(capacity as u64)),
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }))
    }

    /// Total pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of the pool the host backs with transparent huge pages, read
    /// once at open; 0 with THP off or off Linux.
    pub fn huge_page_bytes(&self) -> u64 {
        self.huge_page_bytes
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// The device model this pool is charged to.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The statistics block shared with this pool.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Allocates `size` bytes (rounded up to 64) from the pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] when no hole is large enough.
    pub fn alloc(&self, size: usize) -> Result<PmemRegion> {
        if fault::hit(fault::points::PMEM_ALLOC).is_some() {
            // Injected NVM exhaustion: fail before touching the free list so
            // the allocator state is untouched and the caller sees the same
            // typed error a genuinely full pool would produce.
            return Err(Error::PoolExhausted {
                requested: size,
                available: 0,
            });
        }
        let len = ((size as u64).max(POOL_ALIGN) + POOL_ALIGN - 1) & !(POOL_ALIGN - 1);
        let mut fl = self.free_list.lock();
        match fl.alloc(len) {
            Some(offset) => {
                let used = self.used.fetch_add(len, Ordering::Relaxed) + len;
                self.peak.fetch_max(used, Ordering::Relaxed);
                Ok(PmemRegion { offset, len })
            }
            None => Err(Error::PoolExhausted {
                requested: size,
                available: fl.largest_hole() as usize,
            }),
        }
    }

    /// Reports whether `[off, off+len)` lies entirely in currently
    /// allocated space: at or above the header, below the high-water mark,
    /// and not intersecting any free hole.
    ///
    /// Recovery uses this to reject manifests that reference memory the
    /// allocator has since reclaimed (stale or corrupted metadata).
    pub fn region_is_live(&self, off: u64, len: u64) -> bool {
        let fl = self.free_list.lock();
        let Some(end) = off.checked_add(len) else {
            return false;
        };
        if off < POOL_HEADER_BYTES || end > fl.high_water {
            return false;
        }
        // Holes are sorted and coalesced; overlap iff some hole starts
        // before `end` and ends after `off`.
        let idx = fl.holes.partition_point(|&(o, _)| o < end);
        fl.holes[..idx]
            .iter()
            .all(|&(hoff, hlen)| hoff + hlen <= off)
    }

    /// Returns a region to the pool.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the region is outside the pool. Freeing a
    /// region twice corrupts the allocator — regions are owned values, do
    /// not copy-and-free them.
    pub fn free(&self, region: PmemRegion) {
        debug_assert!(region.offset >= POOL_HEADER_BYTES);
        debug_assert!(region.end() <= self.capacity as u64);
        self.free_list.lock().free(region.offset, region.len);
        self.used.fetch_sub(region.len, Ordering::Relaxed);
    }

    #[inline]
    fn check_range(&self, off: u64, len: usize) {
        debug_assert!(
            off as usize + len <= self.capacity,
            "pool access out of range: off={off} len={len} cap={}",
            self.capacity
        );
    }

    /// Raw pointer to `off`. Internal building block.
    #[inline]
    pub(crate) fn ptr(&self, off: u64) -> *mut u8 {
        debug_assert!((off as usize) < self.capacity);
        // SAFETY: offset checked against capacity (debug); base is valid for
        // the pool's lifetime.
        unsafe { self.memory.base().as_ptr().add(off as usize) }
    }

    /// Charges (and delays for) a modeled device read of `bytes` without
    /// moving data — used for traversal costs where data is accessed through
    /// [`PmemPool::slice`].
    #[inline]
    pub fn charge_read(&self, bytes: usize) {
        self.device.charge_read(&self.stats, bytes);
    }

    /// Charges `count` dependent random reads of `bytes_each` in one call
    /// ([`DeviceModel::charge_reads`]). Used by skip-list descents.
    #[inline]
    pub fn charge_read_batch(&self, count: u64, bytes_each: usize) {
        self.device.charge_reads(&self.stats, count, bytes_each);
    }

    /// Charges (and delays for) a modeled device write of `bytes` without
    /// moving data — used for link-word updates done through atomics.
    #[inline]
    pub fn charge_write(&self, bytes: usize) {
        self.device.charge_write(&self.stats, bytes);
    }

    /// Writes `data` at `off`, charging the device model.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the range exceeds the pool.
    pub fn write_bytes(&self, off: u64, data: &[u8]) {
        self.store_bytes(off, data);
        self.charge_write(data.len());
    }

    /// Copies `data` to `off` without charging the device: for a caller
    /// that stores several pieces of one modeled write and charges their
    /// total once with [`PmemPool::charge_write`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the range exceeds the pool.
    pub fn store_bytes(&self, off: u64, data: &[u8]) {
        self.check_range(off, data.len());
        // SAFETY: range checked; caller guarantees no concurrent access to
        // this unpublished region (see crate concurrency discipline).
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr(off), data.len());
        }
    }

    /// Reads `out.len()` bytes at `off` into `out`, charging the device.
    pub fn read_bytes(&self, off: u64, out: &mut [u8]) {
        self.check_range(off, out.len());
        // SAFETY: range checked.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr(off), out.as_mut_ptr(), out.len());
        }
        self.charge_read(out.len());
    }

    /// Borrows `len` bytes at `off` without charging the device (callers
    /// account traversal costs separately with [`PmemPool::charge_read`]).
    ///
    /// # Safety
    ///
    /// The range must have been fully initialized (written before the
    /// enclosing node was published) and must not be concurrently written
    /// through non-atomic operations. Structures in this workspace uphold
    /// this by never mutating payload bytes after publication.
    #[inline]
    pub unsafe fn slice(&self, off: u64, len: usize) -> &[u8] {
        self.check_range(off, len);
        std::slice::from_raw_parts(self.ptr(off), len)
    }

    /// Returns the 8-byte word at `off` as an atomic.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `off` is not 8-aligned or out of range.
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        debug_assert_eq!(off & 7, 0, "atomic access must be 8-aligned");
        self.check_range(off, 8);
        // SAFETY: aligned, in range, and all concurrent access to link words
        // goes through this same atomic view.
        unsafe { &*(self.ptr(off) as *const AtomicU64) }
    }

    /// Plain (non-atomic) u64 read for unpublished or quiescent data.
    #[inline]
    pub fn read_u64(&self, off: u64) -> u64 {
        self.check_range(off, 8);
        // SAFETY: range checked; unaligned-safe read.
        unsafe { std::ptr::read_unaligned(self.ptr(off) as *const u64) }
    }

    /// Plain (non-atomic) u64 write for unpublished data. Does not charge
    /// the device; use [`PmemPool::charge_write`] for modeled costs.
    #[inline]
    pub fn write_u64(&self, off: u64, v: u64) {
        self.check_range(off, 8);
        // SAFETY: range checked; unaligned-safe write.
        unsafe { std::ptr::write_unaligned(self.ptr(off) as *mut u64, v) }
    }

    /// Copies `len` bytes from `src_pool[src_off..]` into `self[dst_off..]`
    /// as one bulk transfer (the paper's *one-piece flush* memcpy), charging
    /// a read on the source device and a write on this device.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either range is out of bounds.
    pub fn copy_from_pool(&self, dst_off: u64, src_pool: &PmemPool, src_off: u64, len: usize) {
        self.check_range(dst_off, len);
        src_pool.check_range(src_off, len);
        // SAFETY: both ranges checked; the destination arena is unpublished
        // and the source (an immutable MemTable) is frozen.
        unsafe {
            std::ptr::copy_nonoverlapping(src_pool.ptr(src_off), self.ptr(dst_off), len);
        }
        src_pool.charge_read(len);
        self.charge_write(len);
    }

    /// Snapshot of the raw pool contents up to the allocator high-water
    /// mark plus the header (crash-consistency testing; see
    /// [`snapshot`](crate::snapshot)).
    pub(crate) fn raw_parts(&self) -> (*const u8, u64, Vec<(u64, u64)>) {
        let fl = self.free_list.lock();
        (self.memory.base().as_ptr(), fl.high_water, fl.holes.clone())
    }

    /// Rebuilds allocator state after a restore.
    pub(crate) fn restore_alloc_state(&self, high_water: u64, holes: Vec<(u64, u64)>) {
        let mut fl = self.free_list.lock();
        let free: u64 = holes.iter().map(|&(_, l)| l).sum();
        let used = self.capacity as u64 - POOL_HEADER_BYTES - free;
        fl.holes = holes;
        fl.high_water = high_water;
        self.used.store(used, Ordering::Relaxed);
        self.peak.fetch_max(used, Ordering::Relaxed);
    }

    /// Raw mutable pointer for restore.
    pub(crate) fn base_ptr(&self) -> *mut u8 {
        self.memory.base().as_ptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> Arc<PmemPool> {
        PmemPool::new(cap, DeviceModel::nvm_unthrottled(), Arc::new(Stats::new())).unwrap()
    }

    #[test]
    fn alloc_respects_header_reservation() {
        let p = pool(1 << 20);
        let r = p.alloc(100).unwrap();
        assert!(r.offset >= POOL_HEADER_BYTES);
        assert_eq!(r.offset % POOL_ALIGN, 0);
        assert_eq!(r.len % POOL_ALIGN, 0);
        assert!(r.len >= 100);
    }

    #[test]
    fn alloc_rounds_up() {
        let p = pool(1 << 20);
        let r = p.alloc(1).unwrap();
        assert_eq!(r.len, POOL_ALIGN);
    }

    #[test]
    fn exhaustion_reports_available() {
        let p = pool(256 * 1024);
        let err = p.alloc(10 << 20).unwrap_err();
        match err {
            Error::PoolExhausted {
                requested,
                available,
            } => {
                assert_eq!(requested, 10 << 20);
                assert!(available > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn free_coalesces() {
        let p = pool(1 << 20);
        let a = p.alloc(1000).unwrap();
        let b = p.alloc(1000).unwrap();
        let c = p.alloc(1000).unwrap();
        let total = a.len + b.len + c.len;
        p.free(b);
        p.free(a);
        p.free(c);
        // After freeing everything the next alloc of the combined size must
        // fit exactly where the three regions were.
        let big = p.alloc(total as usize).unwrap();
        assert_eq!(big.offset, a.offset);
    }

    #[test]
    fn used_and_peak_track() {
        let p = pool(1 << 20);
        assert_eq!(p.used_bytes(), 0);
        let a = p.alloc(4096).unwrap();
        assert_eq!(p.used_bytes(), a.len);
        assert_eq!(p.peak_bytes(), a.len);
        p.free(a);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.peak_bytes(), a.len);
    }

    #[test]
    fn write_read_round_trip() {
        let p = pool(1 << 20);
        let r = p.alloc(64).unwrap();
        p.write_bytes(r.offset, b"0123456789");
        let mut out = [0u8; 10];
        p.read_bytes(r.offset, &mut out);
        assert_eq!(&out, b"0123456789");
    }

    #[test]
    fn write_accounting_goes_to_nvm() {
        let stats = Arc::new(Stats::new());
        let p = PmemPool::new(1 << 20, DeviceModel::nvm_unthrottled(), stats.clone()).unwrap();
        let r = p.alloc(64).unwrap();
        p.write_bytes(r.offset, &[7u8; 64]);
        assert_eq!(stats.nvm_bytes_written.load(Ordering::Relaxed), 64);
        assert_eq!(stats.ssd_bytes_written.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ssd_accounting_goes_to_ssd() {
        let stats = Arc::new(Stats::new());
        let p = PmemPool::new(1 << 20, DeviceModel::ssd_unthrottled(), stats.clone()).unwrap();
        let r = p.alloc(64).unwrap();
        p.write_bytes(r.offset, &[7u8; 64]);
        assert_eq!(stats.ssd_bytes_written.load(Ordering::Relaxed), 64);
        assert_eq!(stats.nvm_bytes_written.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dram_is_not_accounted() {
        let stats = Arc::new(Stats::new());
        let p = PmemPool::new(1 << 20, DeviceModel::dram(), stats.clone()).unwrap();
        let r = p.alloc(64).unwrap();
        p.write_bytes(r.offset, &[1u8; 64]);
        assert_eq!(stats.nvm_bytes_written.load(Ordering::Relaxed), 0);
        assert_eq!(stats.ssd_bytes_written.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn atomic_round_trip() {
        let p = pool(1 << 20);
        let r = p.alloc(64).unwrap();
        p.atomic_u64(r.offset).store(0xDEAD_BEEF, Ordering::Release);
        assert_eq!(p.atomic_u64(r.offset).load(Ordering::Acquire), 0xDEAD_BEEF);
    }

    #[test]
    fn copy_between_pools_charges_both() {
        let dram_stats = Arc::new(Stats::new());
        let nvm_stats = Arc::new(Stats::new());
        let dram = PmemPool::new(1 << 20, DeviceModel::dram(), dram_stats).unwrap();
        let nvm =
            PmemPool::new(1 << 20, DeviceModel::nvm_unthrottled(), nvm_stats.clone()).unwrap();
        let s = dram.alloc(4096).unwrap();
        let d = nvm.alloc(4096).unwrap();
        dram.write_bytes(s.offset, &[42u8; 4096]);
        nvm.copy_from_pool(d.offset, &dram, s.offset, 4096);
        let mut out = [0u8; 16];
        nvm.read_bytes(d.offset, &mut out);
        assert_eq!(out, [42u8; 16]);
        assert_eq!(nvm_stats.nvm_bytes_written.load(Ordering::Relaxed), 4096);
    }

    #[test]
    fn capacity_below_minimum_rejected() {
        let err = PmemPool::new(100, DeviceModel::dram(), Arc::new(Stats::new())).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmemPool>();
    }

    #[test]
    fn many_alloc_free_cycles_no_fragmentation_leak() {
        let p = pool(1 << 20);
        for round in 0..50 {
            let regions: Vec<_> = (0..10).map(|i| p.alloc(128 * (i + 1)).unwrap()).collect();
            for r in regions {
                p.free(r);
            }
            assert_eq!(p.used_bytes(), 0, "leak detected in round {round}");
        }
        // Whole space still allocatable in one piece.
        let all = p.alloc((1 << 20) - POOL_HEADER_BYTES as usize).unwrap();
        p.free(all);
    }
}
