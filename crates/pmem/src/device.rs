//! Device timing models for DRAM, NVM and SSD.
//!
//! Experiments in the paper depend on the relative speeds of the three
//! devices, not their absolute values:
//!
//! - DRAM random-write bandwidth ≈ 7× NVM (paper §2.1, measured with FIO);
//! - NVM latency ≈ 100× lower than SSD, bandwidth ≈ 10× higher (paper §1).
//!
//! A [`DeviceModel`] injects a delay of `latency + bytes / bandwidth` at
//! every modeled access. Delays are realized with a **spin-wait** because
//! they are frequently far below the OS sleep granularity (an NVM pointer
//! update is ~100 ns). Delays above [`SLEEP_THRESHOLD_NS`] use
//! `thread::sleep` for the bulk and spin for the remainder.
//!
//! Models can be disabled (`*_unthrottled`) for unit tests and for callers
//! that only want byte accounting.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use miodb_common::Stats;

/// Which physical device class an access is charged to.
///
/// [`DeviceModel::charge_read`] and [`DeviceModel::charge_write`] route
/// byte counts into the matching [`Stats`] fields (NVM vs. SSD); DRAM
/// accesses are not counted (they are free in the write-amplification
/// metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Volatile DRAM: no persistence, no WA accounting.
    Dram,
    /// Byte-addressable non-volatile memory (simulated Optane DCPMM).
    Nvm,
    /// Block storage (simulated NVMe/SATA SSD).
    Ssd,
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceClass::Dram => f.write_str("dram"),
            DeviceClass::Nvm => f.write_str("nvm"),
            DeviceClass::Ssd => f.write_str("ssd"),
        }
    }
}

/// Above this delay, sleep for the bulk instead of spinning.
pub const SLEEP_THRESHOLD_NS: u64 = 200_000;

/// A latency/bandwidth model for one device.
///
/// # Examples
///
/// ```
/// use miodb_pmem::DeviceModel;
///
/// let nvm = DeviceModel::nvm();
/// // A 256 B random write costs the write latency plus transfer time.
/// let d = nvm.write_delay_ns(256);
/// assert!(d > 0);
/// let free = DeviceModel::dram();
/// assert_eq!(free.write_delay_ns(4096), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Device class for accounting.
    pub class: DeviceClass,
    /// Fixed latency added to every modeled read, in nanoseconds.
    pub read_latency_ns: u64,
    /// Fixed latency added to every modeled write, in nanoseconds.
    pub write_latency_ns: u64,
    /// Sustained read bandwidth in bytes per nanosecond (GB/s).
    pub read_gbps: f64,
    /// Sustained write bandwidth in bytes per nanosecond (GB/s).
    pub write_gbps: f64,
    /// When false, no delays are injected (accounting still happens).
    pub throttled: bool,
}

impl DeviceModel {
    /// DRAM: free in the model. All CPU work on DRAM is real work, so no
    /// artificial delay is added and no WA bytes are counted.
    pub fn dram() -> DeviceModel {
        DeviceModel {
            class: DeviceClass::Dram,
            read_latency_ns: 0,
            write_latency_ns: 0,
            read_gbps: f64::INFINITY,
            write_gbps: f64::INFINITY,
            throttled: false,
        }
    }

    /// NVM with Optane-like parameters (scaled to preserve the paper's
    /// DRAM:NVM ratios): 250 ns read latency, 90 ns posted-write latency,
    /// 8 GB/s read and 3 GB/s write bandwidth.
    pub fn nvm() -> DeviceModel {
        DeviceModel {
            class: DeviceClass::Nvm,
            read_latency_ns: 250,
            write_latency_ns: 90,
            read_gbps: 8.0,
            write_gbps: 3.0,
            throttled: true,
        }
    }

    /// NVM accounting without delays (unit tests, logical checks).
    pub fn nvm_unthrottled() -> DeviceModel {
        DeviceModel {
            throttled: false,
            ..DeviceModel::nvm()
        }
    }

    /// SSD with NVMe-like parameters: ~25 µs read / 20 µs write latency,
    /// 0.8 GB/s read and 0.35 GB/s write — roughly 100× NVM latency and
    /// ~1/10 NVM bandwidth, matching the ratios cited in the paper.
    pub fn ssd() -> DeviceModel {
        DeviceModel {
            class: DeviceClass::Ssd,
            read_latency_ns: 25_000,
            write_latency_ns: 20_000,
            read_gbps: 0.8,
            write_gbps: 0.35,
            throttled: true,
        }
    }

    /// SSD accounting without delays.
    pub fn ssd_unthrottled() -> DeviceModel {
        DeviceModel {
            throttled: false,
            ..DeviceModel::ssd()
        }
    }

    /// Delay in nanoseconds for reading `bytes` from this device.
    pub fn read_delay_ns(&self, bytes: usize) -> u64 {
        if !self.throttled {
            return 0;
        }
        self.read_latency_ns + transfer_ns(bytes, self.read_gbps)
    }

    /// Delay in nanoseconds for writing `bytes` to this device.
    pub fn write_delay_ns(&self, bytes: usize) -> u64 {
        if !self.throttled {
            return 0;
        }
        self.write_latency_ns + transfer_ns(bytes, self.write_gbps)
    }

    /// Blocks the calling thread for the modeled read cost of `bytes`.
    pub fn delay_read(&self, bytes: usize) {
        busy_delay_ns(self.read_delay_ns(bytes));
    }

    /// Blocks the calling thread for the modeled write cost of `bytes`.
    pub fn delay_write(&self, bytes: usize) {
        busy_delay_ns(self.write_delay_ns(bytes));
    }

    /// Counts a read of `bytes` into `stats` and blocks for its modeled
    /// cost.
    #[inline]
    pub fn charge_read(&self, stats: &Stats, bytes: usize) {
        self.count_read(stats, bytes as u64);
        self.delay_read(bytes);
    }

    /// Counts `count` dependent random reads of `bytes_each` into `stats`
    /// and blocks for their modeled cost in one wait: the same modeled
    /// time as `count` separate [`charge_read`](Self::charge_read)s (each
    /// pays the device latency — dependent pointer chases cannot
    /// pipeline), but the spin-wait overhead is paid once.
    #[inline]
    pub fn charge_reads(&self, stats: &Stats, count: u64, bytes_each: usize) {
        if count == 0 {
            return;
        }
        self.count_read(stats, count * bytes_each as u64);
        busy_delay_ns(count * self.read_delay_ns(bytes_each));
    }

    #[inline]
    fn count_read(&self, stats: &Stats, bytes: u64) {
        match self.class {
            DeviceClass::Nvm => stats.nvm_bytes_read.fetch_add(bytes, Ordering::Relaxed),
            DeviceClass::Ssd => stats.ssd_bytes_read.fetch_add(bytes, Ordering::Relaxed),
            DeviceClass::Dram => {}
        }
    }

    /// Counts a write of `bytes` into `stats` and blocks for its modeled
    /// cost.
    #[inline]
    pub fn charge_write(&self, stats: &Stats, bytes: usize) {
        let n = bytes as u64;
        match self.class {
            DeviceClass::Nvm => stats.nvm_bytes_written.fetch_add(n, Ordering::Relaxed),
            DeviceClass::Ssd => stats.ssd_bytes_written.fetch_add(n, Ordering::Relaxed),
            DeviceClass::Dram => {}
        }
        self.delay_write(bytes);
    }

    /// Returns a copy of this model scaled by `factor` (>1 slows the device
    /// down). Used by sensitivity sweeps.
    pub fn scaled(&self, factor: f64) -> DeviceModel {
        DeviceModel {
            class: self.class,
            read_latency_ns: (self.read_latency_ns as f64 * factor) as u64,
            write_latency_ns: (self.write_latency_ns as f64 * factor) as u64,
            read_gbps: self.read_gbps / factor,
            write_gbps: self.write_gbps / factor,
            throttled: self.throttled,
        }
    }
}

fn transfer_ns(bytes: usize, gbps: f64) -> u64 {
    if gbps.is_infinite() || bytes == 0 {
        0
    } else {
        (bytes as f64 / gbps) as u64
    }
}

/// Blocks for `ns` nanoseconds: sleeps for the bulk of long delays and
/// spin-waits for short ones (sub-`SLEEP_THRESHOLD_NS` delays are far below
/// OS timer resolution).
pub fn busy_delay_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    if ns > SLEEP_THRESHOLD_NS {
        std::thread::sleep(Duration::from_nanos(ns - SLEEP_THRESHOLD_NS / 2));
    }
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_is_free() {
        let d = DeviceModel::dram();
        assert_eq!(d.read_delay_ns(1 << 20), 0);
        assert_eq!(d.write_delay_ns(1 << 20), 0);
    }

    #[test]
    fn unthrottled_injects_nothing() {
        let d = DeviceModel::nvm_unthrottled();
        assert_eq!(d.write_delay_ns(1 << 30), 0);
    }

    #[test]
    fn nvm_latency_dominates_small_writes() {
        let d = DeviceModel::nvm();
        let small = d.write_delay_ns(8);
        assert!(small >= d.write_latency_ns);
        assert!(small < d.write_latency_ns + 100);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let d = DeviceModel::nvm();
        // 64 MiB at 3 GB/s ~ 22 ms, far above latency.
        let big = d.write_delay_ns(64 << 20);
        assert!(big > 20_000_000, "{big}");
    }

    #[test]
    fn ssd_much_slower_than_nvm() {
        let nvm = DeviceModel::nvm();
        let ssd = DeviceModel::ssd();
        assert!(ssd.read_latency_ns >= 100 * nvm.read_latency_ns);
        assert!(ssd.read_delay_ns(4096) > 30 * nvm.read_delay_ns(4096));
        assert!(ssd.write_delay_ns(1 << 20) > 5 * nvm.write_delay_ns(1 << 20));
    }

    #[test]
    fn scaled_slows_down() {
        let d = DeviceModel::nvm().scaled(2.0);
        assert_eq!(d.read_latency_ns, 500);
        assert!(d.write_delay_ns(1 << 20) > DeviceModel::nvm().write_delay_ns(1 << 20));
    }

    #[test]
    fn busy_delay_roughly_accurate() {
        let t = Instant::now();
        busy_delay_ns(200_000);
        let e = t.elapsed().as_nanos() as u64;
        assert!(e >= 200_000, "waited only {e} ns");
        // Generous upper bound: scheduler noise under CI.
        assert!(e < 60_000_000, "waited {e} ns");
    }

    #[test]
    fn delay_zero_returns_immediately() {
        let t = Instant::now();
        busy_delay_ns(0);
        assert!(t.elapsed().as_micros() < 1000);
    }

    #[test]
    fn display_class() {
        assert_eq!(DeviceClass::Nvm.to_string(), "nvm");
        assert_eq!(DeviceClass::Ssd.to_string(), "ssd");
        assert_eq!(DeviceClass::Dram.to_string(), "dram");
    }
}
