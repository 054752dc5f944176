//! Device timing models for DRAM, NVM and SSD.
//!
//! Experiments in the paper depend on the relative speeds of the three
//! devices, not their absolute values:
//!
//! - DRAM random-write bandwidth ≈ 7× NVM (paper §2.1, measured with FIO);
//! - NVM latency ≈ 100× lower than SSD, bandwidth ≈ 10× higher (paper §1).
//!
//! A [`DeviceModel`] injects a delay of `latency + bytes / bandwidth` at
//! every modeled access. Who waits it out, and how, depends on the thread:
//!
//! - **Foreground threads** (clients, server shards) **spin**: their
//!   delays are frequently far below the OS sleep granularity (an NVM
//!   pointer update is ~100 ns), and the op's latency must contain them.
//!   Delays above [`SLEEP_THRESHOLD_NS`] sleep for the bulk and spin for
//!   the remainder ([`busy_delay_ns`]).
//! - **Background threads** (flush, compaction, lazy copy, repository
//!   maintenance), marked once at spawn with [`mark_background`], add each
//!   delay to a per-thread **debt** and pay it at the worker's settle
//!   points with one `thread::sleep` ([`settle`], [`settle_due`],
//!   [`settle_idle`]). On real
//!   hardware a device access and another thread's CPU work overlap;
//!   spinning would instead burn modeled device time as CPU the writers
//!   need. A worker settles before it publishes a unit of work, and never
//!   while it holds an engine lock, so a result is never visible before
//!   its device time has passed and no sleep blocks another thread.
//!   Sleep overshoot is kept as credit against the same unit's later
//!   charges, so a busy stretch takes its modeled time, no less and about
//!   no more; credit does not survive a wait for new work.
//!
//! CPU work that a cost model stands in for (the baselines' SSTable codec)
//! is not device time: it calls [`busy_delay_ns`] directly and spins on
//! every thread.
//!
//! Models can be disabled (`*_unthrottled`) for unit tests and for callers
//! that only want byte accounting.

use std::cell::Cell;
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

/// A background thread's debt below this is carried to a later settle
/// point by [`settle_due`]: one sleep costs a wake-up that preempts a
/// client thread, so a worker sleeps in slices of at least this much.
pub const DEBT_QUANTUM_NS: i64 = 500_000;

/// A debt at most this large is spun off by [`settle`] instead of slept:
/// a sleep overshoots by about this much (timer slack plus wake-up), so
/// sleeping a few microseconds of debt would stretch the wait tenfold.
const SETTLE_SPIN_NS: i64 = 50_000;

thread_local! {
    static BACKGROUND: Cell<bool> = const { Cell::new(false) };
    /// Modeled device time charged but not yet waited out, in ns; negative
    /// when a sleep overshot (credit).
    static DEBT_NS: Cell<i64> = const { Cell::new(0) };
}

/// Marks the calling thread as a background worker: from now on its
/// modeled device time accrues as debt, paid at its settle points
/// instead of being spun off at each access.
pub fn mark_background() {
    BACKGROUND.with(|b| b.set(true));
}

/// Whether the calling thread was marked with [`mark_background`].
fn is_background() -> bool {
    BACKGROUND.with(Cell::get)
}

/// The calling thread's unpaid modeled device time in ns (negative: credit
/// from a sleep that overshot). Always 0 on a foreground thread.
fn debt_ns() -> i64 {
    DEBT_NS.with(Cell::get)
}

/// Pays the calling thread's debt: sleeps it off (or spins, if it is
/// small), then subtracts the time that actually passed, so an overshoot
/// is kept as credit against later charges. Afterwards the debt is ≤ 0.
/// No-op on a foreground thread.
///
/// Call it where the thread holds no lock another thread may wait for.
pub fn settle() {
    DEBT_NS.with(|debt| {
        while debt.get() > 0 {
            let owed = debt.get();
            let t = Instant::now();
            if owed > SETTLE_SPIN_NS {
                std::thread::sleep(Duration::from_nanos(owed as u64));
            } else {
                busy_delay_ns(owed as u64);
            }
            debt.set(owed - t.elapsed().as_nanos() as i64);
        }
    });
}

/// [`settle`]s, then drops any credit: the call for a worker about to wait
/// for new work. Device time does not pass for a worker with nothing to
/// do, so an overshoot must not prepay work that arrives after the wait.
pub fn settle_idle() {
    settle();
    DEBT_NS.with(|debt| debt.set(0));
}

/// [`settle`]s only once the debt has reached [`DEBT_QUANTUM_NS`]: the
/// call for a worker's intermediate steps, where a result is not yet
/// published and a small debt can wait for the next settle point.
pub fn settle_due() {
    if debt_ns() >= DEBT_QUANTUM_NS {
        settle();
    }
}

/// Waits out `ns` of modeled device time on the calling thread — debt on
/// a background thread, a spin on any other — and counts it in `stats`
/// under the thread's kind. Every charge comes through here.
#[inline]
fn spend(stats: &Stats, ns: u64) {
    if ns == 0 {
        return;
    }
    if is_background() {
        DEBT_NS.with(|d| d.set(d.get() + ns as i64));
        stats.device_model_bg_ns.fetch_add(ns, Ordering::Relaxed);
    } else {
        busy_delay_ns(ns);
        stats.device_model_fg_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

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

    /// Counts a read of `bytes` into `stats` and waits out its modeled
    /// cost.
    #[inline]
    pub fn charge_read(&self, stats: &Stats, bytes: usize) {
        self.count_read(stats, bytes as u64);
        spend(stats, self.read_delay_ns(bytes));
    }

    /// Counts `count` dependent random reads of `bytes_each` into `stats`
    /// and waits out their modeled cost in one wait: the same modeled
    /// time as `count` separate [`charge_read`](Self::charge_read)s (each
    /// pays the device latency — dependent pointer chases cannot
    /// pipeline), but the spin-wait overhead is paid once.
    #[inline]
    pub fn charge_reads(&self, stats: &Stats, count: u64, bytes_each: usize) {
        if count == 0 {
            return;
        }
        self.count_read(stats, count * bytes_each as u64);
        spend(stats, count * self.read_delay_ns(bytes_each));
    }

    #[inline]
    fn count_read(&self, stats: &Stats, bytes: u64) {
        match self.class {
            DeviceClass::Nvm => stats.nvm_bytes_read.fetch_add(bytes, Ordering::Relaxed),
            DeviceClass::Ssd => stats.ssd_bytes_read.fetch_add(bytes, Ordering::Relaxed),
            DeviceClass::Dram => {}
        }
    }

    /// Counts a write of `bytes` into `stats` and waits out its modeled
    /// cost.
    #[inline]
    pub fn charge_write(&self, stats: &Stats, bytes: usize) {
        let n = bytes as u64;
        match self.class {
            DeviceClass::Nvm => stats.nvm_bytes_written.fetch_add(n, Ordering::Relaxed),
            DeviceClass::Ssd => stats.ssd_bytes_written.fetch_add(n, Ordering::Relaxed),
            DeviceClass::Dram => {}
        }
        spend(stats, self.write_delay_ns(bytes));
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

    /// On-CPU time of the calling thread, in ns (first field of
    /// `/proc/thread-self/schedstat`).
    #[cfg(target_os = "linux")]
    fn thread_cpu_ns() -> u64 {
        // The kernel folds the running stretch into the figure only at a
        // tick or a switch; a yield brings it up to date.
        std::thread::yield_now();
        let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        s.split_whitespace().next().unwrap().parse().unwrap()
    }

    const CHARGES: u64 = 10_000;

    /// What [`charge_on_thread`] saw.
    struct Charged {
        /// Wall time of the charges and the settle after them.
        wall: u64,
        /// On-CPU time of the same.
        cpu: u64,
        /// Wall and on-CPU time of the settle alone.
        settle_wall: u64,
        settle_cpu: u64,
        /// Debt before and after the settle.
        owed: i64,
        after: i64,
        stats: Stats,
    }

    /// Charges `CHARGES` NVM reads of 250 ns each on a fresh thread,
    /// marked `background` or not, then settles.
    fn charge_on_thread(background: bool) -> Charged {
        #[cfg(target_os = "linux")]
        let cpu_now = thread_cpu_ns;
        #[cfg(not(target_os = "linux"))]
        let cpu_now = || 0u64;
        std::thread::spawn(move || {
            if background {
                mark_background();
            }
            let stats = Stats::new();
            let nvm = DeviceModel::nvm();
            assert_eq!(nvm.read_delay_ns(0), 250);
            let (cpu0, t0) = (cpu_now(), Instant::now());
            for _ in 0..CHARGES {
                nvm.charge_read(&stats, 0);
            }
            let owed = debt_ns();
            let (cpu1, t1) = (cpu_now(), Instant::now());
            settle();
            Charged {
                wall: t0.elapsed().as_nanos() as u64,
                cpu: cpu_now() - cpu0,
                settle_wall: t1.elapsed().as_nanos() as u64,
                settle_cpu: cpu_now() - cpu1,
                owed,
                after: debt_ns(),
                stats,
            }
        })
        .join()
        .unwrap()
    }

    #[test]
    fn background_threads_sleep_off_their_device_time() {
        let modeled = CHARGES * 250;
        let c = charge_on_thread(true);
        assert_eq!(c.owed, modeled as i64, "every charge is owed, none waited");
        assert!(c.wall >= modeled, "waited {} ns for {modeled} ns", c.wall);
        // The wait is a sleep: the settle is almost all of the wall time
        // and almost none of it on a CPU. (The charges' own CPU cost is
        // left out; unoptimized builds multiply it.)
        assert!(c.settle_wall >= modeled.saturating_sub(c.wall - c.settle_wall));
        if cfg!(target_os = "linux") {
            assert!(
                c.settle_cpu < c.settle_wall / 4,
                "on CPU {} ns of {} ns",
                c.settle_cpu,
                c.settle_wall
            );
        }
        let snap = c.stats.snapshot();
        assert_eq!(snap.device_model_bg_ns, modeled);
        assert_eq!(snap.device_model_fg_ns, 0);
        assert_eq!(snap.nvm_bytes_read, 0);
        // The overshoot of the one sleep is kept as credit, no more: what
        // the settle waited beyond the debt.
        assert!(c.after <= 0, "debt {} ns left after settle", c.after);
        assert!(
            c.after >= c.owed - c.settle_wall as i64,
            "credit {} ns",
            c.after
        );
    }

    #[test]
    fn settle_keeps_overshoot_as_credit() {
        std::thread::spawn(|| {
            mark_background();
            let nvm = DeviceModel::nvm();
            // Small debts spin, large ones sleep; both end at ≤ 0 and owe
            // back at most what the wait overran.
            for ns in [1_000u64, 40_000, 300_000, 2_000_000] {
                let before = debt_ns();
                nvm.charge_reads(&Stats::new(), ns / 250, 0);
                let owed = debt_ns();
                assert_eq!(owed - before, ns as i64);
                let t = Instant::now();
                settle();
                let waited = t.elapsed().as_nanos() as i64;
                let after = debt_ns();
                assert!(after <= 0, "{ns}: debt {after} ns left");
                assert!(after >= owed - waited, "{ns}: credit {after} ns");
            }
            // Credit pays later charges before anything is owed.
            let credit = debt_ns();
            nvm.charge_read(&Stats::new(), 0);
            assert_eq!(debt_ns(), credit + 250);
            // `settle_due` leaves a debt under the quantum alone.
            settle();
            nvm.charge_reads(&Stats::new(), 4, 0);
            let small = debt_ns();
            settle_due();
            assert_eq!(debt_ns(), small);
            // An idle wait ends with neither debt nor credit.
            nvm.charge_reads(&Stats::new(), 1000, 0);
            settle_idle();
            assert_eq!(debt_ns(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn foreground_threads_still_spin() {
        let modeled = CHARGES * 250;
        let c = charge_on_thread(false);
        assert_eq!(
            (c.owed, c.after),
            (0, 0),
            "a foreground thread owes nothing"
        );
        assert!(c.wall >= modeled, "waited {} ns for {modeled} ns", c.wall);
        if cfg!(target_os = "linux") {
            assert!(
                c.cpu >= modeled / 4,
                "on CPU only {} ns of {} ns",
                c.cpu,
                c.wall
            );
        }
        let snap = c.stats.snapshot();
        assert_eq!(snap.device_model_fg_ns, modeled);
        assert_eq!(snap.device_model_bg_ns, 0);
    }

    #[test]
    fn display_class() {
        assert_eq!(DeviceClass::Nvm.to_string(), "nvm");
        assert_eq!(DeviceClass::Ssd.to_string(), "ssd");
        assert_eq!(DeviceClass::Dram.to_string(), "dram");
    }
}
