//! Lock-free concurrent latency histogram.
//!
//! [`ConcurrentHistogram`] lets every engine thread record operation
//! latencies on the hot path with two relaxed atomic adds and no shared
//! cache line between unrelated threads: buckets are striped into 8
//! independent copies of the [`Histogram`] log-bucket layout, and each
//! thread hashes to a stripe by a process-global thread index. A
//! [`snapshot`](ConcurrentHistogram::snapshot) sums the stripes into an
//! ordinary [`Histogram`], so percentile/mean/merge logic is shared with
//! the single-threaded type.
//!
//! Counts are never lost: the snapshot derives `count` from the bucket
//! array itself, so a snapshot taken concurrently with recorders sees a
//! consistent prefix of the recorded operations (each operation appears in
//! at most one snapshot delta and in every later snapshot).

use crate::histogram::{Histogram, NUM_BUCKETS};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of independent bucket stripes. A power of two so the stripe pick
/// is a mask; 8 stripes keep the footprint at ~42 KiB per histogram while
/// eliminating contention for typical worker counts.
const STRIPES: usize = 8;

/// Pads a stripe to its own cache-line region to prevent false sharing of
/// the hot `count`/`sum` words between stripes.
#[repr(align(128))]
struct Stripe {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

/// Process-global monotone thread index used to spread threads over stripes.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// A multi-writer latency histogram with lock-free recording.
///
/// # Examples
///
/// ```
/// use miodb_common::ConcurrentHistogram;
/// use std::sync::Arc;
///
/// let h = Arc::new(ConcurrentHistogram::new());
/// let threads: Vec<_> = (0..4)
///     .map(|_| {
///         let h = h.clone();
///         std::thread::spawn(move || {
///             for v in 1..=1000u64 {
///                 h.record(v);
///             }
///         })
///     })
///     .collect();
/// for t in threads {
///     t.join().unwrap();
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 4000);
/// assert!(snap.percentile(99.0) >= 900);
/// ```
pub struct ConcurrentHistogram {
    stripes: Vec<Stripe>,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for ConcurrentHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ConcurrentHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentHistogram")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl ConcurrentHistogram {
    /// Creates an empty histogram.
    pub fn new() -> ConcurrentHistogram {
        ConcurrentHistogram {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation (e.g. a latency in nanoseconds).
    ///
    /// Lock-free and wait-free apart from the first call on a new thread;
    /// two relaxed RMWs on a stripe private to ~1/8 of the threads.
    #[inline]
    pub fn record(&self, value: u64) {
        let stripe = &self.stripes[THREAD_INDEX.with(|i| *i) & (STRIPES - 1)];
        stripe.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        // Load-then-RMW keeps the common case (extreme already covers the
        // value) read-only, avoiding cross-stripe write contention.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records the time elapsed since `since`, in nanoseconds.
    #[inline]
    pub fn record_elapsed(&self, since: Instant) {
        self.record(since.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Sums all stripes into a plain [`Histogram`] snapshot.
    ///
    /// Safe to call while other threads record; the result reflects every
    /// operation that completed before the call began and possibly some
    /// concurrent ones.
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        for stripe in &self.stripes {
            for (total, bucket) in buckets.iter_mut().zip(stripe.buckets.iter()) {
                *total += bucket.load(Ordering::Relaxed);
            }
            sum = sum.saturating_add(stripe.sum.load(Ordering::Relaxed));
        }
        Histogram::from_parts(
            buckets,
            sum,
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// Number of recorded observations (sum over stripes).
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .flat_map(|s| s.buckets.iter())
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Clears all observations.
    ///
    /// Not linearizable with concurrent `record` calls: observations racing
    /// with the reset may survive it. Intended for phase boundaries where
    /// the workload driver has quiesced the engine (e.g. between YCSB load
    /// and run phases).
    pub fn reset(&self) {
        for stripe in &self.stripes {
            for bucket in &stripe.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            stripe.sum.store(0, Ordering::Relaxed);
        }
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_matches_plain_histogram() {
        let c = ConcurrentHistogram::new();
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            c.record(v);
            h.record(v);
        }
        let snap = c.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.sum(), h.sum());
        assert_eq!(snap.min(), h.min());
        assert_eq!(snap.max(), h.max());
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(snap.percentile(p), h.percentile(p), "p{p}");
        }
    }

    #[test]
    fn reset_clears_all_stripes() {
        let c = Arc::new(ConcurrentHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for v in 0..100 {
                        c.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.count(), 400);
        c.reset();
        assert_eq!(c.count(), 0);
        assert_eq!(c.snapshot().max(), 0);
    }

    #[test]
    fn concurrent_counts_conserved() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let c = Arc::new(ConcurrentHistogram::new());
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        c.record((w as u64) * 1_000 + (i % 997));
                    }
                })
            })
            .collect();
        // Snapshots taken mid-flight must be internally consistent.
        for _ in 0..10 {
            let snap = c.snapshot();
            assert!(snap.count() <= WRITERS as u64 * PER_WRITER);
            if snap.count() > 0 {
                assert!(snap.percentile(50.0) <= snap.percentile(99.9).max(snap.max()));
            }
        }
        for t in handles {
            t.join().unwrap();
        }
        let final_snap = c.snapshot();
        assert_eq!(final_snap.count(), WRITERS as u64 * PER_WRITER);
    }
}
