//! Log-bucketed latency histogram with percentile queries and lock-free
//! recording from any number of threads.
//!
//! The evaluation in the paper reports average, 90th, 99th and 99.9th
//! percentile latencies (Tables 2 and 3) and per-operation latency timelines
//! (Figure 8). [`Histogram`] records nanosecond latencies into
//! logarithmically spaced buckets (HdrHistogram-style: power-of-two major
//! buckets each split into 16 linear sub-buckets, ~6% relative error) so
//! recording is O(1) and memory use is constant.
//!
//! Recording takes `&self`, so one histogram serves an engine's worker
//! threads, a server's shards or a benchmark's client threads alike. The
//! buckets are striped into independent copies and each thread hashes to a
//! stripe by a process-global thread index: a record is two relaxed atomic
//! adds on a stripe private to ~1/8 of the threads. Queries sum the
//! stripes; a [`snapshot`](Histogram::snapshot) or
//! [`diff`](Histogram::diff) is a histogram of one stripe.
//!
//! Counts are never lost: `count` is derived from the buckets themselves,
//! so a snapshot taken while other threads record sees a consistent prefix
//! of the recorded operations (each operation appears in at most one
//! snapshot delta and in every later snapshot).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Number of linear sub-buckets per power-of-two bucket.
const SUB_BUCKETS: usize = 16;
/// log2 of `SUB_BUCKETS`.
const SUB_BITS: u32 = 4;
/// Number of power-of-two major buckets (covers up to 2^40 ns ≈ 18 minutes).
const MAJOR_BUCKETS: usize = 41;
/// Total bucket count.
const NUM_BUCKETS: usize = MAJOR_BUCKETS * SUB_BUCKETS;
/// Stripes of a histogram from [`Histogram::new`]. A power of two so the
/// stripe pick is a mask; 8 stripes keep the footprint at ~42 KiB while
/// eliminating contention for typical thread counts.
const STRIPES: usize = 8;

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    // Values in [2^m, 2^(m+1)) are split into 16 sub-buckets of width
    // 2^(m-4). Row 0 holds [0, 16) exactly, so row for exponent m is
    // m - SUB_BITS + 1 (m = 4 -> row 1).
    let m = 63 - value.leading_zeros();
    let row = (m - SUB_BITS + 1) as usize;
    let sub = (value >> (m - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (row * SUB_BUCKETS + sub).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of a bucket (the value reported for it).
fn bucket_value(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let row = (index / SUB_BUCKETS) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    let m = row + SUB_BITS - 1;
    let base = 1u64 << m;
    let width = base >> SUB_BITS;
    base + (sub + 1) * width - 1
}

/// One copy of the bucket layout, padded to its own cache-line region so
/// the hot `sum` words of different stripes never share a line.
#[repr(align(128))]
struct Stripe {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// Process-global monotone thread index used to spread threads over stripes.
static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Relaxed);
}

/// The calling thread's index, shared by every striped structure (this
/// histogram's buckets, the [`Stats`](crate::Stats) counters, the
/// replicas of the engine's published read state), so a thread writes the
/// same stripe of each. Threads take indexes in the order they first ask,
/// so threads started one after another land on different stripes.
#[inline]
pub fn thread_index() -> usize {
    THREAD_INDEX.with(|i| *i)
}

/// A latency histogram with log-spaced buckets and lock-free recording.
///
/// # Examples
///
/// ```
/// use miodb_common::Histogram;
/// use std::sync::Arc;
///
/// let h = Arc::new(Histogram::new());
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
/// let earlier = h.snapshot();
/// h.record(1_000_000);
/// assert_eq!(h.count(), 4001);
/// assert!(h.percentile(99.0) >= 900);
/// assert_eq!(h.max(), 1_000_000);
/// assert_eq!(h.snapshot().diff(&earlier).count(), 1);
/// ```
pub struct Histogram {
    stripes: Box<[Stripe]>,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean_ns", &self.mean())
            .field("p50_ns", &self.percentile(50.0))
            .field("p99_ns", &self.percentile(99.0))
            .field("max_ns", &self.max())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::with_stripes(STRIPES)
    }

    /// `stripes` must be a power of two.
    fn with_stripes(stripes: usize) -> Histogram {
        Histogram {
            stripes: (0..stripes)
                .map(|_| Stripe {
                    buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicU64::new(0),
                })
                .collect(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The calling thread's stripe.
    #[inline]
    fn stripe(&self) -> &Stripe {
        &self.stripes[thread_index() & (self.stripes.len() - 1)]
    }

    /// Lowers `min` / raises `max` to cover `[lo, hi]`. Load-then-RMW
    /// keeps the common case (the extremes already cover the range)
    /// read-only, avoiding cross-stripe write contention.
    #[inline]
    fn widen(&self, lo: u64, hi: u64) {
        if lo < self.min.load(Relaxed) {
            self.min.fetch_min(lo, Relaxed);
        }
        if hi > self.max.load(Relaxed) {
            self.max.fetch_max(hi, Relaxed);
        }
    }

    /// Records one observation (e.g. a latency in nanoseconds).
    ///
    /// Lock-free and wait-free apart from the first call on a new thread;
    /// two relaxed RMWs on a stripe private to ~1/8 of the threads.
    #[inline]
    pub fn record(&self, value: u64) {
        let stripe = self.stripe();
        stripe.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        stripe.sum.fetch_add(value, Relaxed);
        self.widen(value, value);
    }

    /// Records the time elapsed since `since`, in nanoseconds.
    #[inline]
    pub fn record_elapsed(&self, since: Instant) {
        self.record(since.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations in bucket `i`, summed over the stripes.
    fn bucket(&self, i: usize) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.buckets[i].load(Relaxed))
            .sum()
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        (0..NUM_BUCKETS).map(|i| self.bucket(i)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.saturating_add(s.sum.load(Relaxed)))
    }

    /// Arithmetic mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Relaxed)
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Value at the given percentile `p` (0–100), approximated to the bucket
    /// boundary (~6% relative error). Returns 0 when empty; `p = 0` returns
    /// the exact minimum and `p = 100` the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let max = self.max();
        if p == 0.0 {
            return self.min.load(Relaxed);
        }
        if p == 100.0 {
            return max;
        }
        let target = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for i in 0..NUM_BUCKETS {
            seen += self.bucket(i);
            if seen >= target {
                return bucket_value(i).min(max);
            }
        }
        max
    }

    /// Adds every observation of `other` into this histogram (on the
    /// calling thread's stripe). `other` may be recording concurrently.
    pub fn merge(&self, other: &Histogram) {
        let stripe = self.stripe();
        for (i, bucket) in stripe.buckets.iter().enumerate() {
            bucket.fetch_add(other.bucket(i), Relaxed);
        }
        stripe.sum.fetch_add(other.sum(), Relaxed);
        self.widen(other.min.load(Relaxed), other.max());
    }

    /// A one-stripe copy of the observations recorded so far.
    ///
    /// Safe to call while other threads record; the result reflects every
    /// operation that completed before the call began and possibly some
    /// concurrent ones.
    pub fn snapshot(&self) -> Histogram {
        let copy = Histogram::with_stripes(1);
        copy.merge(self);
        copy
    }

    /// Returns the observations recorded since `earlier` was captured, where
    /// `earlier` must be a previous snapshot of the same histogram.
    ///
    /// Interval `min`/`max` are approximated to bucket boundaries (the exact
    /// extremes of the interval are not recoverable from cumulative state).
    /// Used to reconstruct latency timelines (Figure 8) from engine-side
    /// cumulative histograms.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let interval = Histogram::with_stripes(1);
        let (mut first, mut last) = (None, None);
        for (i, bucket) in interval.stripes[0].buckets.iter().enumerate() {
            let n = self.bucket(i).saturating_sub(earlier.bucket(i));
            if n > 0 {
                first.get_or_insert(i);
                last = Some(i);
            }
            bucket.store(n, Relaxed);
        }
        interval.stripes[0]
            .sum
            .store(self.sum().saturating_sub(earlier.sum()), Relaxed);
        interval.widen(
            first.map_or(u64::MAX, bucket_value),
            last.map_or(0, bucket_value),
        );
        interval
    }

    /// Clears all observations.
    ///
    /// Not linearizable with concurrent `record` calls: observations racing
    /// with the reset may survive it. Intended for phase boundaries where
    /// the workload has quiesced the engine (e.g. between YCSB load
    /// and run phases).
    pub fn reset(&self) {
        for stripe in self.stripes.iter() {
            stripe.buckets.iter().for_each(|b| b.store(0, Relaxed));
            stripe.sum.store(0, Relaxed);
        }
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.percentile(100.0), 15);
    }

    #[test]
    fn percentile_monotonic() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let mut last = 0;
        for p in [10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} < previous {last}");
            last = v;
        }
    }

    #[test]
    fn percentile_accuracy_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.08, "p50 = {p50}");
        let p99 = h.percentile(99.0) as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.08, "p99 = {p99}");
    }

    #[test]
    fn mean_and_sum() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.sum(), 60);
        assert!((h.mean() - 20.0).abs() < f64::EPSILON);
    }

    #[test]
    fn merge_combines_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.min(), 1);
        let p50 = a.percentile(50.0) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.1);
    }

    #[test]
    fn reset_clears_all_stripes() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..100 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 400);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.snapshot().max(), 0);
    }

    #[test]
    fn large_values_do_not_panic() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(100.0) > 0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn percentile_zero_returns_min() {
        let h = Histogram::new();
        for v in [37u64, 1_000, 2_000_000] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 37);
    }

    #[test]
    fn percentile_hundred_returns_exact_max() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 3);
        }
        assert_eq!(h.percentile(100.0), 30_000);
    }

    #[test]
    fn percentile_edges_on_empty() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn diff_isolates_an_interval() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let checkpoint = h.snapshot();
        for v in 100_000..=101_000u64 {
            h.record(v);
        }
        let interval = h.diff(&checkpoint);
        assert_eq!(interval.count(), 1_001);
        assert!(interval.min() >= 90_000, "min = {}", interval.min());
        let p50 = interval.percentile(50.0) as f64;
        assert!((p50 - 100_500.0).abs() / 100_500.0 < 0.08, "p50 = {p50}");
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty() {
        let h = Histogram::new();
        h.record(123);
        let d = h.diff(&h.snapshot());
        assert_eq!(d.count(), 0);
        assert_eq!(d.percentile(50.0), 0);
        assert_eq!(d.min(), 0);
    }

    #[test]
    fn bucket_value_is_upper_bound_of_its_bucket() {
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 123_456, 10_000_000] {
            let upper = bucket_value(bucket_index(v));
            assert!(upper >= v, "value {v} maps to bucket with upper {upper}");
            // The representative must be within ~1/16 of the value above it.
            assert!(upper as f64 <= v as f64 * 1.07 + 16.0);
        }
    }

    #[test]
    fn concurrent_counts_conserved() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        h.record((w as u64) * 1_000 + (i % 997));
                    }
                })
            })
            .collect();
        // Snapshots taken mid-flight must be internally consistent.
        for _ in 0..10 {
            let snap = h.snapshot();
            assert!(snap.count() <= WRITERS as u64 * PER_WRITER);
            if snap.count() > 0 {
                assert!(snap.percentile(50.0) <= snap.percentile(99.9).max(snap.max()));
            }
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), WRITERS as u64 * PER_WRITER);
    }

    /// Records `values` into `h` from 4 threads, each taking every 4th one.
    fn record_from_4_threads(h: &Histogram, values: &[u64]) {
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || values.iter().skip(t).step_by(4).for_each(|&v| h.record(v)));
            }
        });
    }

    /// The reference a percentile is checked against: the nearest-rank
    /// value of the sorted observations, reported as its bucket's upper
    /// bound and capped at the exact maximum.
    fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
        let max = *sorted.last().unwrap();
        if p == 0.0 {
            return sorted[0];
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        bucket_value(bucket_index(sorted[rank - 1])).min(max)
    }

    /// Latency-like values: mostly small, with a long tail.
    fn values() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            (0u32..40, any::<u64>()).prop_map(|(bits, v)| v >> (63 - bits)),
            1..400,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Four recording threads lose nothing: count, sum and extremes
        /// are exact, and every percentile is the sorted reference's.
        #[test]
        fn four_threads_match_a_sorted_reference(values in values()) {
            let h = Histogram::new();
            record_from_4_threads(&h, &values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
            prop_assert_eq!(h.min(), sorted[0]);
            prop_assert_eq!(h.max(), *sorted.last().unwrap());
            for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                prop_assert_eq!(h.percentile(p), reference_percentile(&sorted, p), "p{}", p);
            }
        }

        /// `later.diff(&earlier)` is the histogram of the later values
        /// alone, up to the bucket-rounded extremes a diff reports.
        #[test]
        fn diff_matches_a_histogram_of_the_later_values(
            earlier in values(),
            later in values(),
        ) {
            let h = Histogram::new();
            record_from_4_threads(&h, &earlier);
            let checkpoint = h.snapshot();
            record_from_4_threads(&h, &later);
            let interval = h.snapshot().diff(&checkpoint);
            let only = Histogram::new();
            record_from_4_threads(&only, &later);
            prop_assert_eq!(interval.count(), only.count());
            prop_assert_eq!(interval.sum(), only.sum());
            prop_assert_eq!(interval.max(), bucket_value(bucket_index(only.max())));
            prop_assert_eq!(interval.min(), bucket_value(bucket_index(only.min())));
            for p in [50.0, 90.0, 99.0, 99.9] {
                prop_assert_eq!(interval.percentile(p).min(only.max()), only.percentile(p), "p{}", p);
            }
        }
    }
}
