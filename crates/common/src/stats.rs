//! Engine statistics: stalls, flushing, serialization and write amplification.
//!
//! These counters back Table 1, Figure 2 and Figure 11 of the paper. Every
//! engine (MioDB and the baselines) shares an [`Stats`] instance with its
//! device layer so write amplification is measured identically everywhere:
//!
//! ```text
//! WA = (bytes written to NVM + bytes written to SSD) / bytes of user data
//! ```
//!
//! Every counter is declared exactly once, in the `declare_stats!` table
//! below: field, unit, exported metric name, labels and help text. [`Stats`],
//! [`StatsSnapshot`], [`Stats::snapshot`], [`Stats::merge`],
//! [`StatsSnapshot::diff`], the `Display` report and the Prometheus families
//! ([`COUNTERS`], walked by [`metrics`](crate::metrics)) are all generated
//! from it, so adding a counter is a one-entry edit. Counters are bumped
//! with a relaxed `fetch_add` on the public field and nothing else.
//!
//! Each field is a [`StripedCounter`]: striped per thread the way
//! [`Histogram`](crate::Histogram) stripes its buckets, so the counters a
//! GET bumps on every call never bounce a shared cache line between the
//! cores serving it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Stripes per counter. A power of two so the stripe pick is a mask.
const STRIPES: usize = 8;

/// One stripe of a counter, alone on its cache-line pair.
#[derive(Default)]
#[repr(align(128))]
struct Slot(AtomicU64);

/// A monotone `u64` counter striped per thread: [`fetch_add`] adds on the
/// calling thread's stripe (the same stripe index its histogram records
/// use), [`load`] sums the stripes.
///
/// [`fetch_add`]: StripedCounter::fetch_add
/// [`load`]: StripedCounter::load
#[derive(Default)]
pub struct StripedCounter {
    slots: [Slot; STRIPES],
}

impl StripedCounter {
    /// Adds `v` on the calling thread's stripe.
    #[inline]
    pub fn fetch_add(&self, v: u64, order: Ordering) {
        let i = crate::histogram::thread_index() & (STRIPES - 1);
        self.slots[i].0.fetch_add(v, order);
    }

    /// The sum of every stripe. Not one atomic read: an add racing the
    /// load may or may not be counted, as with any relaxed read.
    pub fn load(&self, order: Ordering) -> u64 {
        self.slots
            .iter()
            .fold(0u64, |sum, s| sum.wrapping_add(s.0.load(order)))
    }
}

impl std::fmt::Debug for StripedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.load(Ordering::Relaxed).fmt(f)
    }
}

/// How a counter's raw `u64` is exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Events or bytes, exported as is.
    Count,
    /// Nanoseconds, exported as seconds.
    Nanos,
}

/// One row of the counter table.
#[derive(Debug)]
pub struct Counter {
    /// Field name in [`Stats`] / [`StatsSnapshot`].
    pub field: &'static str,
    /// Prometheus family the counter is exported under.
    pub metric: &'static str,
    /// Constant labels distinguishing it within the family.
    pub labels: &'static [(&'static str, &'static str)],
    /// `# HELP` text of the family.
    pub help: &'static str,
    /// Unit of the raw value.
    pub unit: Unit,
    /// The live counter.
    pub cell: fn(&Stats) -> &StripedCounter,
    /// Its value in a snapshot.
    pub value: fn(&StatsSnapshot) -> u64,
}

macro_rules! declare_stats {
    ($(
        $(#[$doc:meta])*
        $field:ident => $unit:ident $metric:literal {$($lk:ident = $lv:literal),*} $help:literal;
    )*) => {
        /// Atomic counters describing one engine run.
        ///
        /// All counters are monotonically increasing; durations are stored
        /// in nanoseconds. The struct is cheap to share (`Arc<Stats>`) and
        /// safe to update from flush/compaction threads.
        #[derive(Debug, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $field: StripedCounter,)*
        }

        /// A point-in-time copy of [`Stats`], suitable for diffing and
        /// printing.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
            /// Persistent bytes written divided by user bytes written over
            /// the snapshot's interval; 0.0 before any user write.
            pub write_amplification: f64,
        }

        /// Every counter of [`Stats`], in declaration order.
        pub const COUNTERS: &[Counter] = &[$(Counter {
            field: stringify!($field),
            metric: $metric,
            labels: &[$((stringify!($lk), $lv)),*],
            help: $help,
            unit: Unit::$unit,
            cell: |s| &s.$field,
            value: |s| s.$field,
        },)*];

        impl Stats {
            /// Adds every counter of a snapshot into this instance.
            ///
            /// Used to fold per-phase or per-engine snapshots into an
            /// aggregate, the inverse of [`StatsSnapshot::diff`].
            pub fn merge(&self, snap: &StatsSnapshot) {
                $(self.$field.fetch_add(snap.$field, Ordering::Relaxed);)*
            }

            /// Snapshot of all counters as plain integers (for reports).
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    write_amplification: 0.0,
                }
                .with_write_amplification()
            }
        }

        impl StatsSnapshot {
            /// Counters accumulated since `earlier` was captured (per-field
            /// saturating subtraction). `write_amplification` is recomputed
            /// for the interval. Used for phase-by-phase reports; the
            /// inverse of [`Stats::merge`].
            pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                    write_amplification: 0.0,
                }
                .with_write_amplification()
            }
        }
    };
}

declare_stats! {
    /// Bytes of user data accepted by `put`/`delete` (keys + values).
    user_bytes_written => Count "miodb_user_write_bytes_total" {}
        "Bytes of user data accepted by put/delete.";
    /// Bytes physically written to the (simulated) NVM device.
    nvm_bytes_written => Count "miodb_device_write_bytes_total" {device = "nvm"}
        "Bytes physically written per device.";
    /// Bytes physically written to the (simulated) SSD device.
    ssd_bytes_written => Count "miodb_device_write_bytes_total" {device = "ssd"}
        "Bytes physically written per device.";
    /// Bytes physically read from the NVM device.
    nvm_bytes_read => Count "miodb_device_read_bytes_total" {device = "nvm"}
        "Bytes physically read per device.";
    /// Bytes physically read from the SSD device.
    ssd_bytes_read => Count "miodb_device_read_bytes_total" {device = "ssd"}
        "Bytes physically read per device.";
    /// Modeled device time charged on foreground (client) threads, which
    /// spin it off inside the operation that charged it.
    device_model_fg_ns => Nanos "miodb_device_model_seconds_total" {thread = "foreground"}
        "Modeled device time charged, by the kind of thread that charged it.";
    /// Modeled device time charged on background workers, which sleep it
    /// off at their settle points.
    device_model_bg_ns => Nanos "miodb_device_model_seconds_total" {thread = "background"}
        "Modeled device time charged, by the kind of thread that charged it.";

    /// Total time writers were blocked because the immutable MemTable was
    /// still being flushed when the active one filled (paper: *interval
    /// stalls*, observed as full request blocking).
    interval_stall_ns => Nanos "miodb_stall_seconds_total" {kind = "interval"}
        "Time writers were stalled, by stall kind.";
    /// Total time spent in deliberate short write delays used to pace
    /// writers (paper: *cumulative stalls*).
    cumulative_stall_ns => Nanos "miodb_stall_seconds_total" {kind = "cumulative"}
        "Time writers were stalled, by stall kind.";
    /// Number of interval-stall events.
    interval_stall_count => Count "miodb_stall_events_total" {kind = "interval"}
        "Number of writer stalls, by stall kind.";
    /// Number of cumulative-stall (slowdown) events.
    cumulative_stall_count => Count "miodb_stall_events_total" {kind = "cumulative"}
        "Number of writer stalls, by stall kind.";

    /// Total time spent flushing MemTables to the persistent layer.
    flush_ns => Nanos "miodb_flush_seconds_total" {}
        "Time spent flushing MemTables.";
    /// Number of MemTable flushes.
    flush_count => Count "miodb_flushes_total" {}
        "MemTable flushes completed.";
    /// Bytes moved by MemTable flushes.
    flush_bytes => Count "miodb_flush_bytes_total" {}
        "Bytes moved by MemTable flushes.";
    /// Total time spent serializing entries into block format (baselines).
    serialization_ns => Nanos "miodb_serialization_seconds_total" {}
        "Time spent serializing entries into block format.";
    /// Total time spent deserializing blocks during reads (baselines).
    deserialization_ns => Nanos "miodb_deserialization_seconds_total" {}
        "Time spent deserializing blocks during reads.";

    /// Total time spent in zero-copy compactions.
    zero_copy_compaction_ns => Nanos "miodb_zero_copy_compaction_seconds_total" {}
        "Time spent in zero-copy compactions, all levels.";
    /// Number of zero-copy compactions performed.
    zero_copy_compactions => Count "miodb_zero_copy_compactions_total" {}
        "Zero-copy compactions completed, all levels.";
    /// Nodes re-linked from a newtable into its oldtable by zero-copy
    /// compactions; with the time above, the cost of moving one node.
    zero_copy_nodes_moved => Count "miodb_zero_copy_nodes_moved_total" {}
        "Nodes re-linked by zero-copy compactions, all levels.";
    /// NVM bytes zero-copy compactions wrote: three link words and the
    /// insertion mark per moved run, the mark's clear per merge. A share of
    /// `nvm_bytes_written`, so of the write amplification.
    zero_copy_bytes_written => Count "miodb_zero_copy_write_bytes_total" {}
        "NVM bytes written by zero-copy compactions (links and mark), all levels.";
    /// Total time spent in lazy-copy compactions (MioDB) or SSTable
    /// compactions (baselines).
    copy_compaction_ns => Nanos "miodb_copy_compaction_seconds_total" {}
        "Time spent in lazy-copy and SSTable compactions.";
    /// Number of copy compactions performed.
    copy_compactions => Count "miodb_copy_compactions_total" {}
        "Lazy-copy and SSTable compactions completed.";
    /// Total time spent swizzling pointers after one-piece flushes.
    swizzle_ns => Nanos "miodb_swizzle_seconds_total" {}
        "Time spent swizzling pointers after one-piece flushes.";

    /// Number of `get` operations served.
    gets => Count "miodb_gets_total" {}
        "Get operations served.";
    /// Number of `get` operations that found a value.
    get_hits => Count "miodb_get_hits_total" {}
        "Get operations that found a value.";
    /// Number of bloom-filter negative hits (tables skipped).
    bloom_skips => Count "miodb_bloom_skips_total" {}
        "Tables skipped by bloom filters.";
    /// Number of bloom-filter false positives (table probed, key absent).
    bloom_false_positives => Count "miodb_bloom_false_positives_total" {}
        "Bloom filter false positives.";
    /// Number of times a `get` re-probed a level because its structure
    /// (settled/merging/lazy-draining sets) changed while the probe ran.
    level_probe_retries => Count "miodb_level_probe_retries_total" {}
        "Gets that re-probed a level whose structure changed under them.";
}

impl Stats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Adds a duration to a nanosecond counter.
    pub fn add_time(counter: &StripedCounter, d: Duration) {
        counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    fn with_write_amplification(mut self) -> StatsSnapshot {
        let device = self.nvm_bytes_written + self.ssd_bytes_written;
        self.write_amplification = match self.user_bytes_written {
            0 => 0.0,
            user => device as f64 / user as f64,
        };
        self
    }

    /// Flush throughput in bytes per second, or 0.0 if no flush happened.
    pub fn flush_throughput_bps(&self) -> f64 {
        if self.flush_ns == 0 {
            0.0
        } else {
            self.flush_bytes as f64 / (self.flush_ns as f64 / 1e9)
        }
    }
}

/// One line per declared counter (nanosecond totals as seconds), then the
/// write amplification.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in COUNTERS {
            let v = (c.value)(self);
            match c.unit {
                Unit::Count => writeln!(f, "{:<26}{v}", c.field)?,
                Unit::Nanos => writeln!(f, "{:<26}{:.3} s", c.field, v as f64 / 1e9)?,
            }
        }
        write!(
            f,
            "{:<26}{:.2}x",
            "write_amplification", self.write_amplification
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_every_counter_and_wa() {
        let s = Stats::new();
        s.user_bytes_written.fetch_add(10, Ordering::Relaxed);
        s.nvm_bytes_written.fetch_add(30, Ordering::Relaxed);
        s.flush_ns.fetch_add(1_500_000_000, Ordering::Relaxed);
        let text = s.snapshot().to_string();
        assert!(text.ends_with("3.00x"), "{text}");
        assert!(text.contains("1.500 s"), "{text}");
        for c in COUNTERS {
            let lines = text
                .lines()
                .filter(|l| l.split(' ').next() == Some(c.field));
            assert_eq!(lines.count(), 1, "{} in:\n{text}", c.field);
        }
    }

    #[test]
    fn wa_is_zero_without_user_writes() {
        let s = Stats::new();
        s.nvm_bytes_written.fetch_add(100, Ordering::Relaxed);
        assert_eq!(s.snapshot().write_amplification, 0.0);
    }

    #[test]
    fn wa_counts_both_devices() {
        let s = Stats::new();
        s.user_bytes_written.fetch_add(100, Ordering::Relaxed);
        s.nvm_bytes_written.fetch_add(150, Ordering::Relaxed);
        s.ssd_bytes_written.fetch_add(150, Ordering::Relaxed);
        assert!((s.snapshot().write_amplification - 3.0).abs() < 1e-9);
    }

    #[test]
    fn add_time_accumulates() {
        let s = Stats::new();
        Stats::add_time(&s.flush_ns, Duration::from_micros(5));
        Stats::add_time(&s.flush_ns, Duration::from_micros(5));
        assert_eq!(s.flush_ns.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let s = Stats::new();
        s.gets.fetch_add(7, Ordering::Relaxed);
        s.flush_bytes.fetch_add(1_000_000, Ordering::Relaxed);
        s.flush_ns.fetch_add(1_000_000_000, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.gets, 7);
        assert!((snap.flush_throughput_bps() - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn flush_throughput_zero_when_no_flush() {
        assert_eq!(StatsSnapshot::default().flush_throughput_bps(), 0.0);
    }

    #[test]
    fn snapshot_diff_isolates_interval() {
        let s = Stats::new();
        s.user_bytes_written.fetch_add(100, Ordering::Relaxed);
        s.nvm_bytes_written.fetch_add(200, Ordering::Relaxed);
        s.gets.fetch_add(10, Ordering::Relaxed);
        let before = s.snapshot();
        s.user_bytes_written.fetch_add(50, Ordering::Relaxed);
        s.nvm_bytes_written.fetch_add(150, Ordering::Relaxed);
        s.gets.fetch_add(7, Ordering::Relaxed);
        let d = s.snapshot().diff(&before);
        assert_eq!(d.user_bytes_written, 50);
        assert_eq!(d.nvm_bytes_written, 150);
        assert_eq!(d.gets, 7);
        // Interval WA uses interval bytes, not cumulative bytes.
        assert!((d.write_amplification - 3.0).abs() < 1e-9);
    }

    /// Threads bumping the same counters land on different stripes; the
    /// load sums them without losing or doubling an add.
    #[test]
    fn striped_counters_sum_every_add_from_every_thread() {
        const THREADS: u64 = 4;
        const ADDS: u64 = 100_000;
        let s = Stats::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..ADDS {
                        s.gets.fetch_add(1, Ordering::Relaxed);
                        s.bloom_skips.fetch_add(t + 1, Ordering::Relaxed);
                        s.nvm_bytes_read.fetch_add(32, Ordering::Relaxed);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.gets, THREADS * ADDS);
        assert_eq!(snap.bloom_skips, (1..=THREADS).sum::<u64>() * ADDS);
        assert_eq!(snap.nvm_bytes_read, THREADS * ADDS * 32);
    }

    /// Walks the declared table: `snapshot → merge → snapshot` and `diff`
    /// carry every field, and no two rows read the same field.
    #[test]
    fn every_declared_counter_round_trips() {
        let numbered = Stats::new();
        for (n, c) in (1..).zip(COUNTERS) {
            (c.cell)(&numbered).fetch_add(n, Ordering::Relaxed);
        }
        let one = numbered.snapshot();
        let values: Vec<u64> = COUNTERS.iter().map(|c| (c.value)(&one)).collect();
        assert_eq!(values, (1..=COUNTERS.len() as u64).collect::<Vec<_>>());

        let agg = Stats::new();
        agg.merge(&one);
        assert_eq!(agg.snapshot(), one);
        agg.merge(&one);
        let two = agg.snapshot();
        for c in COUNTERS {
            assert_eq!((c.value)(&two), 2 * (c.value)(&one), "{}", c.field);
        }
        assert_eq!(two.diff(&one), one);
        assert_eq!(one.diff(&two), StatsSnapshot::default());
    }
}
