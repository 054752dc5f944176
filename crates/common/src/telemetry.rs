//! Engine-side telemetry: operation histograms, per-level metrics and the
//! one way to report a timed background interval, bundled as
//! [`EngineTelemetry`].
//!
//! Every engine owns one [`EngineTelemetry`] and exposes it through
//! [`KvEngine::telemetry`](crate::KvEngine::telemetry); the provided
//! [`KvEngine::metrics_text`](crate::KvEngine::metrics_text) renders it
//! together with the engine's [`EngineReport`](crate::EngineReport), so
//! benchmarks and tests get identical observability from MioDB and every
//! baseline.
//!
//! A flush, swizzle, compaction or writer stall is reported by exactly one
//! call, [`EngineTelemetry::begin`]. The returned [`Interval`] reads the
//! clock once and, when it ends, feeds the [`Stats`] counters, the level's
//! [`LevelMetrics`] and the [`trace`] span from that one duration — so a
//! span that never closes, or a pending gauge that never comes back down,
//! cannot be written.

use crate::histogram::Histogram;
use crate::stats::{Stats, StripedCounter};
use crate::trace::{self, SpanGuard, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which compaction algorithm a [`Timed::Compaction`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionKind {
    /// Pointer-migration merge between PMTable levels (MioDB §4.3).
    ZeroCopy,
    /// Data-movement drain into the repository (lazy-copy, §4.4) or an
    /// SSTable compaction in baseline engines.
    LazyCopy,
}

impl CompactionKind {
    /// Stable lowercase label: the `kind` label of the per-level
    /// compaction families.
    pub fn label(&self) -> &'static str {
        match self {
            CompactionKind::ZeroCopy => "zero_copy",
            CompactionKind::LazyCopy => "lazy_copy",
        }
    }
}

/// Which writer-blocking mechanism a [`Timed::Stall`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Writers blocked waiting for the immutable MemTable to flush
    /// (paper: *interval stalls*).
    Interval,
    /// Writers delayed deliberately to pace ingest
    /// (paper: *cumulative stalls* / slowdowns).
    Cumulative,
}

/// Live gauges and counters for one LSM level.
///
/// The residency gauges (`bytes`, `tables`) are set by the engine at
/// structural transitions (flush publish, merge publish, drain); the
/// pending gauge and the compaction counters are maintained by
/// [`Interval`].
#[derive(Debug, Default)]
pub struct LevelMetrics {
    /// Bytes resident in this level.
    pub bytes: AtomicU64,
    /// Number of tables/runs in this level.
    pub tables: AtomicU64,
    /// Compactions out of this level currently running.
    pub pending_compactions: AtomicU64,
    /// Zero-copy compactions that took this level as their source.
    pub zero_copy_compactions: AtomicU64,
    /// Total nanoseconds spent in those zero-copy compactions.
    pub zero_copy_ns: AtomicU64,
    /// Lazy-copy (data movement) compactions sourced from this level.
    pub lazy_copy_compactions: AtomicU64,
    /// Total nanoseconds spent in those lazy-copy compactions.
    pub lazy_copy_ns: AtomicU64,
}

impl LevelMetrics {
    /// Updates the residency gauges after a structural change.
    pub fn set_occupancy(&self, bytes: u64, tables: u64) {
        self.bytes.store(bytes, Ordering::Relaxed);
        self.tables.store(tables, Ordering::Relaxed);
    }
}

/// What a timed [`Interval`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    /// A MemTable flush of (about) `bytes` bytes.
    Flush {
        /// Bytes in the MemTable being flushed.
        bytes: u64,
    },
    /// Pointer swizzling after a one-piece flush.
    Swizzle,
    /// A compaction out of `level`.
    Compaction {
        /// Source level.
        level: usize,
        /// Algorithm used.
        kind: CompactionKind,
    },
    /// Writers blocked or paced.
    Stall(StallKind),
}

/// An open timed interval, from [`EngineTelemetry::begin`].
///
/// Dropping it ends the interval: the trace span closes and the level's
/// pending gauge comes back down, always. A stall or swizzle is also
/// counted into [`Stats`] on drop; a flush or compaction counts as
/// completed work only if [`finish`](Interval::finish) ran — dropped on an
/// error path it leaves the completed-work counters alone.
#[must_use = "dropping the guard ends the interval"]
pub struct Interval<'a> {
    telemetry: &'a EngineTelemetry,
    what: Timed,
    start: Instant,
    span: Option<SpanGuard>,
    took: Option<Duration>,
    bytes: Option<u64>,
}

impl Interval<'_> {
    /// Stops the clock now; reporting still waits for `finish` or drop.
    /// For work whose result is published under a lock the interval should
    /// not be charged for.
    pub fn stop(&mut self) -> Duration {
        *self.took.get_or_insert_with(|| {
            let took = self.start.elapsed();
            if let Some(span) = self.span.take() {
                span.end_at(self.start + took);
            }
            took
        })
    }

    /// Ends a flush or compaction that completed and moved `bytes` bytes.
    pub fn finish(mut self, bytes: u64) {
        self.bytes = Some(bytes);
    }
}

impl Drop for Interval<'_> {
    fn drop(&mut self) {
        let t = self.telemetry;
        let s = &*t.stats;
        let dur_ns = dur_ns(self.stop());
        // One more interval of this length on a (time, count) pair.
        let add = |ns: &StripedCounter, count: &StripedCounter| {
            ns.fetch_add(dur_ns, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
        };
        let add_level = |ns: &AtomicU64, count: &AtomicU64| {
            ns.fetch_add(dur_ns, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
        };
        match self.what {
            Timed::Flush { .. } => {
                if let Some(bytes) = self.bytes {
                    add(&s.flush_ns, &s.flush_count);
                    s.flush_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
            Timed::Swizzle => {
                s.swizzle_ns.fetch_add(dur_ns, Ordering::Relaxed);
            }
            Timed::Compaction { level, kind } => {
                let m = t.levels.get(level);
                if let Some(m) = m {
                    m.pending_compactions.fetch_sub(1, Ordering::Relaxed);
                }
                if self.bytes.is_some() {
                    match kind {
                        CompactionKind::ZeroCopy => {
                            add(&s.zero_copy_compaction_ns, &s.zero_copy_compactions);
                            if let Some(m) = m {
                                add_level(&m.zero_copy_ns, &m.zero_copy_compactions);
                            }
                        }
                        CompactionKind::LazyCopy => {
                            add(&s.copy_compaction_ns, &s.copy_compactions);
                            if let Some(m) = m {
                                add_level(&m.lazy_copy_ns, &m.lazy_copy_compactions);
                            }
                        }
                    }
                }
            }
            Timed::Stall(StallKind::Interval) => {
                add(&s.interval_stall_ns, &s.interval_stall_count);
            }
            Timed::Stall(StallKind::Cumulative) => {
                add(&s.cumulative_stall_ns, &s.cumulative_stall_count);
            }
        }
    }
}

/// Saturating nanosecond count of a duration.
fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// All telemetry collectors for one engine instance.
pub struct EngineTelemetry {
    start: Instant,
    /// The engine's counters, shared with its device layer.
    stats: Arc<Stats>,
    /// `put` latency in nanoseconds.
    pub put_latency: Histogram,
    /// `get` latency in nanoseconds.
    pub get_latency: Histogram,
    /// `delete` latency in nanoseconds.
    pub delete_latency: Histogram,
    /// `scan` latency in nanoseconds.
    pub scan_latency: Histogram,
    /// Operations coalesced per committed write group (group-commit
    /// pipeline; single-writer engines never record here).
    pub write_group_size: Histogram,
    /// Writers currently enqueued on the commit queue (gauge).
    commit_queue_depth: AtomicU64,
    /// Span id of the flush currently running on this engine (0 when
    /// idle). Request-side rotation-stall spans read it to link the
    /// background flush they are waiting on.
    flush_span: AtomicU64,
    levels: Vec<LevelMetrics>,
}

impl std::fmt::Debug for EngineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTelemetry")
            .field("uptime", &self.uptime())
            .field("puts", &self.put_latency.count())
            .field("gets", &self.get_latency.count())
            .field("levels", &self.levels.len())
            .finish()
    }
}

impl EngineTelemetry {
    /// Creates telemetry for an engine with `num_levels` LSM levels whose
    /// counters live in `stats`.
    pub fn new(num_levels: usize, stats: Arc<Stats>) -> EngineTelemetry {
        EngineTelemetry {
            start: Instant::now(),
            stats,
            put_latency: Histogram::new(),
            get_latency: Histogram::new(),
            delete_latency: Histogram::new(),
            scan_latency: Histogram::new(),
            write_group_size: Histogram::new(),
            commit_queue_depth: AtomicU64::new(0),
            flush_span: AtomicU64::new(0),
            levels: (0..num_levels).map(|_| LevelMetrics::default()).collect(),
        }
    }

    /// Starts timing `what`: raises a compaction's pending gauge, opens the
    /// background trace span (a stall has none; the request path spans it)
    /// and, for a flush, publishes that span's id as
    /// [`flush_span`](Self::flush_span).
    pub fn begin(&self, what: Timed) -> Interval<'_> {
        let start = Instant::now();
        let open_span = |kind, arg| {
            let mut span = trace::bg_span_at(kind, start);
            span.annotate(arg);
            Some(span)
        };
        let span = match what {
            Timed::Flush { bytes } => {
                let span = open_span(SpanKind::Flush, bytes);
                self.flush_span
                    .store(span.as_ref().map_or(0, SpanGuard::id), Ordering::Relaxed);
                span
            }
            Timed::Swizzle => open_span(SpanKind::Swizzle, 0),
            Timed::Compaction { level, kind } => {
                if let Some(m) = self.levels.get(level) {
                    m.pending_compactions.fetch_add(1, Ordering::Relaxed);
                }
                // arg packs the level in the low half and the kind in the
                // high half (1 = zero-copy, 2 = lazy-copy).
                let kind_code: u64 = match kind {
                    CompactionKind::ZeroCopy => 1,
                    CompactionKind::LazyCopy => 2,
                };
                open_span(SpanKind::Compaction, level as u64 | (kind_code << 32))
            }
            Timed::Stall(_) => None,
        };
        Interval {
            telemetry: self,
            what,
            start,
            span,
            took: None,
            bytes: None,
        }
    }

    /// Sets the commit-queue depth gauge (writers currently enqueued).
    pub fn set_commit_queue_depth(&self, depth: u64) {
        self.commit_queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current commit-queue depth gauge value.
    pub fn commit_queue_depth(&self) -> u64 {
        self.commit_queue_depth.load(Ordering::Relaxed)
    }

    /// Clears [`flush_span`](Self::flush_span): the flushed MemTable is
    /// gone, so no writer can be waiting on that flush any more.
    pub fn clear_flush_span(&self) {
        self.flush_span.store(0, Ordering::Relaxed);
    }

    /// Span id of the in-progress flush, or 0 when none is running.
    pub fn flush_span(&self) -> u64 {
        self.flush_span.load(Ordering::Relaxed)
    }

    /// Time since the engine started.
    pub fn uptime(&self) -> Duration {
        self.start.elapsed()
    }

    /// Per-level metrics, top to bottom. The last entry covers the
    /// repository / bottommost storage when the engine has one.
    pub fn levels(&self) -> &[LevelMetrics] {
        &self.levels
    }

    /// Metrics for one level, if it exists.
    pub fn level(&self, i: usize) -> Option<&LevelMetrics> {
        self.levels.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(levels: usize) -> EngineTelemetry {
        EngineTelemetry::new(levels, Arc::new(Stats::new()))
    }

    #[test]
    fn flush_counts_its_bytes_and_duration() {
        let t = telemetry(2);
        let flush = t.begin(Timed::Flush { bytes: 100 });
        std::thread::sleep(Duration::from_millis(2));
        flush.finish(90);
        let s = t.stats.snapshot();
        assert_eq!((s.flush_count, s.flush_bytes), (1, 90));
        assert!(s.flush_ns >= 1_000_000, "flush_ns = {}", s.flush_ns);
    }

    #[test]
    fn compaction_updates_level_metrics_and_stats() {
        let t = telemetry(4);
        let mut merge = t.begin(Timed::Compaction {
            level: 1,
            kind: CompactionKind::ZeroCopy,
        });
        let m = t.level(1).unwrap();
        assert_eq!(m.pending_compactions.load(Ordering::Relaxed), 1);
        let took = merge.stop();
        std::thread::sleep(Duration::from_millis(2));
        merge.finish(4096);
        assert_eq!(m.pending_compactions.load(Ordering::Relaxed), 0);
        assert_eq!(m.zero_copy_compactions.load(Ordering::Relaxed), 1);
        // `stop` froze the duration; the sleep after it is not charged.
        assert_eq!(m.zero_copy_ns.load(Ordering::Relaxed), dur_ns(took));
        assert_eq!(m.lazy_copy_compactions.load(Ordering::Relaxed), 0);
        let s = t.stats.snapshot();
        assert_eq!(s.zero_copy_compactions, 1);
        assert_eq!(s.zero_copy_compaction_ns, dur_ns(took));
        assert_eq!(s.copy_compactions, 0);
    }

    #[test]
    fn abandoned_work_closes_its_interval_without_counting_as_done() {
        let t = telemetry(2);
        drop(t.begin(Timed::Compaction {
            level: 0,
            kind: CompactionKind::LazyCopy,
        }));
        drop(t.begin(Timed::Flush { bytes: 7 }));
        let m = t.level(0).unwrap();
        assert_eq!(m.pending_compactions.load(Ordering::Relaxed), 0);
        assert_eq!(m.lazy_copy_compactions.load(Ordering::Relaxed), 0);
        let s = t.stats.snapshot();
        assert_eq!(
            (s.copy_compactions, s.flush_count, s.flush_bytes),
            (0, 0, 0)
        );
    }

    #[test]
    fn stalls_and_swizzles_count_on_drop() {
        let t = telemetry(1);
        drop(t.begin(Timed::Stall(StallKind::Interval)));
        drop(t.begin(Timed::Stall(StallKind::Cumulative)));
        drop(t.begin(Timed::Stall(StallKind::Cumulative)));
        drop(t.begin(Timed::Swizzle));
        let s = t.stats.snapshot();
        assert_eq!(s.interval_stall_count, 1);
        assert_eq!(s.cumulative_stall_count, 2);
    }

    #[test]
    fn occupancy_gauges_update() {
        let t = telemetry(2);
        t.level(0).unwrap().set_occupancy(1 << 20, 3);
        assert_eq!(t.level(0).unwrap().bytes.load(Ordering::Relaxed), 1 << 20);
        assert_eq!(t.level(0).unwrap().tables.load(Ordering::Relaxed), 3);
        assert!(t.level(5).is_none());
    }
}
