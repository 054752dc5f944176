//! Engine-side telemetry: operation histograms, per-level metrics, the
//! structured event trace and the one way to report a timed background
//! interval, bundled as [`EngineTelemetry`].
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
//! [`LevelMetrics`], the event ring and the [`trace`] span from that one
//! duration — so a `*Begin` event without its `*End`, or a pending gauge
//! that never comes back down, cannot be written.

use crate::conc_histogram::ConcurrentHistogram;
use crate::events::{CompactionKind, Event, EventKind, EventRing, StallKind};
use crate::stats::Stats;
use crate::trace::{self, SpanGuard, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of every engine's structured event ring.
const EVENT_CAPACITY: usize = 4096;

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
/// Dropping it ends the interval: the matching `*End` event is emitted, the
/// trace span closes and the level's pending gauge comes back down, always.
/// A stall or swizzle is also counted into [`Stats`] on drop; a flush or
/// compaction counts as completed work only if [`finish`](Interval::finish)
/// ran — dropped on an error path it leaves the completed-work counters
/// alone and its `*End` event carries 0 bytes.
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
        let bytes = self.bytes.unwrap_or(0);
        // One more interval of this length on a (time, count) pair.
        let add = |ns: &AtomicU64, count: &AtomicU64| {
            ns.fetch_add(dur_ns, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
        };
        let end = match self.what {
            Timed::Flush { .. } => {
                if self.bytes.is_some() {
                    add(&s.flush_ns, &s.flush_count);
                    s.flush_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                EventKind::FlushEnd { bytes, dur_ns }
            }
            Timed::Swizzle => {
                s.swizzle_ns.fetch_add(dur_ns, Ordering::Relaxed);
                EventKind::Swizzle { dur_ns }
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
                                add(&m.zero_copy_ns, &m.zero_copy_compactions);
                            }
                        }
                        CompactionKind::LazyCopy => {
                            add(&s.copy_compaction_ns, &s.copy_compactions);
                            if let Some(m) = m {
                                add(&m.lazy_copy_ns, &m.lazy_copy_compactions);
                            }
                        }
                    }
                }
                let level = level as u32;
                EventKind::CompactionEnd {
                    level,
                    kind,
                    bytes,
                    dur_ns,
                }
            }
            Timed::Stall(kind) => {
                match kind {
                    StallKind::Interval => add(&s.interval_stall_ns, &s.interval_stall_count),
                    StallKind::Cumulative => add(&s.cumulative_stall_ns, &s.cumulative_stall_count),
                }
                EventKind::StallEnd { kind, dur_ns }
            }
        };
        t.emit(end);
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
    pub put_latency: ConcurrentHistogram,
    /// `get` latency in nanoseconds.
    pub get_latency: ConcurrentHistogram,
    /// `delete` latency in nanoseconds.
    pub delete_latency: ConcurrentHistogram,
    /// `scan` latency in nanoseconds.
    pub scan_latency: ConcurrentHistogram,
    /// Operations coalesced per committed write group (group-commit
    /// pipeline; single-writer engines never record here).
    pub write_group_size: ConcurrentHistogram,
    /// Writers currently enqueued on the commit queue (gauge).
    commit_queue_depth: AtomicU64,
    /// Span id of the flush currently running on this engine (0 when
    /// idle). Request-side rotation-stall spans read it to link the
    /// background flush they are waiting on.
    flush_span: AtomicU64,
    levels: Vec<LevelMetrics>,
    events: EventRing,
}

impl std::fmt::Debug for EngineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTelemetry")
            .field("uptime", &self.uptime())
            .field("puts", &self.put_latency.count())
            .field("gets", &self.get_latency.count())
            .field("levels", &self.levels.len())
            .field("events", &self.events)
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
            put_latency: ConcurrentHistogram::new(),
            get_latency: ConcurrentHistogram::new(),
            delete_latency: ConcurrentHistogram::new(),
            scan_latency: ConcurrentHistogram::new(),
            write_group_size: ConcurrentHistogram::new(),
            commit_queue_depth: AtomicU64::new(0),
            flush_span: AtomicU64::new(0),
            levels: (0..num_levels).map(|_| LevelMetrics::default()).collect(),
            events: EventRing::with_capacity(EVENT_CAPACITY),
        }
    }

    /// Starts timing `what`: emits its `*Begin` event (a swizzle has
    /// none), raises a compaction's pending gauge, opens the background
    /// trace span (a stall has none; the request path spans it) and, for a
    /// flush, publishes that span's id as [`flush_span`](Self::flush_span).
    pub fn begin(&self, what: Timed) -> Interval<'_> {
        let start = Instant::now();
        let open_span = |kind, arg| {
            let mut span = trace::bg_span_at(kind, start);
            span.annotate(arg);
            Some(span)
        };
        let span = match what {
            Timed::Flush { bytes } => {
                self.emit(EventKind::FlushBegin { bytes });
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
                self.emit(EventKind::CompactionBegin {
                    level: level as u32,
                    kind,
                });
                // arg packs the level in the low half and the kind in the
                // high half (1 = zero-copy, 2 = lazy-copy).
                let kind_code: u64 = match kind {
                    CompactionKind::ZeroCopy => 1,
                    CompactionKind::LazyCopy => 2,
                };
                open_span(SpanKind::Compaction, level as u64 | (kind_code << 32))
            }
            Timed::Stall(kind) => {
                self.emit(EventKind::StallBegin { kind });
                None
            }
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

    /// Queues a structured event, stamped with nanoseconds since engine
    /// start. A full ring drops the event — never blocks.
    fn emit(&self, kind: EventKind) {
        self.events.push(Event {
            ts_ns: dur_ns(self.start.elapsed()),
            kind,
        });
    }

    /// Drains all queued events in FIFO order.
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain()
    }

    /// Events discarded because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(levels: usize) -> EngineTelemetry {
        EngineTelemetry::new(levels, Arc::new(Stats::new()))
    }

    #[test]
    fn flush_feeds_stats_and_events_from_one_duration() {
        let t = telemetry(2);
        let flush = t.begin(Timed::Flush { bytes: 100 });
        std::thread::sleep(Duration::from_millis(2));
        flush.finish(90);
        let events = t.drain_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert_eq!(events[0].kind, EventKind::FlushBegin { bytes: 100 });
        let EventKind::FlushEnd { bytes: 90, dur_ns } = events[1].kind else {
            panic!("{:?}", events[1]);
        };
        assert!(dur_ns >= 1_000_000);
        let s = t.stats.snapshot();
        assert_eq!((s.flush_count, s.flush_bytes, s.flush_ns), (1, 90, dur_ns));
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
        assert_eq!(t.drain_events().len(), 2);
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
        assert_eq!((s.copy_compactions, s.flush_count), (0, 0));
        let kinds: Vec<EventKind> = t.drain_events().iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds[..],
            [
                EventKind::CompactionBegin { level: 0, .. },
                EventKind::CompactionEnd {
                    level: 0,
                    bytes: 0,
                    ..
                },
                EventKind::FlushBegin { bytes: 7 },
                EventKind::FlushEnd { bytes: 0, .. },
            ]
        ));
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
        // Begin + End per stall, one event per swizzle.
        assert_eq!(t.drain_events().len(), 7);
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
