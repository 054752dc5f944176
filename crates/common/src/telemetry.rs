//! Engine-side telemetry: operation histograms, per-level metrics and the
//! structured event trace, bundled as [`EngineTelemetry`].
//!
//! Every engine owns one [`EngineTelemetry`] and exposes it through
//! [`KvEngine::telemetry`](crate::KvEngine::telemetry); the provided
//! [`KvEngine::metrics_text`](crate::KvEngine::metrics_text) /
//! [`KvEngine::metrics_json`](crate::KvEngine::metrics_json) methods render
//! it together with the engine's [`EngineReport`](crate::EngineReport), so
//! benchmarks and tests get identical observability from MioDB and every
//! baseline.

use crate::conc_histogram::ConcurrentHistogram;
use crate::events::{CompactionKind, Event, EventKind, EventRing, StallKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Telemetry configuration, carried inside each engine's options struct.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Record per-operation latency histograms (two relaxed atomic adds per
    /// operation when on).
    pub histograms: bool,
    /// Capacity of the structured event ring (rounded up to a power of
    /// two). `0` disables event tracing entirely.
    pub event_capacity: usize,
}

impl Default for TelemetryOptions {
    fn default() -> TelemetryOptions {
        TelemetryOptions {
            histograms: true,
            event_capacity: 4096,
        }
    }
}

impl TelemetryOptions {
    /// Configuration with every collector disabled (zero overhead beyond
    /// one predictable branch per operation).
    pub fn disabled() -> TelemetryOptions {
        TelemetryOptions {
            histograms: false,
            event_capacity: 0,
        }
    }
}

/// Live gauges and counters for one LSM level.
///
/// Gauges (`bytes`, `tables`, `pending_compactions`) are set by the engine
/// at structural transitions (flush publish, merge publish, drain);
/// compaction counters accumulate forever.
#[derive(Debug, Default)]
pub struct LevelMetrics {
    /// Bytes resident in this level.
    pub bytes: AtomicU64,
    /// Number of tables/runs in this level.
    pub tables: AtomicU64,
    /// Compactions out of this level currently queued or running.
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

    /// Marks one compaction out of this level as queued/running.
    pub fn compaction_started(&self) {
        self.pending_compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one compaction as finished and accumulates its cost.
    pub fn compaction_finished(&self, kind: CompactionKind, dur: Duration) {
        let prev = self.pending_compactions.load(Ordering::Relaxed);
        if prev > 0 {
            self.pending_compactions.fetch_sub(1, Ordering::Relaxed);
        }
        let ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        match kind {
            CompactionKind::ZeroCopy => {
                self.zero_copy_compactions.fetch_add(1, Ordering::Relaxed);
                self.zero_copy_ns.fetch_add(ns, Ordering::Relaxed);
            }
            CompactionKind::LazyCopy => {
                self.lazy_copy_compactions.fetch_add(1, Ordering::Relaxed);
                self.lazy_copy_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
    }
}

/// All telemetry collectors for one engine instance.
pub struct EngineTelemetry {
    start: Instant,
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
    events: Option<EventRing>,
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
    /// Creates telemetry for an engine with `num_levels` LSM levels.
    pub fn new(num_levels: usize, opts: &TelemetryOptions) -> EngineTelemetry {
        let t = EngineTelemetry {
            start: Instant::now(),
            put_latency: ConcurrentHistogram::new(),
            get_latency: ConcurrentHistogram::new(),
            delete_latency: ConcurrentHistogram::new(),
            scan_latency: ConcurrentHistogram::new(),
            write_group_size: ConcurrentHistogram::new(),
            commit_queue_depth: AtomicU64::new(0),
            flush_span: AtomicU64::new(0),
            levels: (0..num_levels).map(|_| LevelMetrics::default()).collect(),
            events: (opts.event_capacity > 0)
                .then(|| EventRing::with_capacity(opts.event_capacity)),
        };
        for h in [
            &t.put_latency,
            &t.get_latency,
            &t.delete_latency,
            &t.scan_latency,
            &t.write_group_size,
        ] {
            h.set_enabled(opts.histograms);
        }
        t
    }

    /// Sets the commit-queue depth gauge (writers currently enqueued).
    pub fn set_commit_queue_depth(&self, depth: u64) {
        self.commit_queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current commit-queue depth gauge value.
    pub fn commit_queue_depth(&self) -> u64 {
        self.commit_queue_depth.load(Ordering::Relaxed)
    }

    /// Publishes (or clears, with 0) the span id of the flush currently
    /// running on this engine.
    pub fn set_flush_span(&self, span_id: u64) {
        self.flush_span.store(span_id, Ordering::Relaxed);
    }

    /// Span id of the in-progress flush, or 0 when none is running.
    pub fn flush_span(&self) -> u64 {
        self.flush_span.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this engine's telemetry epoch (engine start).
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
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

    /// Emits a structured event (no-op when tracing is disabled; drops the
    /// event when the ring is full — never blocks).
    pub fn emit(&self, kind: EventKind) {
        if let Some(ring) = &self.events {
            ring.push(Event {
                ts_ns: self.now_ns(),
                kind,
            });
        }
    }

    /// Emits [`EventKind::FlushBegin`].
    pub fn flush_begin(&self, bytes: u64) {
        self.emit(EventKind::FlushBegin { bytes });
    }

    /// Emits [`EventKind::FlushEnd`].
    pub fn flush_end(&self, bytes: u64, dur: Duration) {
        self.emit(EventKind::FlushEnd {
            bytes,
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
        });
    }

    /// Emits [`EventKind::CompactionBegin`] and bumps the level's pending
    /// gauge.
    pub fn compaction_begin(&self, level: usize, kind: CompactionKind) {
        if let Some(m) = self.levels.get(level) {
            m.compaction_started();
        }
        self.emit(EventKind::CompactionBegin {
            level: level as u32,
            kind,
        });
    }

    /// Emits [`EventKind::CompactionEnd`] and accumulates per-level cost.
    pub fn compaction_end(&self, level: usize, kind: CompactionKind, bytes: u64, dur: Duration) {
        if let Some(m) = self.levels.get(level) {
            m.compaction_finished(kind, dur);
        }
        self.emit(EventKind::CompactionEnd {
            level: level as u32,
            kind,
            bytes,
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
        });
    }

    /// Emits [`EventKind::StallBegin`].
    pub fn stall_begin(&self, kind: StallKind) {
        self.emit(EventKind::StallBegin { kind });
    }

    /// Emits [`EventKind::StallEnd`].
    pub fn stall_end(&self, kind: StallKind, dur: Duration) {
        self.emit(EventKind::StallEnd {
            kind,
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
        });
    }

    /// Emits [`EventKind::Swizzle`].
    pub fn swizzle(&self, dur: Duration) {
        self.emit(EventKind::Swizzle {
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
        });
    }

    /// Drains all queued events in FIFO order.
    pub fn drain_events(&self) -> Vec<Event> {
        self.events
            .as_ref()
            .map(EventRing::drain)
            .unwrap_or_default()
    }

    /// Events discarded because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events.as_ref().map_or(0, EventRing::dropped)
    }

    /// Clears the four operation histograms (phase boundary helper: lets a
    /// benchmark separate load-phase from run-phase latencies).
    pub fn reset_op_histograms(&self) {
        for h in [
            &self.put_latency,
            &self.get_latency,
            &self.delete_latency,
            &self.scan_latency,
        ] {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_options_record_nothing() {
        let t = EngineTelemetry::new(3, &TelemetryOptions::disabled());
        t.put_latency.record(100);
        t.flush_begin(10);
        assert_eq!(t.put_latency.snapshot().count(), 0);
        assert!(t.drain_events().is_empty());
        assert_eq!(t.events_dropped(), 0);
    }

    #[test]
    fn events_carry_monotonic_timestamps() {
        let t = EngineTelemetry::new(2, &TelemetryOptions::default());
        t.flush_begin(100);
        std::thread::sleep(Duration::from_millis(2));
        t.flush_end(100, Duration::from_millis(2));
        let events = t.drain_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert!(matches!(
            events[0].kind,
            EventKind::FlushBegin { bytes: 100 }
        ));
        assert!(
            matches!(events[1].kind, EventKind::FlushEnd { bytes: 100, dur_ns } if dur_ns >= 1_000_000)
        );
    }

    #[test]
    fn compaction_updates_level_metrics() {
        let t = EngineTelemetry::new(4, &TelemetryOptions::default());
        t.compaction_begin(1, CompactionKind::ZeroCopy);
        let m = t.level(1).unwrap();
        assert_eq!(m.pending_compactions.load(Ordering::Relaxed), 1);
        t.compaction_end(1, CompactionKind::ZeroCopy, 4096, Duration::from_micros(50));
        assert_eq!(m.pending_compactions.load(Ordering::Relaxed), 0);
        assert_eq!(m.zero_copy_compactions.load(Ordering::Relaxed), 1);
        assert!(m.zero_copy_ns.load(Ordering::Relaxed) >= 50_000);
        assert_eq!(m.lazy_copy_compactions.load(Ordering::Relaxed), 0);
        let events = t.drain_events();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn occupancy_gauges_update() {
        let t = EngineTelemetry::new(2, &TelemetryOptions::default());
        t.level(0).unwrap().set_occupancy(1 << 20, 3);
        assert_eq!(t.level(0).unwrap().bytes.load(Ordering::Relaxed), 1 << 20);
        assert_eq!(t.level(0).unwrap().tables.load(Ordering::Relaxed), 3);
        assert!(t.level(5).is_none());
    }
}
