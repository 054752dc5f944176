//! Structured engine event tracing.
//!
//! Engines emit typed [`Event`]s (flush begin/end, compaction begin/end,
//! stall begin/end, pointer swizzles, bloom skips) into a bounded
//! lock-free [`EventRing`]. Consumers drain the ring with
//! [`EventRing::drain`] to reconstruct what the engine did and when —
//! e.g. to overlay compaction activity on a latency timeline (Figure 8)
//! or to assert flush/compaction ordering in tests.
//!
//! The ring is a fixed-capacity MPMC queue ([`MpmcRing`], Vyukov
//! bounded-queue scheme: a per-slot sequence number arbitrates producers
//! and consumers without locks). When full, new events are **dropped**
//! and counted (saturating) — tracing must never block or stall the
//! engine it observes.

use crate::ring::MpmcRing;

/// Which compaction algorithm an event describes.
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

/// Which writer-blocking mechanism a stall event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Writers blocked waiting for the immutable MemTable to flush
    /// (paper: *interval stalls*).
    Interval,
    /// Writers delayed deliberately to pace ingest
    /// (paper: *cumulative stalls* / slowdowns).
    Cumulative,
}

/// A structured engine event. All payloads are scalar so events are `Copy`
/// and emission never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A MemTable flush started.
    FlushBegin {
        /// Bytes in the MemTable being flushed.
        bytes: u64,
    },
    /// A MemTable flush completed.
    FlushEnd {
        /// Bytes moved to the persistent layer.
        bytes: u64,
        /// Wall-clock duration of the flush in nanoseconds.
        dur_ns: u64,
    },
    /// A compaction from `level` to `level + 1` (or into the repository)
    /// started.
    CompactionBegin {
        /// Source level.
        level: u32,
        /// Algorithm used.
        kind: CompactionKind,
    },
    /// The matching compaction finished.
    CompactionEnd {
        /// Source level.
        level: u32,
        /// Algorithm used.
        kind: CompactionKind,
        /// Bytes logically merged (inputs).
        bytes: u64,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
    },
    /// Writers started blocking or being paced.
    StallBegin {
        /// Stall mechanism.
        kind: StallKind,
    },
    /// The matching stall released.
    StallEnd {
        /// Stall mechanism.
        kind: StallKind,
        /// Nanoseconds writers were held.
        dur_ns: u64,
    },
    /// A one-piece flush re-based skip-list pointers (§4.2).
    Swizzle {
        /// Nanoseconds spent swizzling.
        dur_ns: u64,
    },
}

/// A timestamped engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the engine's telemetry epoch (engine start).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Bounded lock-free MPMC ring buffer of [`Event`]s.
///
/// Producers never block: pushing into a full ring drops the event and
/// increments the saturating [`dropped`](MpmcRing::dropped) counter.
pub type EventRing = MpmcRing<Event>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            kind: EventKind::Swizzle { dur_ns: 0 },
        }
    }

    #[test]
    fn fifo_order_single_thread() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5 {
            assert!(ring.push(ev(i)));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 5);
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
        }
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = EventRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(ev(i)));
        }
        assert!(!ring.push(ev(99)));
        assert!(!ring.push(ev(100)));
        assert_eq!(ring.dropped(), 2);
        // The ring kept the oldest events, not the dropped ones.
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[0].ts_ns, 0);
        assert_eq!(drained[3].ts_ns, 3);
        // Space freed by draining accepts new events again.
        assert!(ring.push(ev(7)));
        assert_eq!(ring.drain()[0].ts_ns, 7);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(5).capacity(), 8);
        assert_eq!(EventRing::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 1024;
        let ring = Arc::new(EventRing::with_capacity(PRODUCERS * PER_PRODUCER));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert!(ring.push(ev((p * PER_PRODUCER + i) as u64)));
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), PRODUCERS * PER_PRODUCER);
        assert_eq!(ring.dropped(), 0);
        // Per-producer subsequences must appear in emission order.
        for p in 0..PRODUCERS {
            let lo = (p * PER_PRODUCER) as u64;
            let hi = lo + PER_PRODUCER as u64;
            let mine: Vec<u64> = drained
                .iter()
                .map(|e| e.ts_ns)
                .filter(|t| (lo..hi).contains(t))
                .collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {p} reordered"
            );
        }
    }
}
