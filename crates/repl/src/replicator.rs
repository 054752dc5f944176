//! Leader-side replication state: the log, subscriber ack tracking, the
//! configured ack level and follower-lag measurement.
//!
//! The engine publishes into the [`ReplicationLog`]; per-subscriber
//! server threads stream from it and feed acks back through
//! [`Replicator::record_ack`]. [`Replicator::wait_committed`] is the
//! blocking point for the stronger ack levels:
//!
//! - `semi-sync` parks a writer until *some* follower has acknowledged
//!   its last sequence number,
//! - `quorum` parks it until enough followers have that a majority of
//!   the whole group (leader included) holds the write.
//!
//! A timeout surfaces as [`Error::MaybeApplied`] — locally durable,
//! replication state unknown. Losing the quorum itself (too few live
//! subscribers to ever reach majority) surfaces as the typed
//! [`Error::QuorumLost`], never a silent downgrade. That asymmetry is
//! what keeps the durable-prefix oracle honest across failover: every
//! plain `Ok` PUT at quorum level is on a majority of the group and
//! survives any election that keeps a majority alive.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_common::{
    majority, AckLevel, Error, Histogram, MetricsRegistry, ReplicationSink, Result,
};
use parking_lot::{Condvar, Mutex};

use crate::log::{Fetched, ReplicationLog};

/// Leader-side replication tunables.
#[derive(Debug, Clone)]
pub struct ReplicatorOptions {
    /// When a PUT/DELETE/BATCH acknowledgement is released to the client.
    pub ack_level: AckLevel,
    /// Semi-sync/quorum patience: how long a writer waits for acks
    /// before surfacing `MaybeApplied`.
    pub semi_sync_timeout: Duration,
    /// Replication-log retention budget; followers that fall further
    /// behind than this must catch up from a snapshot.
    pub retain_bytes: usize,
    /// Total replication group size, leader included. `quorum` ack level
    /// waits for `majority(group_size) - 1` follower acks.
    pub group_size: usize,
}

impl Default for ReplicatorOptions {
    fn default() -> ReplicatorOptions {
        ReplicatorOptions {
            ack_level: AckLevel::Async,
            semi_sync_timeout: Duration::from_secs(1),
            retain_bytes: 64 << 20,
            group_size: 2,
        }
    }
}

#[derive(Debug)]
struct SubState {
    /// Highest contiguously applied offset this subscriber has acked.
    acked: u64,
    /// When its last ack (including heartbeat acks) arrived.
    last_ack: Instant,
}

#[derive(Debug, Default)]
struct AckState {
    /// Per-subscriber ack state, keyed by registration id.
    subscribers: HashMap<u64, SubState>,
    /// Highest offset acked by *any* subscriber, ever (what semi-sync
    /// waits on; survives deregistration — applied records don't
    /// un-apply).
    max_acked: u64,
    /// Publish timestamps awaiting their first ack, oldest first, for the
    /// follower-lag histogram.
    pending: VecDeque<(u64, Instant)>,
}

impl AckState {
    /// The `k`-th highest live subscriber cursor (1-based), or 0 when
    /// fewer than `k` subscribers are connected. With `k = majority - 1`
    /// this is the quorum-durable frontier: that many followers plus the
    /// leader hold everything at or below it.
    fn kth_highest(&self, k: usize) -> u64 {
        if k == 0 {
            return u64::MAX;
        }
        if self.subscribers.len() < k {
            return 0;
        }
        let mut cursors: Vec<u64> = self.subscribers.values().map(|s| s.acked).collect();
        cursors.sort_unstable_by(|a, b| b.cmp(a));
        cursors[k - 1]
    }
}

/// Leader-side replication hub. One per node; shared with every
/// subscriber-serving thread. Quiescent on followers (no publishes) and
/// activated wholesale when the node wins an election.
pub struct Replicator {
    log: Arc<ReplicationLog>,
    acks: Mutex<AckState>,
    ack_cv: Condvar,
    opts: ReplicatorOptions,
    /// Publish-to-first-ack latency in nanoseconds.
    lag: Histogram,
    next_subscriber: AtomicU64,
    /// Sequences `<= base` predate this node's leadership: they were
    /// applied via replication (or recovery), never published into the
    /// log. A subscriber behind `base` must snapshot-catch-up, because
    /// the log cannot prove it holds the prefix.
    base: AtomicU64,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("ack_level", &self.opts.ack_level)
            .field("group_size", &self.opts.group_size)
            .field("max_acked", &self.max_acked())
            .finish()
    }
}

impl Replicator {
    /// Creates the hub with an empty log.
    pub fn new(opts: ReplicatorOptions) -> Arc<Replicator> {
        Arc::new(Replicator {
            log: Arc::new(ReplicationLog::new(opts.retain_bytes)),
            acks: Mutex::new(AckState::default()),
            ack_cv: Condvar::new(),
            opts,
            lag: Histogram::new(),
            next_subscriber: AtomicU64::new(1),
            base: AtomicU64::new(0),
        })
    }

    /// The shared record log subscriber threads stream from.
    pub fn log(&self) -> &Arc<ReplicationLog> {
        &self.log
    }

    /// The configured ack level.
    pub fn ack_level(&self) -> AckLevel {
        self.opts.ack_level
    }

    /// Total group size (leader included) used for quorum math.
    pub fn group_size(&self) -> usize {
        self.opts.group_size
    }

    /// Marks everything `<= seq` as predating this node's leadership
    /// (called at promotion with the engine's `last_sequence`).
    pub fn set_base(&self, seq: u64) {
        self.base.store(seq, Ordering::SeqCst);
    }

    /// `(log_start, last)` as a subscriber should see them: the log's
    /// bounds clamped so nothing below the leadership base looks
    /// streamable.
    pub fn subscribe_bounds(&self) -> (u64, u64) {
        let (start, last) = self.log.bounds();
        let base = self.base.load(Ordering::SeqCst);
        (start.max(base + 1), last.max(base))
    }

    /// Fetches entries past `after` for a subscriber, honoring the
    /// leadership base: a cursor below it is reported as truncated (the
    /// log never held those records on this node).
    pub fn fetch_after(&self, after: u64, max_bytes: usize, timeout: Duration) -> Fetched {
        if after < self.base.load(Ordering::SeqCst) {
            return Fetched {
                entries: Vec::new(),
                truncated: true,
            };
        }
        self.log.fetch_after(after, max_bytes, timeout)
    }

    /// Registers a subscriber; the returned id keys its acks until
    /// [`Replicator::deregister_subscriber`].
    pub fn register_subscriber(&self) -> u64 {
        let id = self.next_subscriber.fetch_add(1, Ordering::Relaxed);
        self.acks.lock().subscribers.insert(
            id,
            SubState {
                acked: 0,
                last_ack: Instant::now(),
            },
        );
        id
    }

    /// Forgets a disconnected (or detector-declared-dead) subscriber. It
    /// leaves the quorum set immediately; its past acks still count
    /// toward `max_acked` (applied records don't un-apply), and quorum
    /// writers blocked on it are woken to re-evaluate — possibly into
    /// `QuorumLost`.
    pub fn deregister_subscriber(&self, id: u64) {
        self.acks.lock().subscribers.remove(&id);
        self.ack_cv.notify_all();
    }

    /// Records that subscriber `id` has applied everything `<= offset`,
    /// waking blocked writers, charging the lag histogram and eagerly
    /// truncating the log to the minimum durable cursor.
    pub fn record_ack(&self, id: u64, offset: u64) {
        let now = Instant::now();
        let mut s = self.acks.lock();
        if let Some(sub) = s.subscribers.get_mut(&id) {
            sub.acked = sub.acked.max(offset);
            sub.last_ack = now;
        }
        if offset > s.max_acked {
            s.max_acked = offset;
            while s.pending.front().is_some_and(|&(seq, _)| seq <= offset) {
                // Invariant: front exists, just checked.
                let (_, published) = s.pending.pop_front().unwrap();
                self.lag
                    .record(now.duration_since(published).as_nanos() as u64);
            }
        }
        // Everything at or below every live subscriber's cursor is
        // durably replicated everywhere it needs to be; drop it from
        // retention (the byte budget stays as the hard bound while any
        // subscriber lags or none is connected).
        let floor = s.subscribers.values().map(|s| s.acked).min();
        drop(s);
        if let Some(floor) = floor {
            if floor > 0 {
                self.log.truncate_below(floor);
            }
        }
        self.ack_cv.notify_all();
    }

    /// Number of currently connected subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.acks.lock().subscribers.len()
    }

    /// How long subscriber `id` has been silent (no ack, not even a
    /// heartbeat ack), or `None` when it is not registered. Feeds the
    /// leader's follower failure detector.
    pub fn ack_silent_for(&self, id: u64) -> Option<Duration> {
        self.acks
            .lock()
            .subscribers
            .get(&id)
            .map(|s| s.last_ack.elapsed())
    }

    /// Highest offset acked by any subscriber.
    pub fn max_acked(&self) -> u64 {
        self.acks.lock().max_acked
    }

    /// The quorum-durable frontier: the highest sequence number held by
    /// a majority of the group (leader included). `u64::MAX` when the
    /// group is so small the leader alone is a majority.
    pub fn quorum_acked(&self) -> u64 {
        let need = majority(self.opts.group_size).saturating_sub(1);
        self.acks.lock().kth_highest(need)
    }

    /// Whether enough subscribers are connected that a quorum ack is
    /// *possible* (leader counts toward the majority).
    pub fn quorum_available(&self) -> bool {
        let need = majority(self.opts.group_size).saturating_sub(1);
        self.acks.lock().subscribers.len() >= need
    }

    /// Admission check run by the server *before* a mutation enters the
    /// engine: at quorum ack level with a majority unreachable, refuse
    /// typed instead of accepting a write that could never quorum-ack.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QuorumLost`] when too few followers are
    /// connected for a majority; the mutation was not applied.
    pub fn admit_write(&self) -> Result<()> {
        if self.opts.ack_level != AckLevel::Quorum {
            return Ok(());
        }
        let have = self.subscriber_count() + 1;
        let need = majority(self.opts.group_size);
        if have < need {
            return Err(Error::QuorumLost { have, need });
        }
        Ok(())
    }

    /// Per-subscriber replication lag in records: `(id, last_seq -
    /// acked)` for every connected subscriber.
    pub fn subscriber_lags(&self) -> Vec<(u64, u64)> {
        let last = self.log.last_seq().max(self.base.load(Ordering::SeqCst));
        let s = self.acks.lock();
        let mut lags: Vec<(u64, u64)> = s
            .subscribers
            .iter()
            .map(|(&id, sub)| (id, last.saturating_sub(sub.acked)))
            .collect();
        lags.sort_unstable();
        lags
    }

    /// Snapshot of the publish-to-first-ack lag distribution (ns).
    pub fn lag_histogram(&self) -> Histogram {
        self.lag.snapshot()
    }

    /// Registers the replication gauges — log bytes, subscriber count,
    /// quorum availability and per-follower lag — into `reg`.
    pub fn register(&self, reg: &mut MetricsRegistry) {
        reg.gauge(
            "miodb_repl_log_bytes",
            "Bytes retained in the replication log.",
            &[],
            self.log.bytes() as f64,
        );
        reg.gauge(
            "miodb_repl_log_last_seq",
            "Last sequence number published to the replication log.",
            &[],
            self.log.last_seq() as f64,
        );
        reg.gauge(
            "miodb_repl_subscribers",
            "Followers currently subscribed.",
            &[],
            self.subscriber_count() as f64,
        );
        reg.gauge(
            "miodb_repl_quorum_available",
            "1 while enough followers are subscribed for a quorum ack.",
            &[],
            f64::from(u8::from(self.quorum_available())),
        );
        for (id, lag) in self.subscriber_lags() {
            reg.gauge(
                "miodb_repl_lag_records",
                "Records published but not yet acked, per follower.",
                &[("follower", &id.to_string())],
                lag as f64,
            );
        }
    }
}

impl ReplicationSink for Replicator {
    fn publish(&self, bytes: &[u8], seq_first: u64, seq_last: u64) {
        // Stamp before the log publish so a racing instant ack can never
        // observe a missing pending entry.
        self.acks
            .lock()
            .pending
            .push_back((seq_last, Instant::now()));
        self.log.publish(bytes, seq_first, seq_last);
    }

    fn wait_committed(&self, seq_last: u64) -> Result<()> {
        let need_acks = match self.opts.ack_level {
            AckLevel::Async => return Ok(()),
            AckLevel::SemiSync => 1,
            AckLevel::Quorum => majority(self.opts.group_size).saturating_sub(1),
        };
        if need_acks == 0 {
            return Ok(()); // a one-node group: the leader is the majority
        }
        let deadline = Instant::now() + self.opts.semi_sync_timeout;
        let mut s = self.acks.lock();
        loop {
            let acked = match self.opts.ack_level {
                AckLevel::SemiSync => s.max_acked,
                _ => s.kth_highest(need_acks),
            };
            if acked >= seq_last {
                return Ok(());
            }
            // Quorum can become *impossible*, not just slow: with fewer
            // live subscribers than needed acks, waiting out the timeout
            // would mislabel a structural outage as ambiguity. The write
            // is locally durable but not quorum-replicated.
            if self.opts.ack_level == AckLevel::Quorum && s.subscribers.len() < need_acks {
                return Err(Error::QuorumLost {
                    have: s.subscribers.len() + 1,
                    need: majority(self.opts.group_size),
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::MaybeApplied(format!(
                    "{} replication ack timeout at seq {seq_last} (acked {acked})",
                    self.opts.ack_level.label()
                )));
            }
            self.ack_cv.wait_for(&mut s, deadline - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_level(level: AckLevel, group_size: usize, timeout_ms: u64) -> Arc<Replicator> {
        Replicator::new(ReplicatorOptions {
            ack_level: level,
            semi_sync_timeout: Duration::from_millis(timeout_ms),
            group_size,
            ..ReplicatorOptions::default()
        })
    }

    fn semi_sync(timeout_ms: u64) -> Arc<Replicator> {
        with_level(AckLevel::SemiSync, 2, timeout_ms)
    }

    #[test]
    fn async_never_blocks() {
        let r = Replicator::new(ReplicatorOptions::default());
        r.publish(&[1], 1, 1);
        assert!(r.wait_committed(1).is_ok());
    }

    #[test]
    fn semi_sync_timeout_is_maybe_applied() {
        let r = semi_sync(10);
        r.publish(&[1], 1, 1);
        let err = r.wait_committed(1).unwrap_err();
        assert!(err.is_maybe_applied(), "{err}");
    }

    #[test]
    fn semi_sync_released_by_ack() {
        let r = semi_sync(5_000);
        r.publish(&[1], 1, 3);
        let id = r.register_subscriber();
        let r2 = r.clone();
        let t = std::thread::spawn(move || r2.wait_committed(3));
        std::thread::sleep(Duration::from_millis(10));
        r.record_ack(id, 3);
        assert!(t.join().unwrap().is_ok());
        assert_eq!(r.max_acked(), 3);
        assert_eq!(r.lag_histogram().count(), 1);
    }

    #[test]
    fn acks_are_monotonic_per_subscriber() {
        let r = semi_sync(10);
        let id = r.register_subscriber();
        r.record_ack(id, 5);
        r.record_ack(id, 3); // stale ack must not regress
        assert_eq!(r.max_acked(), 5);
        r.deregister_subscriber(id);
        assert_eq!(r.subscriber_count(), 0);
        assert_eq!(r.max_acked(), 5, "applied records don't un-apply");
    }

    #[test]
    fn quorum_waits_for_majority_not_fastest() {
        // Group of 3: majority 2 = leader + 1 follower ack.
        let r = with_level(AckLevel::Quorum, 3, 5_000);
        let a = r.register_subscriber();
        let _b = r.register_subscriber();
        r.publish(&[1], 1, 4);
        let r2 = r.clone();
        let t = std::thread::spawn(move || r2.wait_committed(4));
        std::thread::sleep(Duration::from_millis(10));
        r.record_ack(a, 4);
        assert!(t.join().unwrap().is_ok());
        assert_eq!(r.quorum_acked(), 4);

        // Group of 5: majority 3 = 2 follower acks; one is not enough.
        let r = with_level(AckLevel::Quorum, 5, 20);
        let a = r.register_subscriber();
        let _b = r.register_subscriber();
        r.publish(&[1], 1, 1);
        r.record_ack(a, 1);
        let err = r.wait_committed(1).unwrap_err();
        assert!(err.is_maybe_applied(), "{err}");
    }

    #[test]
    fn quorum_without_majority_is_typed_quorum_lost() {
        let r = with_level(AckLevel::Quorum, 3, 5_000);
        assert!(!r.quorum_available());
        let err = r.admit_write().unwrap_err();
        assert!(err.is_quorum_lost(), "{err}");
        r.publish(&[1], 1, 1);
        let err = r.wait_committed(1).unwrap_err();
        assert!(err.is_quorum_lost(), "{err}");

        // A subscriber joining restores availability...
        let id = r.register_subscriber();
        assert!(r.quorum_available());
        assert!(r.admit_write().is_ok());
        // ...and a blocked writer collapses to QuorumLost when the last
        // quorum-relevant follower dies mid-wait.
        r.publish(&[2], 2, 2);
        let r2 = r.clone();
        let t = std::thread::spawn(move || r2.wait_committed(2));
        std::thread::sleep(Duration::from_millis(10));
        r.deregister_subscriber(id);
        let err = t.join().unwrap().unwrap_err();
        assert!(err.is_quorum_lost(), "{err}");
    }

    #[test]
    fn ack_floor_truncates_log_eagerly() {
        let r = with_level(AckLevel::Quorum, 3, 100);
        let a = r.register_subscriber();
        let b = r.register_subscriber();
        r.publish(&[0u8; 8], 1, 1);
        r.publish(&[0u8; 8], 2, 2);
        r.publish(&[0u8; 8], 3, 3);
        // Fast follower alone must not truncate past the slow one.
        r.record_ack(a, 3);
        assert_eq!(r.log().bounds().0, 1, "slow follower still needs seq 1");
        r.record_ack(b, 2);
        assert_eq!(r.log().bounds().0, 3, "min durable cursor is 2");
        assert_eq!(r.subscriber_lags(), vec![(a, 0), (b, 1)]);
    }

    #[test]
    fn base_fences_pre_leadership_sequences() {
        let r = semi_sync(10);
        r.set_base(100);
        assert_eq!(r.subscribe_bounds(), (101, 100));
        // A subscriber behind the base cannot stream: those records were
        // never in this node's log.
        let f = r.fetch_after(40, usize::MAX, Duration::from_millis(1));
        assert!(f.truncated);
        // One exactly at the base streams the new tail.
        r.publish(&[1], 101, 101);
        let f = r.fetch_after(100, usize::MAX, Duration::from_millis(50));
        assert!(!f.truncated);
        assert_eq!(f.entries.len(), 1);
    }

    #[test]
    fn prometheus_exposition_has_lag_and_log_gauges() {
        let r = with_level(AckLevel::Quorum, 3, 100);
        let id = r.register_subscriber();
        r.publish(&[0u8; 16], 1, 2);
        let mut reg = MetricsRegistry::new();
        r.register(&mut reg);
        let text = reg.render_prometheus();
        assert!(text.contains("miodb_repl_log_bytes 16"), "{text}");
        assert!(
            text.contains(&format!("miodb_repl_lag_records{{follower=\"{id}\"}} 2")),
            "{text}"
        );
        assert!(text.contains("miodb_repl_quorum_available 1"), "{text}");
    }
}
