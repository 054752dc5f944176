//! The follower: a background apply loop that subscribes to a leader,
//! replays shipped WAL records into its own engine and acknowledges a
//! monotonic applied offset.
//!
//! Lifecycle:
//!
//! - [`Follower::start`] spawns the apply thread. It connects with
//!   exponential backoff, subscribes from the engine's `last_sequence`
//!   (everything below it is already applied and locally durable), and
//!   streams. A dropped connection resumes from the applied offset — the
//!   leader's log covers it unless retention truncated past it, in which
//!   case the loop ends in [`FollowerState::NeedsSnapshot`] and the
//!   follower must be rebuilt via [`bootstrap_from_leader`] (the
//!   self-healing node supervisor does this itself).
//! - Every received frame — records or empty heartbeat — is acked with
//!   the applied offset *and the follower's epoch*, so acks double as
//!   follower → leader heartbeats and as the fencing channel that tells
//!   a stale leader it was deposed.
//! - A leader quiet past `leader_dead_timeout` (no bytes — a partial
//!   frame counts — or unreachable across reconnects) ends the loop in
//!   [`FollowerState::LeaderDead`]; the supervisor reacts by running an
//!   election.
//! - [`Follower::promote`] is failover: drain whatever the dying leader
//!   still has buffered in flight, stop the loop, and hand back the
//!   final applied offset. The caller then flips its server role to
//!   leader and starts taking writes — sequence allocation continues
//!   from the applied offset because [`MioDb::apply_replicated`] advances
//!   the engine's sequence counter as it replays.
//!
//! Records pass through the normal MemTable insert path, including the
//! follower's **own** WAL append: a follower crash right after an ack
//! replays the acked records from its local log, which is what makes an
//! ack a durability promise the leader's semi-sync/quorum modes rely on.

use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use miodb_common::proto::{self, FrameDecoder, Request, Response};
use miodb_common::{fault, Error, Result, RoleState, Stats};
use miodb_core::{MioDb, MioOptions};
use miodb_pmem::PmemPool;
use parking_lot::Mutex;

use crate::detector::FailureDetector;

/// Follower tunables.
#[derive(Debug, Clone)]
pub struct FollowerOptions {
    /// Read timeout on the stream; also the poll interval for stop/drain
    /// flags and the quiet period that ends a drain.
    pub read_timeout: Duration,
    /// Initial reconnect backoff (doubles up to `max_backoff`).
    pub reconnect_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Failure-detector deadline: a leader silent (no bytes while
    /// connected, or unreachable across reconnects) for this long is
    /// declared dead and the loop ends in [`FollowerState::LeaderDead`].
    pub leader_dead_timeout: Duration,
}

impl Default for FollowerOptions {
    fn default() -> FollowerOptions {
        FollowerOptions {
            read_timeout: Duration::from_millis(100),
            reconnect_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            leader_dead_timeout: Duration::from_secs(3),
        }
    }
}

/// Where the apply loop is in its lifecycle (terminal states tell the
/// supervisor what to do next).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FollowerState {
    /// Trying to reach the leader.
    Connecting = 0,
    /// Subscribed and applying.
    Streaming = 1,
    /// Stopped/drained on request (terminal).
    Stopped = 2,
    /// The leader's failure detector fired (terminal): run an election.
    LeaderDead = 3,
    /// The subscribed-to node is fenced by a newer epoch (terminal):
    /// find the real leader.
    StaleLeader = 4,
    /// The leader truncated past our offset, or our history diverged
    /// from the new leader's (terminal): rebuild from a snapshot.
    NeedsSnapshot = 5,
}

impl FollowerState {
    fn from_u8(v: u8) -> FollowerState {
        match v {
            0 => FollowerState::Connecting,
            1 => FollowerState::Streaming,
            3 => FollowerState::LeaderDead,
            4 => FollowerState::StaleLeader,
            5 => FollowerState::NeedsSnapshot,
            _ => FollowerState::Stopped,
        }
    }

    /// Terminal states: the apply thread has exited (or is about to).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, FollowerState::Connecting | FollowerState::Streaming)
    }
}

/// Why one streaming session ended.
enum StreamEnd {
    /// Drain mode: the stream is quiet/closed and everything received
    /// has been applied.
    Drained,
    /// The leader truncated past our offset (or our history diverged);
    /// streaming cannot resume.
    SnapshotRequired,
    /// Stop was requested.
    Stopped,
    /// The peer is deposed or we are fenced: a newer epoch exists.
    StaleLeader(String),
    /// The leader went silent past the detector deadline.
    LeaderDead,
    /// Transport or apply failure; reconnect and resume from `applied`.
    Disconnected(String),
}

/// A running follower apply loop over an engine.
pub struct Follower {
    db: Arc<MioDb>,
    applied: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    state: Arc<AtomicU8>,
    epoch: Arc<AtomicU64>,
    last_error: Arc<Mutex<Option<String>>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Follower {
    /// Spawns the apply loop against `leader_addr`, resuming from the
    /// engine's current `last_sequence`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the apply thread cannot be spawned
    /// (connection failures are retried inside the loop instead).
    pub fn start(db: Arc<MioDb>, leader_addr: &str, opts: FollowerOptions) -> Result<Follower> {
        Follower::start_with_role(db, leader_addr, opts, None)
    }

    /// Like [`Follower::start`], with a shared [`RoleState`] to keep in
    /// sync: epochs learned from the leader are adopted into it, and its
    /// (possibly newer) epoch rides every ack so a stale leader fences
    /// itself out.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the apply thread cannot be spawned.
    pub fn start_with_role(
        db: Arc<MioDb>,
        leader_addr: &str,
        opts: FollowerOptions,
        role: Option<Arc<RoleState>>,
    ) -> Result<Follower> {
        let applied = Arc::new(AtomicU64::new(db.last_sequence()));
        let stop = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let state = Arc::new(AtomicU8::new(FollowerState::Connecting as u8));
        let epoch = Arc::new(AtomicU64::new(role.as_ref().map_or(0, |r| r.epoch())));
        let last_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let ctx = LoopCtx {
            db: db.clone(),
            addr: leader_addr.to_string(),
            opts,
            applied: applied.clone(),
            stop: stop.clone(),
            drain: drain.clone(),
            state: state.clone(),
            epoch: epoch.clone(),
            role,
            last_error: last_error.clone(),
        };
        let thread = std::thread::Builder::new()
            .name("miodb-follower".to_string())
            .spawn(move || ctx.run())
            .map_err(Error::Io)?;
        Ok(Follower {
            db,
            applied,
            stop,
            drain,
            state,
            epoch,
            last_error,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The replica engine.
    pub fn engine(&self) -> &Arc<MioDb> {
        &self.db
    }

    /// Highest contiguously applied (and acknowledged) sequence number.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Where the loop is in its lifecycle.
    pub fn state(&self) -> FollowerState {
        FollowerState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// The highest epoch this follower has adopted.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// True when the leader's log has truncated past this follower's
    /// offset: streaming cannot resume and the follower must be rebuilt
    /// from a snapshot ([`bootstrap_from_leader`]).
    pub fn needs_snapshot(&self) -> bool {
        self.state() == FollowerState::NeedsSnapshot
    }

    /// Most recent stream error, for diagnostics.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Failover: drains in-flight records from the (presumed dying)
    /// leader stream, stops the loop and returns the final applied
    /// offset. The caller flips its server role to leader afterwards;
    /// new writes continue the sequence numbering from this offset.
    pub fn promote(self) -> u64 {
        self.drain.store(true, Ordering::Release);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
        self.applied.load(Ordering::Acquire)
    }

    /// Stops the apply loop without draining (shutdown path).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything the apply thread owns.
struct LoopCtx {
    db: Arc<MioDb>,
    addr: String,
    opts: FollowerOptions,
    applied: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    state: Arc<AtomicU8>,
    epoch: Arc<AtomicU64>,
    role: Option<Arc<RoleState>>,
    last_error: Arc<Mutex<Option<String>>>,
}

impl LoopCtx {
    fn done(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.drain.load(Ordering::Acquire)
    }

    fn set_state(&self, s: FollowerState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// The epoch this follower believes in: the max of what it adopted
    /// from streams and what the shared role state knows (an election
    /// may have advanced the latter behind our back).
    fn known_epoch(&self) -> u64 {
        let local = self.epoch.load(Ordering::Acquire);
        self.role.as_ref().map_or(local, |r| r.epoch().max(local))
    }

    /// Adopts a (possibly newer) epoch learned from the leader at
    /// `addr`, keeping the shared role state in sync.
    fn adopt_epoch(&self, epoch: u64) {
        let prev = self.epoch.fetch_max(epoch, Ordering::AcqRel);
        if let Some(role) = &self.role {
            if epoch > prev {
                role.observe_epoch(epoch, &self.addr);
            }
            role.set_leader_live(true);
        }
    }

    fn run(&self) {
        let mut backoff = self.opts.reconnect_backoff;
        // When the leader became unreachable (connect failures count
        // toward the death deadline just like in-stream silence).
        let mut unreachable_since: Option<Instant> = None;
        loop {
            if self.stop.load(Ordering::Acquire) {
                self.set_state(FollowerState::Stopped);
                return;
            }
            self.set_state(FollowerState::Connecting);
            let mut established = false;
            match self.stream_once(&mut established) {
                StreamEnd::Drained | StreamEnd::Stopped => {
                    self.set_state(FollowerState::Stopped);
                    return;
                }
                StreamEnd::SnapshotRequired => {
                    self.set_state(FollowerState::NeedsSnapshot);
                    *self.last_error.lock() =
                        Some("replication log truncated past applied offset".to_string());
                    return;
                }
                StreamEnd::StaleLeader(msg) => {
                    self.set_state(FollowerState::StaleLeader);
                    *self.last_error.lock() = Some(msg);
                    return;
                }
                StreamEnd::LeaderDead => {
                    if let Some(role) = &self.role {
                        role.set_leader_live(false);
                    }
                    self.set_state(FollowerState::LeaderDead);
                    *self.last_error.lock() =
                        Some(format!("leader {} silent past deadline", self.addr));
                    return;
                }
                StreamEnd::Disconnected(msg) => {
                    *self.last_error.lock() = Some(msg);
                }
            }
            if self.done() {
                self.set_state(FollowerState::Stopped);
                return;
            }
            if established {
                unreachable_since = None;
            } else {
                let since = *unreachable_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= self.opts.leader_dead_timeout {
                    if let Some(role) = &self.role {
                        role.set_leader_live(false);
                    }
                    self.set_state(FollowerState::LeaderDead);
                    return;
                }
            }
            // Exponential backoff is for a leader we cannot reach; a
            // session that subscribed and later died (leader restart,
            // injected stream drop) reconnects at the initial delay.
            if established {
                backoff = self.opts.reconnect_backoff;
            }
            // Backoff in small slices so stop/drain stay responsive.
            let until = Instant::now() + backoff;
            while Instant::now() < until && !self.done() {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !established {
                backoff = (backoff * 2).min(self.opts.max_backoff);
            }
        }
    }

    /// One connect → subscribe → stream session. Sets `established` once
    /// the subscribe handshake succeeds.
    fn stream_once(&self, established: &mut bool) -> StreamEnd {
        let stream = match TcpStream::connect(&self.addr) {
            Ok(s) => s,
            Err(e) => {
                // A dead leader during drain means nothing is in flight.
                if self.drain.load(Ordering::Acquire) {
                    return StreamEnd::Drained;
                }
                return StreamEnd::Disconnected(format!("connect {}: {e}", self.addr));
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.opts.read_timeout));
        let mut decoder = FrameDecoder::new();
        let mut writer = BufWriter::new(&stream);
        let detector = FailureDetector::new(self.opts.leader_dead_timeout);

        let from = self.applied.load(Ordering::Acquire);
        let epoch = self.known_epoch();
        if proto::write_request(&mut writer, 1, &Request::ReplSubscribe { from, epoch }).is_err()
            || writer.flush().is_err()
        {
            return StreamEnd::Disconnected("subscribe send".to_string());
        }
        match self.read_response(&stream, &mut decoder, &detector) {
            Ok(Some(Response::ReplSubscribed {
                log_start,
                last,
                epoch,
            })) => {
                if from + 1 < log_start {
                    return StreamEnd::SnapshotRequired;
                }
                if from > last {
                    // We are *ahead* of the leader: our tail holds
                    // ambiguous writes the group never quorum-acked
                    // (allowed to vanish). Streaming on top would
                    // silently diverge; rebuild from the leader instead.
                    return StreamEnd::SnapshotRequired;
                }
                self.adopt_epoch(epoch);
                *established = true;
            }
            Ok(Some(Response::StaleEpoch { epoch, hint })) => {
                if let Some(role) = &self.role {
                    role.observe_epoch(epoch, &hint);
                }
                self.epoch.fetch_max(epoch, Ordering::AcqRel);
                return StreamEnd::StaleLeader(format!(
                    "subscribe refused: peer fenced at epoch {epoch}"
                ));
            }
            Ok(Some(Response::NotLeader { epoch, hint })) => {
                if let Some(role) = &self.role {
                    role.observe_epoch(epoch, &hint);
                }
                return StreamEnd::StaleLeader(format!(
                    "subscribe refused: peer is a follower (leader hint {hint:?})"
                ));
            }
            Ok(Some(Response::Err(msg))) => {
                return StreamEnd::Disconnected(format!("subscribe refused: {msg}"));
            }
            Ok(Some(other)) => {
                return StreamEnd::Disconnected(format!("unexpected subscribe reply: {other:?}"));
            }
            Ok(None) => return StreamEnd::Stopped,
            Err(end) => return end,
        }

        loop {
            match self.read_response(&stream, &mut decoder, &detector) {
                Ok(Some(Response::ReplRecords { epoch, batches })) => {
                    let known = self.known_epoch();
                    if epoch < known {
                        // The node we stream from was deposed (we learned
                        // a newer epoch, e.g. via an election we voted
                        // in); refuse its records.
                        return StreamEnd::StaleLeader(format!(
                            "records at stale epoch {epoch} < {known}"
                        ));
                    }
                    self.adopt_epoch(epoch);
                    if let Err(end) = self.apply_batches(&batches) {
                        return end;
                    }
                    // Ack even empty heartbeats: the offset report is the
                    // follower → leader pulse, and the epoch on it is the
                    // deposed-leader discovery channel.
                    let offset = self.applied.load(Ordering::Acquire);
                    let epoch = self.known_epoch();
                    if proto::write_request(&mut writer, 0, &Request::ReplAck { offset, epoch })
                        .is_err()
                        || writer.flush().is_err()
                    {
                        return self.disconnect("ack send failed");
                    }
                }
                Ok(Some(Response::StaleEpoch { epoch, hint })) => {
                    if let Some(role) = &self.role {
                        role.observe_epoch(epoch, &hint);
                    }
                    self.epoch.fetch_max(epoch, Ordering::AcqRel);
                    return StreamEnd::StaleLeader(format!("stream fenced at epoch {epoch}"));
                }
                Ok(Some(Response::Err(msg))) if msg.contains("truncated") => {
                    return StreamEnd::SnapshotRequired;
                }
                Ok(Some(other)) => {
                    return self.disconnect(&format!("unexpected stream frame: {other:?}"));
                }
                Ok(None) => return StreamEnd::Stopped,
                Err(end) => return end,
            }
        }
    }

    /// Reads one response frame, folding timeouts into flag polling and
    /// feeding the leader failure detector. `Ok(None)` means stop was
    /// requested; `Err` carries the session outcome.
    fn read_response(
        &self,
        mut stream: &TcpStream,
        decoder: &mut FrameDecoder,
        detector: &FailureDetector,
    ) -> std::result::Result<Option<Response>, StreamEnd> {
        loop {
            // Checked before every read, not just on quiet timeouts: a
            // leader heart-beating faster than the read timeout would
            // otherwise starve stop requests indefinitely.
            if self.stop.load(Ordering::Acquire) {
                return Ok(None);
            }
            let before = decoder.buffered();
            match decoder.read_frame(&mut stream) {
                Ok(Some(frame)) => {
                    detector.observe();
                    return match Response::decode(frame.opcode, &frame.body) {
                        Ok(resp) => Ok(Some(resp)),
                        Err(e) => Err(StreamEnd::Disconnected(format!("bad frame: {e}"))),
                    };
                }
                Ok(None) => {
                    // Clean EOF: during drain this is the natural end.
                    return Err(if self.drain.load(Ordering::Acquire) {
                        StreamEnd::Drained
                    } else {
                        StreamEnd::Disconnected("leader closed stream".to_string())
                    });
                }
                // Part of a frame arrived: a live leader mid-way through
                // a large frame, not a quiet one.
                Err(Error::Io(ref e)) if proto::is_timeout(e) && decoder.buffered() > before => {
                    detector.observe();
                }
                Err(Error::Io(ref e)) if proto::is_timeout(e) => {
                    if self.stop.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                    // Quiet for a full read timeout with drain requested:
                    // nothing more is in flight.
                    if self.drain.load(Ordering::Acquire) {
                        return Err(StreamEnd::Drained);
                    }
                    // A connected-but-silent leader (hung process, iced
                    // network) is as dead as an unreachable one.
                    if detector.is_dead() {
                        return Err(StreamEnd::LeaderDead);
                    }
                }
                Err(e) => {
                    return Err(if self.drain.load(Ordering::Acquire) {
                        StreamEnd::Drained
                    } else {
                        StreamEnd::Disconnected(format!("stream read: {e}"))
                    });
                }
            }
        }
    }

    /// Decodes and applies shipped batches, advancing the applied offset.
    fn apply_batches(&self, batches: &[proto::ReplBatch]) -> std::result::Result<(), StreamEnd> {
        for batch in batches {
            // Injected apply stall/failure: a Latency policy sleeps here
            // (acks stop advancing, semi-sync writers feel it); a Fail
            // policy aborts the session before anything is applied, so
            // the records are re-shipped on reconnect.
            if fault::hit(fault::points::REPL_APPLY_STALL).is_some() {
                return Err(self.disconnect("injected apply failure"));
            }
            let applied = self.applied.load(Ordering::Acquire);
            if batch.seq_last <= applied {
                continue; // duplicate delivery after a resubscribe
            }
            let records = match miodb_wal::decode_record_bytes(&batch.bytes) {
                Ok(r) => r,
                Err(e) => return Err(self.disconnect(&format!("bad shipped record: {e}"))),
            };
            let fresh: Vec<miodb_wal::WalRecord> =
                records.into_iter().filter(|r| r.seq > applied).collect();
            if let Err(e) = self.db.apply_replicated(&fresh) {
                return Err(self.disconnect(&format!("apply failed: {e}")));
            }
            self.applied.store(batch.seq_last, Ordering::Release);
        }
        Ok(())
    }

    fn disconnect(&self, msg: &str) -> StreamEnd {
        if self.drain.load(Ordering::Acquire) {
            StreamEnd::Drained
        } else {
            StreamEnd::Disconnected(msg.to_string())
        }
    }
}

/// Fetches a pool snapshot image from a leader (one `SnapshotFetch`
/// round trip).
///
/// # Errors
///
/// Returns [`Error::Io`] for transport failures and [`Error::Background`]
/// when the leader refuses (e.g. snapshot serving not configured).
pub fn fetch_snapshot(leader_addr: &str) -> Result<Vec<u8>> {
    let stream = TcpStream::connect(leader_addr).map_err(Error::Io)?;
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(&stream);
    proto::write_request(&mut writer, 1, &Request::SnapshotFetch).map_err(Error::Io)?;
    writer.flush().map_err(Error::Io)?;
    match FrameDecoder::new().read_frame(&mut &stream)? {
        Some(frame) => match Response::decode(frame.opcode, &frame.body)? {
            Response::Snapshot(bytes) => Ok(bytes),
            Response::Err(msg) => Err(Error::Background(format!("snapshot refused: {msg}"))),
            other => Err(Error::Background(format!(
                "unexpected snapshot reply: {other:?}"
            ))),
        },
        None => Err(Error::Io(std::io::Error::other(
            "leader closed connection during snapshot fetch",
        ))),
    }
}

/// Cold-follower catch-up: fetches a leader snapshot, restores it into a
/// fresh NVM pool and recovers an engine from it. The snapshot's WAL tail
/// replays during recovery, so the returned engine's `last_sequence` is
/// the exact offset to subscribe from.
///
/// # Errors
///
/// Returns transport errors from the fetch, [`Error::Corruption`] for an
/// unreadable image, and recovery errors from the engine.
pub fn bootstrap_from_leader(leader_addr: &str, opts: MioOptions) -> Result<MioDb> {
    if fault::hit(fault::points::REPL_SNAPSHOT).is_some() {
        return Err(Error::Io(std::io::Error::other(
            "injected snapshot catch-up failure",
        )));
    }
    let bytes = fetch_snapshot(leader_addr)?;
    static BOOTSTRAPS: AtomicU64 = AtomicU64::new(0);
    let n = BOOTSTRAPS.fetch_add(1, Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!("miodb-bootstrap-{}-{n}.snap", std::process::id()));
    let result = (|| {
        std::fs::write(&path, &bytes).map_err(Error::Io)?;
        let pool = PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new()))?;
        MioDb::recover(pool, opts)
    })();
    let _ = std::fs::remove_file(&path);
    result
}

/// Serializes a leader engine's pool for `SnapshotFetch` serving: a
/// quiesced [`MioDb::snapshot`] into a temp file, read back and removed.
///
/// # Errors
///
/// Returns I/O errors from the snapshot file.
pub fn engine_snapshot_bytes(db: &MioDb) -> Result<Vec<u8>> {
    if fault::hit(fault::points::REPL_SNAPSHOT).is_some() {
        return Err(Error::Io(std::io::Error::other(
            "injected snapshot serve failure",
        )));
    }
    static SERVES: AtomicU64 = AtomicU64::new(0);
    let n = SERVES.fetch_add(1, Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!("miodb-snap-serve-{}-{n}.snap", std::process::id()));
    let result = db
        .snapshot(&path)
        .and_then(|()| std::fs::read(&path).map_err(Error::Io));
    let _ = std::fs::remove_file(&path);
    result
}
