//! Event-driven TCP server speaking the MioDB wire protocol.
//!
//! Design (§14 of DESIGN.md):
//!
//! - **Shard-per-core readiness loops.** Accepted sockets are assigned
//!   round-robin to a small set of shard threads, each owning one epoll
//!   instance (see `poller`), a wake eventfd and the connections routed to
//!   it. Sockets are non-blocking; all reads, frame decoding and writes
//!   happen on the owning shard thread, so per-connection I/O state needs
//!   no synchronization with other shards.
//! - **Connection state machine.** Each connection carries an incremental
//!   [`FrameDecoder`](proto::FrameDecoder) (partial-frame reads), a bounded
//!   queue of decoded-but-unserved request frames, and a write buffer of
//!   encoded responses drained as the socket allows (partial writes).
//! - **Run to completion, hand off what can block.** A frame that cannot
//!   wait on anything outside this process — `Get`, and `Put`/`Delete`/
//!   `Batch` unless a replicator with a synchronous ack level may hold the
//!   commit for a follower — executes inline on the shard thread that
//!   decoded it, and its response leaves in the same tick. Everything else
//!   (scans, stats, snapshots, votes, replication handshakes,
//!   sync-replicated writes) goes to a shared worker pool, as does the
//!   rest of a connection's queue once one such frame reaches its front or
//!   the shard's per-round budget is spent. One `serve_conn` has both
//!   callers; at most one of them owns a connection at a time (the
//!   `executing` flag), so responses are appended — and therefore hit the
//!   wire — strictly in request order, preserving the pipelining contract.
//!   Two waits are accepted on the shard: an inline write can wait as a
//!   group-commit follower until the current leader's apply ends, and in
//!   a rotation stall (at most one MemTable flush) like every other
//!   writer. The injected `server.request.stall` fault holds the shard
//!   when it hits an inline frame.
//! - **Backpressure.** When a connection's request queue or write buffer
//!   hits its cap the shard stops reading from it (`EPOLLIN` dropped) and
//!   sends a single in-band [`Response::Backpressure`] advisory (request
//!   id 0). Reads resume once the client drains responses below half the
//!   caps, which bounds per-connection server memory.
//! - **Fairness.** Per-tick read rounds, inline execution per read round
//!   and per-dispatch execution are all bounded, so one hot connection
//!   cannot starve the others on its shard or monopolize a worker.
//! - **Shutdown.** [`KvServer::shutdown`] stops the accept loop, has every
//!   shard slurp each socket's already-sent bytes one final time, executes
//!   everything queued, flushes all responses and only then closes — so
//!   in-flight requests always finish, exactly as the thread-per-connection
//!   server promised.
//! - **Connection limit.** Past `max_connections`, an accept is answered
//!   with a single typed `Err` frame and closed.
//! - **Replication** (§13 of DESIGN.md). `ReplSubscribe` on a leader hands
//!   the socket off from the event loop to a dedicated blocking stream
//!   thread, together with its decoder, so no byte the event loop already
//!   read is lost; followers refuse mutations with typed
//!   `NotLeader`, deposed leaders with `StaleEpoch`, and quorum-level
//!   leaders that cannot reach a majority with `QuorumLost`.
//!   [`KvServer::promote_to_leader`] flips the role in place during
//!   failover; [`KvServer::set_partitioned`] simulates a network partition
//!   for chaos tests (inter-node opcodes dropped, streams cut, client
//!   traffic still served).

use crate::poller::{Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use miodb_common::proto::{self, Frame, FrameDecoder, Opcode, ReplBatch, Request, Response};
use miodb_common::trace::{self, SpanKind, TraceCtx};
use miodb_common::{
    fault, AckLevel, Error, KvEngine, MetricsRegistry, OpKind, Result, RoleState, ServePath,
    ServiceTelemetry,
};
use miodb_repl::Replicator;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Byte budget per `ReplRecords` frame pushed to a subscriber.
const MAX_REPL_FETCH_BYTES: usize = 4 << 20;

/// How long a subscriber sender blocks waiting for new records before
/// emitting a heartbeat (an empty `ReplRecords` frame).
const REPL_POLL: Duration = Duration::from_millis(100);

/// Token reserved for a shard's wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Scratch read size per `read()` syscall.
const READ_CHUNK: usize = 16 * 1024;

/// Fairness bound: read syscalls per connection per poll tick. The level-
/// triggered poller re-reports leftover data next tick, so capping rounds
/// never loses bytes — it only interleaves hot connections.
const READ_ROUNDS_PER_TICK: usize = 8;

/// Fairness bound: frames one worker dispatch executes before requeueing
/// the connection behind other pending work, and frames a shard executes
/// inline for one connection per read round before handing the rest of
/// its queue to the pool.
const FRAMES_PER_DISPATCH: usize = 32;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum simultaneously open client connections; further accepts are
    /// refused with an `Err` frame.
    pub max_connections: usize,
    /// Poll tick of the readiness loops — the shutdown/maintenance poll
    /// interval when no socket event arrives.
    pub read_timeout: Duration,
    /// Per-connection cap of decoded-but-unserved request frames; hitting
    /// it pauses reads and sends one backpressure advisory.
    pub max_queued_requests: usize,
    /// Per-connection cap of buffered response bytes; hitting it pauses
    /// reads (and execution) until the client drains.
    pub max_conn_buffer_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 64,
            read_timeout: Duration::from_millis(50),
            max_queued_requests: 128,
            max_conn_buffer_bytes: 1 << 20,
        }
    }
}

fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Produces a serialized pool snapshot for `SnapshotFetch` serving
/// (typically [`miodb_repl::engine_snapshot_bytes`] over the engine).
pub type SnapshotFn = Box<dyn Fn() -> Result<Vec<u8>> + Send + Sync>;

/// Reports the engine's highest applied sequence number (for vote
/// responses — a voter only grants to candidates at least as caught up).
pub type AppliedFn = Box<dyn Fn() -> u64 + Send + Sync>;

/// Replication role and wiring for [`KvServer::start_replicated`].
pub struct ReplConfig {
    /// The leader-side hub; also present on followers that may be
    /// promoted (it sits quiescent until the node leads).
    pub replicator: Option<Arc<Replicator>>,
    /// Snapshot producer for `SnapshotFetch`; `None` refuses the opcode.
    pub snapshot: Option<SnapshotFn>,
    /// Shared role/epoch state (typically also handed to the follower
    /// apply loop and the election supervisor).
    pub role: Arc<RoleState>,
    /// This node's address as peers dial it: stamped into vote responses
    /// and used as the leader hint after a promotion.
    pub advertised_addr: String,
    /// Engine applied-sequence probe for vote responses; `None` reports 0
    /// (the node never wins a contested election).
    pub applied: Option<AppliedFn>,
    /// A subscriber silent past this deadline (no acks, not even
    /// heartbeat acks) is declared dead and dropped from the quorum set.
    pub follower_dead_timeout: Duration,
}

impl ReplConfig {
    /// Conventional wiring for a group member at `advertised_addr`.
    pub fn new(
        replicator: Option<Arc<Replicator>>,
        snapshot: Option<SnapshotFn>,
        role: Arc<RoleState>,
        advertised_addr: &str,
    ) -> ReplConfig {
        ReplConfig {
            replicator,
            snapshot,
            role,
            advertised_addr: advertised_addr.to_string(),
            applied: None,
            follower_dead_timeout: Duration::from_secs(3),
        }
    }
}

/// Growable response buffer drained by partial writes.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn pending_slice(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 20) && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Cross-thread state of one connection: written by the owning shard
/// (decode/enqueue, writes) and by whoever holds `executing` — the shard
/// itself or one worker (execute/respond).
struct ConnState {
    /// Decoded frames awaiting execution, in arrival order.
    queue: VecDeque<Frame>,
    /// Encoded responses awaiting the socket.
    out: WriteBuf,
    /// The shard (inline) or a worker currently owns this connection's
    /// queue; a connection handed to the pool keeps it until the worker
    /// drains the queue.
    executing: bool,
    /// Reads paused by the queue/buffer caps.
    read_paused: bool,
    /// An advisory was already sent for the current pause.
    backpressure_sent: bool,
    /// Flush remaining output, then close (protocol error, injected drop).
    want_close: bool,
    /// The socket is unusable; close immediately, discarding output.
    socket_dead: bool,
    /// Clean EOF from the client: finish queued work, flush, close.
    read_closed: bool,
    /// Corruption detected after `queue`'s frames: once the queue drains,
    /// answer with this error and close (keeps responses in order).
    pending_error: Option<String>,
    /// A `ReplSubscribe` asked to convert this connection into a push
    /// stream; the shard performs the handoff.
    handoff: Option<(u32, u64)>,
}

struct ConnShared {
    token: u64,
    shard: usize,
    state: Mutex<ConnState>,
}

impl ConnShared {
    fn new(token: u64, shard: usize) -> ConnShared {
        ConnShared {
            token,
            shard,
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                out: WriteBuf::default(),
                executing: false,
                read_paused: false,
                backpressure_sent: false,
                want_close: false,
                socket_dead: false,
                read_closed: false,
                pending_error: None,
                handoff: None,
            }),
        }
    }
}

/// Message from the accept thread or a worker to a shard.
enum ShardMsg {
    /// Register a freshly accepted socket.
    NewConn(TcpStream, Arc<ConnShared>),
    /// Re-examine a connection (flush output, close, hand off, resume).
    Touch(u64),
}

struct ShardHandle {
    mailbox: Mutex<Vec<ShardMsg>>,
    wake: WakeFd,
}

impl ShardHandle {
    fn send(&self, msg: ShardMsg) {
        self.mailbox.lock().push(msg);
        self.wake.wake();
    }
}

/// FIFO of connections with executable work, shared by the worker pool.
struct WorkQueue {
    queue: Mutex<VecDeque<Arc<ConnShared>>>,
    cv: Condvar,
    stopped: AtomicBool,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stopped: AtomicBool::new(false),
        }
    }

    fn push(&self, conn: Arc<ConnShared>) {
        self.queue.lock().push_back(conn);
        self.cv.notify_one();
    }

    fn pop(&self) -> Option<Arc<ConnShared>> {
        let mut q = self.queue.lock();
        loop {
            if let Some(c) = q.pop_front() {
                return Some(c);
            }
            if self.stopped.load(Ordering::Acquire) {
                return None;
            }
            self.cv.wait(&mut q);
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

struct Shared {
    /// Swappable so a snapshot re-bootstrap can replace a follower's
    /// engine in place without tearing down client connections.
    engine: RwLock<Arc<dyn KvEngine>>,
    telemetry: ServiceTelemetry,
    shutdown: AtomicBool,
    /// Wakes the accept thread out of its readiness wait at shutdown.
    accept_wake: WakeFd,
    opts: ServerOptions,
    shards: Vec<Arc<ShardHandle>>,
    work: WorkQueue,
    /// Role/epoch state: plain servers get a permanent epoch-0 leader.
    role: Arc<RoleState>,
    /// Whether this server was started with replication wiring (gates
    /// `ReplVote` and subscriber streams).
    replication_enabled: bool,
    replicator: Option<Arc<Replicator>>,
    /// Mutations may run inline on a shard: no replicator can hold their
    /// commit waiting for a follower ack (none, or an `Async` one).
    inline_mutations: bool,
    snapshot: Option<SnapshotFn>,
    applied: Option<AppliedFn>,
    advertised_addr: String,
    follower_dead_timeout: Duration,
    /// Chaos hook: while set, inter-node opcodes (subscribe/vote/
    /// snapshot) are dropped and active subscriber streams are cut, as a
    /// network partition would. Client opcodes keep being served.
    partitioned: AtomicBool,
}

impl Shared {
    fn engine(&self) -> Arc<dyn KvEngine> {
        Arc::clone(&self.engine.read())
    }

    fn leader(&self) -> bool {
        self.role.is_leader()
    }

    fn applied_seq(&self) -> u64 {
        self.applied.as_ref().map_or(0, |f| f())
    }

    fn not_leader(&self) -> Response {
        Response::NotLeader {
            epoch: self.role.epoch(),
            hint: self.role.leader_hint(),
        }
    }

    fn stale_epoch(&self) -> Response {
        Response::StaleEpoch {
            epoch: self.role.epoch(),
            hint: self.role.leader_hint(),
        }
    }

    fn partitioned(&self) -> bool {
        self.partitioned.load(Ordering::Acquire)
    }

    /// Whether a frame may run on the shard that decoded it: nothing it
    /// does waits on anything outside this process. Decided from the
    /// opcode and this server's replication wiring alone.
    fn runs_inline(&self, frame: &Frame) -> bool {
        match Opcode::from_u8(frame.opcode) {
            Some(Opcode::Get) => true,
            Some(Opcode::Put | Opcode::Delete | Opcode::Batch) => self.inline_mutations,
            _ => false,
        }
    }
}

/// Maps a typed engine/replication error to its wire response. Fencing
/// and quorum errors keep their dedicated opcodes so clients can react
/// without string matching; everything else degrades to `Err(text)`.
fn error_response(e: &Error) -> Response {
    match e {
        Error::QuorumLost { have, need } => Response::QuorumLost {
            have: *have as u32,
            need: *need as u32,
        },
        Error::StaleEpoch { epoch, hint } => Response::StaleEpoch {
            epoch: *epoch,
            hint: hint.clone(),
        },
        other => Response::Err(other.to_string()),
    }
}

/// A running TCP front end over any [`KvEngine`] (a single engine, a
/// [`ShardRouter`](crate::ShardRouter), or a baseline).
pub struct KvServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    shard_threads: Mutex<Vec<JoinHandle<()>>>,
    worker_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Replication stream threads (and any other per-connection blocking
    /// handlers spawned by handoffs).
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop, readiness shards and worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the listener cannot bind or a loop thread
    /// cannot start.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<dyn KvEngine>,
        opts: ServerOptions,
    ) -> Result<KvServer> {
        KvServer::start_inner(addr, engine, opts, None)
    }

    /// Like [`KvServer::start`] but with a replication role: a leader
    /// serves `ReplSubscribe` streams and `SnapshotFetch`; a follower
    /// refuses mutations with `NotLeader` until
    /// [`KvServer::promote_to_leader`].
    ///
    /// Installing the replicator as the engine's commit sink
    /// (`MioDb::set_commit_sink`) is the caller's job — the server only
    /// ships what the engine publishes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the listener cannot bind.
    pub fn start_replicated<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<dyn KvEngine>,
        opts: ServerOptions,
        repl: ReplConfig,
    ) -> Result<KvServer> {
        KvServer::start_inner(addr, engine, opts, Some(repl))
    }

    fn start_inner<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<dyn KvEngine>,
        opts: ServerOptions,
        repl: Option<ReplConfig>,
    ) -> Result<KvServer> {
        let listener = TcpListener::bind(addr).map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let local_addr = listener.local_addr().map_err(Error::Io)?;
        let replication_enabled = repl.is_some();
        let (role, advertised_addr, applied, follower_dead_timeout, replicator, snapshot) =
            match repl {
                None => (
                    Arc::new(RoleState::new_leader(0)),
                    String::new(),
                    None,
                    Duration::from_secs(3),
                    None,
                    None,
                ),
                Some(c) => (
                    c.role,
                    c.advertised_addr,
                    c.applied,
                    c.follower_dead_timeout,
                    c.replicator,
                    c.snapshot,
                ),
            };
        // A leader's hint is its own dialable address, so probes can
        // recognise it as a live leader first-hand.
        if role.is_leader() && !advertised_addr.is_empty() {
            role.set_leader_hint(&advertised_addr);
        }
        // Readiness-loop (shard) and worker threads are sized from the CPU
        // count. At least 4 workers, so one handed-off frame that blocks —
        // a sync-replicated commit waiting for its ack, or an injected
        // SERVER_REQUEST_STALL on a handed-off frame — cannot starve the
        // other handed-off connections even on a single-core box. (A
        // stall on an inline frame holds its shard instead.)
        let n_shards = cpu_count().clamp(1, 4);
        let n_workers = cpu_count().clamp(4, 16);
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(Arc::new(ShardHandle {
                mailbox: Mutex::new(Vec::new()),
                wake: WakeFd::new().map_err(Error::Io)?,
            }));
        }
        let shared = Arc::new(Shared {
            engine: RwLock::new(engine),
            telemetry: ServiceTelemetry::new(),
            shutdown: AtomicBool::new(false),
            accept_wake: WakeFd::new().map_err(Error::Io)?,
            opts,
            shards,
            work: WorkQueue::new(),
            role,
            replication_enabled,
            inline_mutations: replicator
                .as_ref()
                .is_none_or(|r| r.ack_level() == AckLevel::Async),
            replicator,
            snapshot,
            applied,
            advertised_addr,
            follower_dead_timeout,
            partitioned: AtomicBool::new(false),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let mut shard_threads = Vec::with_capacity(n_shards);
        for idx in 0..n_shards {
            let shard_shared = Arc::clone(&shared);
            let shard_handlers = Arc::clone(&handlers);
            let t = std::thread::Builder::new()
                .name(format!("miodb-shard-{idx}"))
                .spawn(move || shard_loop(idx, &shard_shared, &shard_handlers))
                .map_err(Error::Io)?;
            shard_threads.push(t);
        }
        let mut worker_threads = Vec::with_capacity(n_workers);
        for idx in 0..n_workers {
            let worker_shared = Arc::clone(&shared);
            let t = std::thread::Builder::new()
                .name(format!("miodb-worker-{idx}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(Error::Io)?;
            worker_threads.push(t);
        }
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("miodb-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(Error::Io)?;
        Ok(KvServer {
            shared,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
            shard_threads: Mutex::new(shard_threads),
            worker_threads: Mutex::new(worker_threads),
            handlers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connection gauges and per-opcode latency histograms.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.shared.telemetry
    }

    /// The served engine (a clone of the current slot — the engine can be
    /// swapped by [`KvServer::replace_engine`] during a snapshot
    /// re-bootstrap).
    pub fn engine(&self) -> Arc<dyn KvEngine> {
        self.shared.engine()
    }

    /// Swaps the served engine in place (snapshot re-bootstrap on a
    /// follower). In-flight requests finish against the engine they
    /// started with; subsequent requests see the new one.
    pub fn replace_engine(&self, engine: Arc<dyn KvEngine>) {
        *self.shared.engine.write() = engine;
    }

    /// Current replication role (plain servers are always leaders).
    pub fn is_leader(&self) -> bool {
        self.shared.leader()
    }

    /// The shared role/epoch state.
    pub fn role(&self) -> &Arc<RoleState> {
        &self.shared.role
    }

    /// Failover: flips a follower into a leader in place at a fresh
    /// epoch. New mutations are accepted immediately; the caller should
    /// have drained the old leader's stream first
    /// ([`miodb_repl::Follower::promote`]). Also fences the replication
    /// log base at the engine's applied offset: subscribers behind it
    /// must snapshot-catch-up, since this node's log never held those
    /// records and cannot prove their prefix.
    pub fn promote_to_leader(&self) {
        let epoch = self.shared.role.epoch() + 1;
        self.shared.role.become_leader(epoch);
        if !self.shared.advertised_addr.is_empty() {
            self.shared
                .role
                .set_leader_hint(&self.shared.advertised_addr);
        } else {
            self.shared.role.set_leader_hint("");
        }
        if let Some(r) = &self.shared.replicator {
            r.set_base(self.shared.applied_seq());
        }
    }

    /// Chaos hook: simulate this node being cut off from its peers.
    /// While partitioned, inter-node opcodes (`ReplSubscribe`,
    /// `ReplVote`, `SnapshotFetch`) are dropped without a response and
    /// active subscriber streams are severed; ordinary client traffic is
    /// still served (that asymmetry is what makes a partitioned
    /// quorum-level leader answer `QuorumLost`).
    pub fn set_partitioned(&self, partitioned: bool) {
        self.shared
            .partitioned
            .store(partitioned, Ordering::Release);
    }

    /// Whether the partition chaos hook is engaged.
    pub fn is_partitioned(&self) -> bool {
        self.shared.partitioned()
    }

    /// The replication hub, when started with one.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.shared.replicator.as_ref()
    }

    /// Stops accepting, drains every connection (queued requests execute,
    /// responses are written and flushed) and joins all server threads.
    /// Idempotent.
    ///
    /// Closing the engine (draining the commit queue and flushing
    /// MemTables) is the owner's job afterwards — e.g.
    /// [`ShardRouter::close`](crate::ShardRouter::close).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.accept_wake.wake();
        for shard in &self.shared.shards {
            shard.wake.wake();
        }
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        // Shards exit only once every connection has been drained, so by
        // the time they are joined the work queue is empty and quiescent.
        let shards: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shard_threads.lock());
        for t in shards {
            let _ = t.join();
        }
        self.shared.work.stop();
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.worker_threads.lock());
        for t in workers {
            let _ = t.join();
        }
        let drained: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handlers.lock());
        for t in drained {
            let _ = t.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until shutdown, asleep in a readiness wait on the listener and
/// the accept wake fd whenever no connection is pending.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let Ok(poller) = Poller::new() else {
        return;
    };
    if poller.add(listener.as_raw_fd(), 0, EPOLLIN).is_err()
        || poller
            .add(shared.accept_wake.fd(), WAKE_TOKEN, EPOLLIN)
            .is_err()
    {
        return;
    }
    let mut events = Vec::new();
    let mut next_token: u64 = 1;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.telemetry.active_connections() >= shared.opts.max_connections as u64 {
                    refuse(stream, shared);
                    continue;
                }
                shared.telemetry.conn_opened();
                let token = next_token;
                next_token += 1;
                let shard_idx = (token as usize) % shared.shards.len();
                let conn = Arc::new(ConnShared::new(token, shard_idx));
                shared.shards[shard_idx].send(ShardMsg::NewConn(stream, conn));
            }
            Err(e) if proto::is_timeout(&e) => {
                // Level-triggered: a connection that arrived, or a wake
                // that shutdown sent, before the wait ends it at once.
                if poller.wait(&mut events, None).is_err() {
                    return;
                }
            }
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back off.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Answers an over-limit connection with one `Err` frame and drops it.
fn refuse(stream: TcpStream, shared: &Shared) {
    shared.telemetry.conn_refused();
    let mut w = BufWriter::new(stream);
    let resp = Response::Err("server at connection limit".to_string());
    let _ = proto::write_response(&mut w, 0, Opcode::Get, &resp);
    let _ = w.flush();
}

/// Shard-thread-local half of one connection.
struct ShardConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    shared_conn: Arc<ConnShared>,
    /// Currently registered epoll interest.
    interest: u32,
    /// Reading is over for good (EOF, error, post-drain); the queue/out
    /// lifecycle decides when the connection closes.
    no_more_reads: bool,
}

fn shard_loop(idx: usize, shared: &Arc<Shared>, handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let Ok(poller) = Poller::new() else {
        return;
    };
    let handle = Arc::clone(&shared.shards[idx]);
    if poller.add(handle.wake.fd(), WAKE_TOKEN, EPOLLIN).is_err() {
        return;
    }
    let mut conns: HashMap<u64, ShardConn> = HashMap::new();
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Response scratch of the frames this shard executes inline.
    let mut resp = Vec::new();
    let mut draining = false;
    loop {
        if poller
            .wait(&mut events, Some(shared.opts.read_timeout))
            .is_err()
        {
            break;
        }
        if !draining && shared.shutdown.load(Ordering::Acquire) {
            draining = true;
            // Final read pass: slurp every socket's already-sent bytes
            // (ignoring the queue caps), then stop reading for good. The
            // loop below keeps executing and flushing until all drained.
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(sc) = conns.get_mut(&token) {
                    read_conn(sc, shared, &mut scratch, &mut resp, true);
                    sc.no_more_reads = true;
                    let mut st = sc.shared_conn.state.lock();
                    st.read_closed = true;
                }
                service_conn(token, &mut conns, &poller, shared, handlers, &mut resp);
            }
        }
        for &(token, ev) in &events {
            if token == WAKE_TOKEN {
                handle.wake.drain();
                continue;
            }
            let Some(sc) = conns.get_mut(&token) else {
                continue;
            };
            if ev & (EPOLLERR | EPOLLHUP) != 0 {
                sc.shared_conn.state.lock().socket_dead = true;
            } else if ev & (EPOLLIN | EPOLLRDHUP) != 0 {
                read_conn(sc, shared, &mut scratch, &mut resp, draining);
            }
            // Flushes what the read just executed inline, in this tick.
            service_conn(token, &mut conns, &poller, shared, handlers, &mut resp);
        }
        loop {
            let msgs: Vec<ShardMsg> = std::mem::take(&mut *handle.mailbox.lock());
            if msgs.is_empty() {
                break;
            }
            for msg in msgs {
                match msg {
                    ShardMsg::NewConn(stream, conn) => {
                        if draining {
                            shared.telemetry.conn_closed();
                            continue;
                        }
                        register_conn(stream, conn, &mut conns, &poller, shared);
                    }
                    ShardMsg::Touch(token) => {
                        service_conn(token, &mut conns, &poller, shared, handlers, &mut resp);
                    }
                }
            }
        }
        if draining && conns.is_empty() {
            break;
        }
    }
    // Unreachable in normal operation, but make sure the gauge stays
    // truthful if the loop ever aborts with connections open.
    for _ in conns.drain() {
        shared.telemetry.conn_closed();
    }
}

fn register_conn(
    stream: TcpStream,
    conn: Arc<ConnShared>,
    conns: &mut HashMap<u64, ShardConn>,
    poller: &Poller,
    shared: &Arc<Shared>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        shared.telemetry.conn_closed();
        return;
    }
    let token = conn.token;
    let interest = EPOLLIN | EPOLLRDHUP;
    if poller.add(stream.as_raw_fd(), token, interest).is_err() {
        shared.telemetry.conn_closed();
        return;
    }
    // Bytes the client sent before registration are not read here: the
    // level-triggered poller reports them on its next wait, so they take
    // the ordinary read → execute → flush path like every later frame.
    let sc = ShardConn {
        stream,
        decoder: FrameDecoder::new(),
        shared_conn: conn,
        interest,
        no_more_reads: false,
    };
    conns.insert(token, sc);
}

/// Reads until `WouldBlock`/EOF (bounded per tick for fairness unless
/// `unbounded`), feeding the decoder and executing or enqueueing decoded
/// frames (`resp` is the inline executor's response scratch).
fn read_conn(
    sc: &mut ShardConn,
    shared: &Arc<Shared>,
    scratch: &mut [u8],
    resp: &mut Vec<u8>,
    unbounded: bool,
) {
    if sc.no_more_reads {
        return;
    }
    let mut rounds = 0;
    loop {
        {
            let st = sc.shared_conn.state.lock();
            if !unbounded
                && (st.read_paused || st.want_close || st.socket_dead || st.handoff.is_some())
            {
                return;
            }
        }
        match sc.stream.read(scratch) {
            Ok(0) => {
                sc.no_more_reads = true;
                sc.shared_conn.state.lock().read_closed = true;
                return;
            }
            Ok(n) => {
                sc.decoder.feed(&scratch[..n]);
                decode_pending(sc, shared, resp, unbounded);
                rounds += 1;
                if !unbounded && rounds >= READ_ROUNDS_PER_TICK {
                    // Level-triggered: leftover bytes re-report next tick.
                    return;
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => {
                sc.no_more_reads = true;
                sc.shared_conn.state.lock().socket_dead = true;
                return;
            }
        }
    }
}

/// Drains the decoder into the request queue, applying the backpressure
/// caps (skipped while `draining`: shutdown executes everything already
/// sent). A connection no one owns is claimed as its frames arrive: this
/// shard runs its queue inline while the front frame may run here, for at
/// most [`FRAMES_PER_DISPATCH`] frames per call, and hands the rest to the
/// pool with `executing` still held.
fn decode_pending(sc: &mut ShardConn, shared: &Arc<Shared>, resp: &mut Vec<u8>, draining: bool) {
    let mut budget = FRAMES_PER_DISPATCH;
    loop {
        {
            let mut st = sc.shared_conn.state.lock();
            if st.handoff.is_some() || st.want_close {
                return;
            }
            if !draining
                && (st.queue.len() >= shared.opts.max_queued_requests
                    || st.out.pending() >= shared.opts.max_conn_buffer_bytes)
            {
                st.read_paused = true;
                if !st.backpressure_sent {
                    st.backpressure_sent = true;
                    let advisory = Response::Backpressure {
                        queued: st.queue.len() as u32,
                    };
                    let _ = proto::write_response(&mut st.out.buf, 0, Opcode::Get, &advisory);
                    shared.telemetry.backpressure_event();
                }
                return;
            }
        }
        match sc.decoder.next_frame() {
            Ok(Some(frame)) => {
                let mut st = sc.shared_conn.state.lock();
                st.queue.push_back(frame);
                claim(&sc.shared_conn, st, shared, resp, &mut budget);
            }
            Ok(None) => return,
            Err(e) => {
                // Corruption: the stream is no longer frame-aligned.
                // Frames decoded before the bad bytes still get served;
                // the error response and the close follow them in order.
                shared.telemetry.protocol_error();
                sc.no_more_reads = true;
                let mut st = sc.shared_conn.state.lock();
                st.pending_error = Some(format!("protocol error: {e}"));
                claim(&sc.shared_conn, st, shared, resp, &mut budget);
                return;
            }
        }
    }
}

/// Takes ownership of a connection with new work unless someone already
/// has it: executes inline what may run on this shard, then hands what is
/// left to the pool, `executing` still held.
fn claim(
    conn: &Arc<ConnShared>,
    mut st: MutexGuard<'_, ConnState>,
    shared: &Arc<Shared>,
    resp: &mut Vec<u8>,
    budget: &mut usize,
) {
    if st.executing {
        return;
    }
    st.executing = true;
    drop(st);
    if serve_conn(conn, shared, resp, ServePath::Shard, budget) {
        shared.work.push(Arc::clone(conn));
    }
}

/// Flushes, resumes, reschedules, hands off or closes one connection
/// based on its current state. Called after every event/message touching
/// the connection.
fn service_conn(
    token: u64,
    conns: &mut HashMap<u64, ShardConn>,
    poller: &Poller,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    resp: &mut Vec<u8>,
) {
    let Some(sc) = conns.get_mut(&token) else {
        return;
    };
    if sc.shared_conn.state.lock().handoff.is_some() {
        handoff_conn(token, conns, poller, shared, handlers);
        return;
    }
    write_conn(sc);

    // Resume reads once the client has drained below half the caps. The
    // decoder may still hold complete frames consumed from the kernel
    // before the pause; drain them now — level-triggered EPOLLIN only
    // re-reports bytes still sitting in the kernel buffer, so nothing
    // else will ever decode them. This must run before the close check so
    // a read-closed connection executes its final decoded requests.
    let resumed = {
        let mut st = sc.shared_conn.state.lock();
        let can = st.read_paused
            && !st.want_close
            && st.queue.len() < shared.opts.max_queued_requests / 2
            && st.out.pending() < shared.opts.max_conn_buffer_bytes / 2;
        if can {
            st.read_paused = false;
            st.backpressure_sent = false;
        }
        can
    };
    if resumed {
        decode_pending(sc, shared, resp, false);
    }

    let mut st = sc.shared_conn.state.lock();
    let out_empty = st.out.pending() == 0;
    let idle = st.queue.is_empty() && !st.executing && st.pending_error.is_none();
    let close_now = st.socket_dead
        || (st.want_close && out_empty && !st.executing)
        || (st.read_closed && idle && out_empty);
    if close_now {
        drop(st);
        let sc = conns.remove(&token).expect("connection present");
        let _ = poller.delete(sc.stream.as_raw_fd());
        shared.telemetry.conn_closed();
        return;
    }
    // An executor (shard or worker) that stalled on the write-buffer cap
    // parked the connection with work still queued; now that the buffer
    // drained, reschedule it on the pool.
    if !st.executing
        && (!st.queue.is_empty() || st.pending_error.is_some())
        && st.out.pending() < shared.opts.max_conn_buffer_bytes
    {
        st.executing = true;
        shared.work.push(Arc::clone(&sc.shared_conn));
    }
    let want_in = !st.read_paused && !sc.no_more_reads && !st.want_close;
    let want_out = st.out.pending() > 0;
    drop(st);

    // Level-triggered: on a read resume, any bytes the kernel already
    // buffered re-report on the next poll, so no immediate read is needed.
    let mut interest = EPOLLRDHUP;
    if want_in {
        interest |= EPOLLIN;
    }
    if want_out {
        interest |= EPOLLOUT;
    }
    if interest != sc.interest {
        sc.interest = interest;
        let _ = poller.modify(sc.stream.as_raw_fd(), token, interest);
    }
}

/// Writes buffered responses until the socket would block.
fn write_conn(sc: &mut ShardConn) {
    let mut st = sc.shared_conn.state.lock();
    while st.out.pending() > 0 && !st.socket_dead {
        match sc.stream.write(st.out.pending_slice()) {
            Ok(0) => {
                st.socket_dead = true;
            }
            Ok(n) => st.out.consume(n),
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => {
                st.socket_dead = true;
            }
        }
    }
}

/// Converts a connection into a replication push stream: deregisters it
/// from the event loop, restores blocking mode, flushes pending output,
/// and hands the socket (with the decoder's residual bytes and any
/// already-queued frames) to a dedicated stream thread.
fn handoff_conn(
    token: u64,
    conns: &mut HashMap<u64, ShardConn>,
    poller: &Poller,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let Some(sc) = conns.remove(&token) else {
        return;
    };
    let _ = poller.delete(sc.stream.as_raw_fd());
    let ShardConn {
        stream,
        decoder,
        shared_conn,
        ..
    } = sc;
    let (id, from, mut out, leftover) = {
        let mut st = shared_conn.state.lock();
        let (id, from) = st.handoff.take().expect("handoff set");
        let out = std::mem::take(&mut st.out);
        let leftover: Vec<Frame> = st.queue.drain(..).collect();
        (id, from, out, leftover)
    };
    if stream.set_nonblocking(false).is_err() {
        shared.telemetry.conn_closed();
        return;
    }
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    // Flush responses to requests pipelined before the subscribe, so the
    // stream's hello is the next frame the follower sees.
    let mut stream_w = &stream;
    while out.pending() > 0 {
        match stream_w.write(out.pending_slice()) {
            Ok(0) | Err(_) => {
                shared.telemetry.conn_closed();
                return;
            }
            Ok(n) => out.consume(n),
        }
    }
    let stream_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("miodb-repl-stream".to_string())
        .spawn(move || {
            serve_repl_stream(id, from, leftover, &stream, decoder, &stream_shared);
            stream_shared.telemetry.conn_closed();
        });
    match spawned {
        Ok(t) => handlers.lock().push(t),
        Err(_) => shared.telemetry.conn_closed(),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut out = Vec::new();
    while let Some(conn) = shared.work.pop() {
        let mut budget = FRAMES_PER_DISPATCH;
        if serve_conn(&conn, shared, &mut out, ServePath::Worker, &mut budget) {
            shared.work.push(Arc::clone(&conn));
        }
        let shard = &shared.shards[conn.shard];
        shard.send(ShardMsg::Touch(conn.token));
    }
}

/// Executes one connection's queued frames in order, at most `budget` of
/// them; on the shard `path`, only while the front frame may run there.
/// Returns `true` when the connection still holds work and `executing`
/// (the caller hands it to the pool, or requeues it there).
fn serve_conn(
    conn: &Arc<ConnShared>,
    shared: &Arc<Shared>,
    out: &mut Vec<u8>,
    path: ServePath,
    budget: &mut usize,
) -> bool {
    loop {
        let frame = {
            let mut st = conn.state.lock();
            if st.want_close || st.socket_dead || st.handoff.is_some() {
                st.executing = false;
                return false;
            }
            if st.out.pending() >= shared.opts.max_conn_buffer_bytes {
                // Stalled on the write buffer: park; the shard reschedules
                // once the client drains.
                st.executing = false;
                return false;
            }
            let Some(front) = st.queue.front() else {
                if let Some(msg) = st.pending_error.take() {
                    let resp = Response::Err(msg);
                    let _ = proto::write_response(&mut st.out.buf, 0, Opcode::Get, &resp);
                    st.want_close = true;
                }
                st.executing = false;
                return false;
            };
            // Out of budget (yield to other connections), or a frame that
            // may block reached a shard: `executing` stays set so no one
            // else can claim the queue until the pool has it.
            if *budget == 0 || (path == ServePath::Shard && !shared.runs_inline(front)) {
                return true;
            }
            *budget -= 1;
            st.queue.pop_front().expect("front frame present")
        };
        out.clear();
        let outcome = serve_frame(&frame, shared, out);
        shared.telemetry.request_served(path);
        match outcome {
            FrameOutcome::Wrote => {
                let mut st = conn.state.lock();
                st.out.buf.extend_from_slice(out);
            }
            FrameOutcome::NoResponse => {}
            FrameOutcome::Close => {
                let mut st = conn.state.lock();
                st.queue.clear();
                st.pending_error = None;
                st.want_close = true;
                st.executing = false;
                return false;
            }
            FrameOutcome::StartStream { id, from } => {
                let mut st = conn.state.lock();
                st.handoff = Some((id, from));
                st.executing = false;
                return false;
            }
        }
    }
}

/// What serving one frame decided about the connection's future.
enum FrameOutcome {
    /// A response was encoded into the scratch buffer.
    Wrote,
    /// No response frame (fire-and-forget opcodes).
    NoResponse,
    /// Close the connection (after flushing earlier responses).
    Close,
    /// Convert the connection into a replication push stream, resuming
    /// after `from`.
    StartStream {
        /// Request id of the subscribe handshake (echoed on the hello).
        id: u32,
        /// Resume point: push records with sequence numbers after this.
        from: u64,
    },
}

/// Opcodes exchanged between group members (not clients): these are what
/// a simulated partition drops.
fn is_inter_node(opcode: u8) -> bool {
    matches!(
        Opcode::from_u8(opcode),
        Some(Opcode::ReplSubscribe | Opcode::ReplAck | Opcode::ReplVote | Opcode::SnapshotFetch)
    )
}

/// Decodes and executes one frame, encoding any response into `out`.
/// Decode failure after a structurally valid frame keeps the connection
/// open — framing is still aligned.
fn serve_frame(frame: &Frame, shared: &Shared, out: &mut Vec<u8>) -> FrameOutcome {
    // Injected stall: a `Latency` policy sleeps inside `hit`, holding this
    // connection's pipeline — and, for a frame running inline, every
    // connection on its shard — while the other shards keep serving.
    let _ = fault::hit(fault::points::SERVER_REQUEST_STALL);
    // Injected drop: close the connection without responding — the client
    // must treat an in-flight mutation as ambiguous (`MaybeApplied`) and
    // reconnect. Other connections are unaffected.
    if fault::hit(fault::points::SERVER_CONN_DROP).is_some() {
        return FrameOutcome::Close;
    }
    // Simulated partition: peer traffic vanishes mid-network, exactly as
    // a real partition would look — no refusal frame, just silence.
    if shared.partitioned() && is_inter_node(frame.opcode) {
        return FrameOutcome::Close;
    }
    let started = Instant::now();
    shared.telemetry.request_begin();
    // Adopt the frame's wire trace context so engine-internal spans (and
    // the response frame header) join the client's trace. Both guards
    // live until after the response is encoded.
    let _ctx = (frame.sampled && frame.trace_id != 0 && trace::is_enabled()).then(|| {
        trace::with_ctx(TraceCtx {
            trace_id: frame.trace_id,
            span_id: 0,
            sampled: true,
        })
    });
    let mut srv_span = trace::span(SpanKind::SrvRequest);
    srv_span.annotate(u64::from(frame.opcode));
    let decoded = {
        let _d = trace::span(SpanKind::SrvDecode);
        Request::decode(frame.opcode, &frame.body)
    };
    let (op, resp) = match decoded {
        // Subscribe handshake: answered from the stream handler (it needs
        // the log bounds and a registered subscriber id).
        Ok(Request::ReplSubscribe { from, epoch }) => {
            shared
                .telemetry
                .request_end(Opcode::ReplSubscribe, started.elapsed().as_nanos() as u64);
            // A subscriber presenting a newer epoch fences us: somewhere
            // an election we missed has concluded.
            if epoch > shared.role.epoch() {
                shared.role.observe_epoch(epoch, "");
            }
            if shared.leader() && shared.replicator.is_some() {
                return FrameOutcome::StartStream { id: frame.id, from };
            }
            let resp = if shared.role.is_deposed() {
                shared.stale_epoch()
            } else if !shared.replication_enabled {
                Response::Err("replication not enabled".to_string())
            } else {
                shared.not_leader()
            };
            let _ = proto::write_response(out, frame.id, Opcode::ReplSubscribe, &resp);
            return FrameOutcome::Wrote;
        }
        // Acks are fire-and-forget (no response frame); outside a
        // subscriber stream there is nothing to credit one to — but the
        // epoch on one still fences.
        Ok(Request::ReplAck { epoch, .. }) => {
            shared
                .telemetry
                .request_end(Opcode::ReplAck, started.elapsed().as_nanos() as u64);
            if epoch > shared.role.epoch() {
                shared.role.observe_epoch(epoch, "");
            }
            return FrameOutcome::NoResponse;
        }
        Ok(req) => {
            let op = req.opcode();
            let _e = trace::span(SpanKind::SrvExecute);
            (op, execute(&req, shared))
        }
        Err(e) => {
            shared.telemetry.protocol_error();
            // An unknown opcode gets a typed in-band refusal and the
            // connection stays usable — framing is still aligned, so an
            // older server probed by a newer client degrades gracefully.
            let msg = if Opcode::from_u8(frame.opcode).is_none() {
                format!("unsupported opcode {:#x}", frame.opcode)
            } else {
                format!("bad request: {e}")
            };
            (Opcode::Get, Response::Err(msg))
        }
    };
    shared
        .telemetry
        .request_end(op, started.elapsed().as_nanos() as u64);
    let _ = proto::write_response(out, frame.id, op, &resp);
    FrameOutcome::Wrote
}

fn execute(req: &Request, shared: &Shared) -> Response {
    let engine = shared.engine();
    // Non-leaders refuse mutations *before* any engine work: the request
    // is provably not applied, so the client's redirect-and-retry is
    // always safe (no duplicate-write ambiguity, unlike a dropped
    // connection). A *deposed* leader answers the typed `StaleEpoch` —
    // the distinction matters: `NotLeader` means "follow the hint",
    // `StaleEpoch` means "your leader view is stale, refresh it".
    if matches!(
        req,
        Request::Put { .. } | Request::Delete { .. } | Request::Batch { .. }
    ) {
        if shared.role.is_deposed() {
            return shared.stale_epoch();
        }
        if !shared.leader() {
            return shared.not_leader();
        }
        // Quorum-level admission: a leader that cannot possibly reach a
        // majority refuses typed rather than accepting a write that
        // could never quorum-ack (the partitioned-leader case).
        if let Some(r) = &shared.replicator {
            if let Err(e) = r.admit_write() {
                return error_response(&e);
            }
        }
    }
    let result = match req {
        Request::Get { key } => engine.get(key).map(Response::Value),
        Request::Put { key, value } => engine.put(key, value).map(|()| Response::Ok),
        Request::Delete { key } => engine.delete(key).map(|()| Response::Ok),
        Request::Scan { start, limit } => {
            engine.scan(start, *limit as usize).map(Response::Entries)
        }
        Request::Batch { ops } => ops
            .iter()
            .try_for_each(|(key, value, kind)| match kind {
                OpKind::Put => engine.put(key, value),
                OpKind::Delete => engine.delete(key),
            })
            .map(|()| Response::Ok),
        Request::Stats => {
            let mut reg = MetricsRegistry::new();
            engine.register_metrics(&mut reg);
            shared.telemetry.register(&mut reg);
            if let Some(replicator) = &shared.replicator {
                replicator.register(&mut reg);
            }
            Ok(Response::Stats(reg.render_prometheus()))
        }
        // Drains every span buffered so far (client spans too when the
        // tracer is process-global, as in netbench) as Chrome trace JSON.
        Request::TraceDump => Ok(Response::Trace(trace::to_chrome_json(&trace::drain()))),
        Request::SnapshotFetch => match &shared.snapshot {
            Some(produce) => produce().map(Response::Snapshot),
            None => Ok(Response::Err("snapshot serving not configured".to_string())),
        },
        // Election traffic: probes (epoch 0) report status, ballots go
        // through the one-vote-per-epoch gate. A deposed-by-ballot leader
        // steps down inside `consider_vote` before the candidate's first
        // write can race it.
        Request::ReplVote {
            epoch,
            last_seq,
            candidate,
        } => {
            if !shared.replication_enabled {
                Ok(Response::Err("replication not enabled".to_string()))
            } else {
                let my_seq = shared.applied_seq();
                let granted = shared.role.consider_vote(
                    *epoch,
                    *last_seq,
                    candidate,
                    my_seq,
                    &shared.advertised_addr,
                );
                Ok(Response::Vote {
                    granted,
                    epoch: shared.role.epoch(),
                    last_seq: my_seq,
                    leader_live: shared.role.leader_live(),
                    leader_hint: shared.role.leader_hint(),
                })
            }
        }
        // Handled in serve_frame before execute; kept for exhaustiveness.
        Request::ReplSubscribe { .. } | Request::ReplAck { .. } => Ok(Response::Err(
            "replication opcode outside stream handshake".to_string(),
        )),
    };
    result.unwrap_or_else(|e| error_response(&e))
}

/// Runs a subscriber connection after the `ReplSubscribe` handshake: this
/// thread pushes epoch-stamped `ReplRecords` frames (fed from the
/// replication log, with heartbeats when idle) while a companion thread
/// reads `ReplAck` frames off the same socket. Every ack — heartbeat acks
/// included — feeds the follower failure detector and the fencing check.
/// Ends on follower hangup, follower death (silence past the deadline),
/// deposition (an ack or ballot carried a newer epoch — the final frame
/// is then a `StaleEpoch` goodbye), shutdown, partition, log truncation
/// or an injected `repl.stream.drop`.
///
/// `leftover` carries frames the event loop had already decoded past the
/// subscribe (acks a follower pipelined before the hello), and `decoder`
/// any bytes it read after them; the frames are credited before the
/// socket is read.
fn serve_repl_stream(
    id: u32,
    from: u64,
    leftover: Vec<Frame>,
    stream: &TcpStream,
    mut decoder: FrameDecoder,
    shared: &Shared,
) {
    let Some(replicator) = &shared.replicator else {
        return;
    };
    let (log_start, last) = replicator.subscribe_bounds();
    let hello = Response::ReplSubscribed {
        log_start,
        last,
        epoch: shared.role.epoch(),
    };
    let mut writer = BufWriter::new(stream);
    if proto::write_response(&mut writer, id, Opcode::ReplSubscribe, &hello).is_err()
        || writer.flush().is_err()
    {
        return;
    }
    let sub_id = replicator.register_subscriber();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Ack reader: same socket, opposite direction. Exits when the
        // follower hangs up, or polls `stop` at its read timeout after the
        // sender below ends the stream — mid-frame too, so a follower
        // stalled half-way through an ack cannot hold this thread.
        let ack_thread = std::thread::Builder::new()
            .name("miodb-repl-ack".to_string())
            .spawn_scoped(s, || {
                let credit = |frame: &Frame| {
                    if let Ok(Request::ReplAck { offset, epoch }) =
                        Request::decode(frame.opcode, &frame.body)
                    {
                        // Fencing: a follower that voted in an election we
                        // missed reports the new epoch here; observing it
                        // deposes this leader and the sender loop below
                        // winds the stream down.
                        if epoch > shared.role.epoch() {
                            shared.role.observe_epoch(epoch, "");
                        }
                        replicator.record_ack(sub_id, offset);
                    }
                };
                for frame in &leftover {
                    credit(frame);
                }
                loop {
                    match decoder.read_frame(&mut &*stream) {
                        Ok(Some(frame)) => credit(&frame),
                        Ok(None) => break,
                        Err(Error::Io(ref e)) if proto::is_timeout(e) => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                stop.store(true, Ordering::Release);
            })
            .ok();

        let mut cursor = from;
        loop {
            if stop.load(Ordering::Acquire) || shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            // Deposed mid-stream: say goodbye with the typed frame so the
            // follower learns the fence even before it finds the new leader.
            if !shared.leader() {
                let _ = proto::write_response(
                    &mut writer,
                    0,
                    Opcode::ReplRecords,
                    &shared.stale_epoch(),
                );
                let _ = writer.flush();
                break;
            }
            // Simulated partition: the stream just dies, no goodbye.
            if shared.partitioned() {
                break;
            }
            // Follower failure detection: acks (heartbeat acks included)
            // arrive at least every poll interval from a live follower;
            // silence past the deadline drops it from the quorum set.
            if shared
                .replication_enabled
                .then(|| replicator.ack_silent_for(sub_id))
                .flatten()
                .is_some_and(|silent| silent >= shared.follower_dead_timeout)
            {
                break;
            }
            // Injected stream drop: the subscriber connection dies without a
            // goodbye; the follower reconnects and resumes from its applied
            // offset.
            if fault::hit(fault::points::REPL_STREAM_DROP).is_some() {
                break;
            }
            let fetched = replicator.fetch_after(cursor, MAX_REPL_FETCH_BYTES, REPL_POLL);
            if fetched.truncated {
                let resp =
                    Response::Err("replication log truncated; snapshot required".to_string());
                let _ = proto::write_response(&mut writer, 0, Opcode::ReplRecords, &resp);
                let _ = writer.flush();
                break;
            }
            let batches: Vec<ReplBatch> = fetched
                .entries
                .iter()
                .map(|e| ReplBatch {
                    seq_first: e.seq_first,
                    seq_last: e.seq_last,
                    bytes: e.bytes.as_ref().clone(),
                })
                .collect();
            if let Some(tail) = batches.last() {
                cursor = tail.seq_last;
            }
            // An empty batch list is the heartbeat.
            let frame = Response::ReplRecords {
                epoch: shared.role.epoch(),
                batches,
            };
            if proto::write_response(&mut writer, 0, Opcode::ReplRecords, &frame).is_err()
                || writer.flush().is_err()
            {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(t) = ack_thread {
            let _ = t.join();
        }
    });
    replicator.deregister_subscriber(sub_id);
}
