//! Blocking TCP client for the MioDB wire protocol.
//!
//! [`KvClient`] wraps one connection with buffered reads and writes. The
//! convenience methods ([`put`](KvClient::put), [`get`](KvClient::get), …)
//! are strict request/response round trips; the pipelining primitives
//! ([`send`](KvClient::send) / [`flush`](KvClient::flush) /
//! [`recv`](KvClient::recv), or [`pipeline`](KvClient::pipeline)) keep many
//! requests in flight on one connection, which is where the protocol's
//! throughput comes from — the server answers strictly in request order,
//! so responses match sends positionally.
//!
//! # Failure handling
//!
//! Every socket carries the read/write timeouts from [`ClientOptions`]. On
//! a transport failure the client drops the dead connection and reconnects
//! lazily with exponential backoff plus jitter. What the caller sees
//! depends on the operation:
//!
//! - **Idempotent requests** (GET / SCAN / STATS) are retried transparently
//!   up to [`ClientOptions::max_retries`] times — re-asking a question the
//!   server may already have answered is harmless.
//! - **Mutations** (PUT / DELETE / BATCH) that fail after any part of the
//!   request may have reached the server return
//!   [`Error::MaybeApplied`]: the operation might have been applied, and a
//!   blind resend could apply it twice. The caller decides (read back, or
//!   resend if its writes are idempotent at the application level). The
//!   connection is still re-established for subsequent operations.
//! - The raw pipelining primitives never retry — positional response
//!   matching makes retry a caller-level decision — but they do mark the
//!   connection dead so the next operation reconnects.
//! - **Leader redirects.** A replicated follower refuses mutations with a
//!   typed `NotLeader` frame carrying the group epoch and the leader's
//!   address. Because the refusal happens before any engine work, the
//!   mutation is provably not applied, so the client transparently
//!   re-dials the hinted address and retries (counted in
//!   [`ClientCounters::redirects`]). The loop is bounded: at most
//!   [`ClientOptions::max_redirects`] hops with jittered backoff between
//!   them — two nodes hinting at each other mid-election cannot trap the
//!   client (each exhausted loop is counted in
//!   [`ClientCounters::redirect_loops`]). An empty hint (leader unknown
//!   mid-election) burns a hop waiting for the election to settle. A
//!   client pointed at a follower still serves reads from it (replica
//!   reads — staleness is bounded by the replication lag, zero under
//!   semi-sync/quorum acks).
//! - **Fencing and quorum refusals.** A *deposed* leader answers
//!   mutations with the typed `StaleEpoch` frame, and a quorum-level
//!   leader cut off from its majority answers `QuorumLost`. Both surface
//!   as their typed errors ([`Error::StaleEpoch`],
//!   [`Error::QuorumLost`]) rather than being retried: the first means
//!   the caller's leader view needs a refresh, the second is a
//!   structural outage where blind retry is exactly wrong. The epoch
//!   carried on refusals is remembered ([`KvClient::observed_epoch`]).
//!
//! ```no_run
//! use miodb_client::KvClient;
//!
//! let mut c = KvClient::connect("127.0.0.1:7878").unwrap();
//! c.put(b"k", b"v").unwrap();
//! assert_eq!(c.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! ```

#![deny(missing_docs)]

use miodb_common::proto::{self, FrameDecoder, Request, Response};
use miodb_common::trace::{self, SpanKind, TraceCtx};
use miodb_common::{Error, OpKind, Result, ScanEntry};
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client resilience tunables.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Socket read timeout; `None` blocks forever. A recv that times out
    /// surfaces as [`Error::Io`] (and [`Error::MaybeApplied`] for
    /// mutations) rather than hanging the caller.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Retry budget for idempotent requests and reconnect attempts.
    pub max_retries: u32,
    /// Hop budget for following `NotLeader` redirects on one mutation;
    /// exhausted loops surface the final `NotLeader` and count in
    /// [`ClientCounters::redirect_loops`].
    pub max_redirects: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling (before jitter).
    pub backoff_max: Duration,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            max_retries: 3,
            max_redirects: 4,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
        }
    }
}

/// Transport-failure counters, cheap to copy out for benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Requests retried after a transport failure (idempotent ops only).
    pub retries: u64,
    /// Socket read/write timeouts observed.
    pub timeouts: u64,
    /// Connections re-established after a failure.
    pub reconnects: u64,
    /// Mutations whose outcome was reported as [`Error::MaybeApplied`].
    pub ambiguous: u64,
    /// Mutations re-dialed to a hinted leader after a `NotLeader` refusal.
    pub redirects: u64,
    /// Mutations that exhausted the redirect hop budget without finding a
    /// willing leader (hint cycles or a group mid-election).
    pub redirect_loops: u64,
    /// In-band backpressure advisories received (the server paused
    /// reading this connection until responses were drained).
    pub backpressure: u64,
}

/// One dialed socket and the decoder its responses are read through.
/// Reads and writes share the one descriptor (`&TcpStream` implements
/// both `Read` and `Write`; writes are buffered locally), so a connection
/// costs one fd instead of a `try_clone`d pair — that factor of two is
/// what lets a 10k-connection sweep driver fit under a 20k-fd
/// `RLIMIT_NOFILE`.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    wbuf: Vec<u8>,
}

/// Pending writes beyond this spill to the socket on the next `write`
/// call, mirroring `BufWriter`'s bounded-memory behavior.
const WRITE_SPILL_BYTES: usize = 64 * 1024;

impl Conn {
    fn write_frame_with<F>(&mut self, f: F) -> std::io::Result<()>
    where
        F: FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
    {
        if self.wbuf.len() >= WRITE_SPILL_BYTES {
            self.flush()?;
        }
        f(&mut self.wbuf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            (&self.stream).write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }
}

/// One blocking connection to a MioDB server, with automatic reconnect.
#[derive(Debug)]
pub struct KvClient {
    conn: Option<Conn>,
    addrs: Vec<SocketAddr>,
    opts: ClientOptions,
    next_id: u32,
    counters: ClientCounters,
    jitter: u64,
    /// Highest replication epoch seen on a typed refusal; a refreshed
    /// leader view is one with a higher epoch.
    last_epoch: u64,
    /// Sampled in-flight requests awaiting their response, in send order:
    /// `(request id, trace context, send-start ns)`. Empty whenever
    /// tracing is off. Responses match positionally by id, so the whole
    /// round trip can be recorded as one span at receive time even under
    /// pipelining.
    inflight_trace: VecDeque<(u32, TraceCtx, u64)>,
}

impl KvClient {
    /// Connects with [`ClientOptions::default`] and disables Nagle (the
    /// protocol already batches via explicit flushes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<KvClient> {
        KvClient::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit [`ClientOptions`]. The resolved addresses are
    /// kept for automatic reconnects.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if resolution yields no address or every
    /// address refuses the connection.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, opts: ClientOptions) -> Result<KvClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(Error::Io)?.collect();
        if addrs.is_empty() {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )));
        }
        let conn = dial(&addrs, &opts)?;
        // Seed the backoff jitter from a per-process random hasher: clients
        // that fail together then retry spread out instead of stampeding.
        let jitter = RandomState::new().build_hasher().finish() | 1;
        Ok(KvClient {
            conn: Some(conn),
            addrs,
            opts,
            next_id: 1,
            counters: ClientCounters::default(),
            jitter,
            last_epoch: 0,
            inflight_trace: VecDeque::new(),
        })
    }

    /// Transport-failure counters accumulated over this client's lifetime.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// Highest replication epoch observed on `NotLeader`/`StaleEpoch`
    /// refusals (0 until one is seen). Lets callers tell a fresh leader
    /// view from a stale one when re-resolving after [`Error::StaleEpoch`].
    pub fn observed_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// True while a live connection is held (a failed operation drops it;
    /// the next operation reconnects).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    // ----- connection management -------------------------------------

    /// Ensures a live connection, dialing with exponential backoff plus
    /// jitter after failures. Counts a reconnect when a new connection had
    /// to be made.
    fn ensure_connected(&mut self) -> Result<&mut Conn> {
        if self.conn.is_none() {
            let mut attempt = 0u32;
            let conn = loop {
                match dial(&self.addrs, &self.opts) {
                    Ok(c) => break c,
                    Err(e) => {
                        if attempt >= self.opts.max_retries {
                            return Err(e);
                        }
                        attempt += 1;
                        std::thread::sleep(self.backoff_delay(attempt));
                    }
                }
            };
            self.conn = Some(conn);
            // Request ids are per-connection; the server never sees the old
            // stream again, so restarting avoids id-space drift.
            self.next_id = 1;
            self.counters.reconnects += 1;
            // In-flight requests died with the old connection.
            self.inflight_trace.clear();
        }
        // Invariant: just populated above if it was None.
        Ok(self.conn.as_mut().unwrap())
    }

    /// Exponential backoff for `attempt` (1-based) with up to +50% jitter.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .opts
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.opts.backoff_max);
        // xorshift64*: cheap deterministic stream per client.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let frac = (self.jitter % 512) as u32; // 0..512 -> 0..50% of exp
        exp + exp.saturating_mul(frac) / 1024
    }

    /// Drops the connection after a transport failure and classifies the
    /// error for the counters.
    fn note_transport_failure(&mut self, e: &std::io::Error) {
        if proto::is_timeout(e) {
            self.counters.timeouts += 1;
        }
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Responses for in-flight requests will never arrive.
        self.inflight_trace.clear();
    }

    // ----- pipelining primitives -------------------------------------

    /// Buffers one request; returns the id its response will echo. Call
    /// [`flush`](KvClient::flush) to put buffered requests on the wire.
    ///
    /// Never retries (see the module docs); a failure marks the connection
    /// dead so the next operation reconnects.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn send(&mut self, req: &Request) -> Result<u32> {
        self.ensure_connected()?;
        // Read the id only after a possible reconnect reset it.
        let id = self.next_id;
        // Sampling decision for this round trip; the context rides the
        // frame header while installed below.
        let ctx = trace::begin_trace();
        let send_start = if ctx.sampled { trace::now_ns() } else { 0 };
        // Invariant: `ensure_connected` just succeeded.
        let conn = self.conn.as_mut().unwrap();
        let written = {
            let _c = trace::with_ctx(ctx);
            conn.write_frame_with(|buf| proto::write_request(buf, id, req))
        };
        match written {
            Ok(()) => {
                if ctx.sampled {
                    trace::record(
                        SpanKind::ClientSend,
                        ctx.trace_id,
                        0,
                        ctx.span_id,
                        send_start,
                        trace::now_ns(),
                        0,
                    );
                    self.inflight_trace.push_back((id, ctx, send_start));
                }
                self.next_id = self.next_id.wrapping_add(1);
                Ok(id)
            }
            Err(e) => {
                self.note_transport_failure(&e);
                Err(Error::Io(e))
            }
        }
    }

    /// Flushes buffered requests to the socket.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn flush(&mut self) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(()); // nothing buffered on a dead connection
        };
        match conn.flush() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.note_transport_failure(&e);
                Err(Error::Io(e))
            }
        }
    }

    /// Reads the next response frame (blocking up to the read timeout).
    /// Responses arrive in request order; the returned id echoes the
    /// matching [`send`].
    ///
    /// An in-band server error decodes as [`Response::Err`] — it is *not*
    /// turned into `Err(_)` here, because in a pipeline the caller must
    /// still pair it with its request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on transport failure or timeout (including
    /// the server closing the connection) and [`Error::Corruption`] for
    /// frames that fail CRC or decoding.
    ///
    /// [`send`]: KvClient::send
    pub fn recv(&mut self) -> Result<(u32, Response)> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection previously failed",
            )));
        };
        let recv_start = match self.inflight_trace.front() {
            Some(_) => trace::now_ns(),
            None => 0,
        };
        let mut advisories = 0u64;
        let read = loop {
            match conn.decoder.read_frame(&mut &conn.stream) {
                Ok(Some(frame))
                    if frame.opcode & !proto::RESPONSE_BIT == proto::OP_BACKPRESSURE =>
                {
                    // Advisory, not an answer to any request (id 0): count
                    // it and keep waiting for the real response. Draining
                    // responses is exactly what releases the pressure.
                    advisories += 1;
                }
                other => break other,
            }
        };
        self.counters.backpressure += advisories;
        self.finish_recv(read, recv_start)
    }

    fn finish_recv(
        &mut self,
        read: Result<Option<proto::Frame>>,
        recv_start: u64,
    ) -> Result<(u32, Response)> {
        match read {
            Ok(Some(frame)) => {
                // If this frame answers the oldest sampled request, close
                // out its round-trip spans (responses arrive in order, so
                // a front-id match is exact).
                if let Some(&(fid, ctx, send_start)) = self.inflight_trace.front() {
                    if fid == frame.id {
                        self.inflight_trace.pop_front();
                        let now = trace::now_ns();
                        trace::record(
                            SpanKind::ClientRecv,
                            ctx.trace_id,
                            0,
                            ctx.span_id,
                            recv_start,
                            now,
                            0,
                        );
                        trace::record(
                            SpanKind::ClientRequest,
                            ctx.trace_id,
                            ctx.span_id,
                            0,
                            send_start,
                            now,
                            u64::from(frame.opcode),
                        );
                    }
                }
                let resp = Response::decode(frame.opcode, &frame.body)?;
                Ok((frame.id, resp))
            }
            Ok(None) => {
                let e = std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                );
                self.note_transport_failure(&e);
                Err(Error::Io(e))
            }
            Err(Error::Io(e)) => {
                self.note_transport_failure(&e);
                Err(Error::Io(e))
            }
            Err(other) => Err(other),
        }
    }

    /// Bytes already buffered on the read side. Nonzero means at least
    /// part of a response frame has arrived, so a [`recv`](KvClient::recv)
    /// will return promptly — closed-loop drivers use this to drain every
    /// available response before refilling the pipeline, keeping requests
    /// and responses batched instead of degenerating into one-frame
    /// ping-pong.
    pub fn buffered(&self) -> usize {
        self.conn.as_ref().map_or(0, |c| c.decoder.buffered())
    }

    /// Sends `reqs` back to back with one flush, then collects their
    /// responses in order. Never retries (positional matching makes retry
    /// a caller-level decision).
    ///
    /// # Errors
    ///
    /// Returns the first transport or decode error; in-band
    /// [`Response::Err`] values are returned in the vector.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>> {
        for req in reqs {
            self.send(req)?;
        }
        self.flush()?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            out.push(self.recv()?.1);
        }
        Ok(out)
    }

    // ----- one-shot convenience calls --------------------------------

    /// One strict round trip on the current connection; transport errors
    /// have already marked the connection dead when this returns.
    fn try_round_trip(&mut self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        self.flush()?;
        let (got_id, resp) = self.recv()?;
        // Err first: out-of-band refusals (connection limit) carry id 0.
        if let Response::Err(msg) = resp {
            return Err(Error::Background(msg));
        }
        match resp {
            Response::NotLeader { epoch, hint } => {
                self.last_epoch = self.last_epoch.max(epoch);
                return Err(Error::NotLeader(hint));
            }
            Response::StaleEpoch { epoch, hint } => {
                self.last_epoch = self.last_epoch.max(epoch);
                return Err(Error::StaleEpoch { epoch, hint });
            }
            Response::QuorumLost { have, need } => {
                return Err(Error::QuorumLost {
                    have: have as usize,
                    need: need as usize,
                });
            }
            _ => {}
        }
        if got_id != id {
            // The stream can no longer be trusted to pair responses.
            let e = std::io::Error::other("response id mismatch");
            self.note_transport_failure(&e);
            return Err(Error::Corruption(format!(
                "response id {got_id} does not match request id {id}"
            )));
        }
        Ok(resp)
    }

    /// Round trip for idempotent requests: transport failures reconnect
    /// (with backoff) and retry up to the configured budget.
    fn round_trip_idempotent(&mut self, req: &Request) -> Result<Response> {
        let mut attempt = 0u32;
        loop {
            match self.try_round_trip(req) {
                Err(Error::Io(e)) if attempt < self.opts.max_retries => {
                    attempt += 1;
                    self.counters.retries += 1;
                    let delay = self.backoff_delay(attempt);
                    std::thread::sleep(delay);
                    let _ = e;
                }
                other => return other,
            }
        }
    }

    /// Round trip for mutations: once any part of the request may have
    /// reached the server, a transport failure is ambiguous — surface
    /// [`Error::MaybeApplied`] instead of guessing. A `NotLeader` refusal
    /// is the opposite of ambiguous (the server provably applied nothing),
    /// so the client re-dials the hinted leader and retries — but only up
    /// to the hop budget, with jittered backoff between hops, so hint
    /// cycles and mid-election churn cannot trap it. `StaleEpoch` and
    /// `QuorumLost` are *not* retried: both are typed verdicts (refresh
    /// your leader view; the group lost its majority) where blind retry
    /// hides the condition the type exists to surface.
    fn round_trip_mutation(&mut self, req: &Request, what: &str) -> Result<Response> {
        let mut redirects = 0u32;
        loop {
            let was_connected = self.conn.is_some();
            match self.try_round_trip(req) {
                Err(Error::NotLeader(hint)) => {
                    if redirects >= self.opts.max_redirects {
                        self.counters.redirect_loops += 1;
                        return Err(Error::NotLeader(hint));
                    }
                    // An empty hint means the group is mid-election:
                    // burning a hop on backoff alone gives it time to
                    // settle, then re-asks the same node.
                    if hint.is_empty() || self.redirect_to(&hint) {
                        redirects += 1;
                        self.counters.redirects += 1;
                        let delay = self.backoff_delay(redirects);
                        std::thread::sleep(delay);
                        continue;
                    }
                    return Err(Error::NotLeader(hint));
                }
                Err(Error::Io(e)) => {
                    if was_connected {
                        self.counters.ambiguous += 1;
                        return Err(Error::MaybeApplied(format!(
                            "{what} interrupted by transport failure: {e}"
                        )));
                    }
                    // The failure happened while (re)connecting — nothing
                    // was ever sent, so the plain error is accurate and the
                    // caller may retry safely.
                    return Err(Error::Io(e));
                }
                other => return other,
            }
        }
    }

    /// Re-points this client at `hint` (a `NotLeader` redirect target) and
    /// drops the current connection so the next operation dials it.
    /// Returns `false` if the hint does not resolve.
    fn redirect_to(&mut self, hint: &str) -> bool {
        let Ok(resolved) = hint.to_socket_addrs() else {
            return false;
        };
        let addrs: Vec<SocketAddr> = resolved.collect();
        if addrs.is_empty() {
            return false;
        }
        self.addrs = addrs;
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.inflight_trace.clear();
        true
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// [`Error::MaybeApplied`] if the connection failed mid-request (the
    /// put may or may not have been applied), [`Error::Background`]
    /// carrying the server's error message, or [`Error::Io`] if no
    /// connection could be established at all.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match self.round_trip_mutation(
            &Request::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            "PUT",
        )? {
            Response::Ok => Ok(()),
            other => Err(unexpected("PUT", &other)),
        }
    }

    /// Looks up `key`. Idempotent: transparently retried over a reconnect
    /// after transport failures.
    ///
    /// # Errors
    ///
    /// Transport errors (after the retry budget), or [`Error::Background`]
    /// carrying the server's error message.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.round_trip_idempotent(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected("GET", &other)),
        }
    }

    /// Deletes `key`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvClient::put`] (including
    /// [`Error::MaybeApplied`]).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        match self.round_trip_mutation(&Request::Delete { key: key.to_vec() }, "DELETE")? {
            Response::Ok => Ok(()),
            other => Err(unexpected("DELETE", &other)),
        }
    }

    /// Returns up to `limit` entries with keys `>= start`, ascending,
    /// merged across the server's shards. Idempotent: transparently
    /// retried like [`KvClient::get`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvClient::get`].
    pub fn scan(&mut self, start: &[u8], limit: u32) -> Result<Vec<ScanEntry>> {
        match self.round_trip_idempotent(&Request::Scan {
            start: start.to_vec(),
            limit,
        })? {
            Response::Entries(entries) => Ok(entries),
            other => Err(unexpected("SCAN", &other)),
        }
    }

    /// Applies `(key, value, kind)` operations in order as one request.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvClient::put`] (the whole batch is one
    /// mutation: a mid-request failure is ambiguous for all of it).
    pub fn batch(&mut self, ops: Vec<(Vec<u8>, Vec<u8>, OpKind)>) -> Result<()> {
        match self.round_trip_mutation(&Request::Batch { ops }, "BATCH")? {
            Response::Ok => Ok(()),
            other => Err(unexpected("BATCH", &other)),
        }
    }

    /// Fetches the server's metrics in Prometheus text exposition format
    /// (engine families plus `miodb_server_*` service families).
    /// Idempotent: transparently retried like [`KvClient::get`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvClient::get`].
    pub fn stats(&mut self) -> Result<String> {
        match self.round_trip_idempotent(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            other => Err(unexpected("STATS", &other)),
        }
    }

    /// Drains the server's collected trace spans as Chrome trace-event
    /// JSON (loadable in Perfetto). Destructive read: each span is
    /// returned once. Idempotent at the transport level, so retried like
    /// [`KvClient::get`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`KvClient::get`].
    pub fn trace_dump(&mut self) -> Result<String> {
        match self.round_trip_idempotent(&Request::TraceDump)? {
            Response::Trace(text) => Ok(text),
            other => Err(unexpected("TRACE", &other)),
        }
    }

    /// Flushes outstanding writes and shuts the connection down.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the final flush fails.
    pub fn close(mut self) -> Result<()> {
        if let Some(mut conn) = self.conn.take() {
            conn.flush().map_err(Error::Io)?;
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        Ok(())
    }
}

/// Dials the first reachable address and applies the socket options.
fn dial(addrs: &[SocketAddr], opts: &ClientOptions) -> Result<Conn> {
    let mut last_err: Option<std::io::Error> = None;
    for addr in addrs {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(Error::Io)?;
                stream
                    .set_read_timeout(opts.read_timeout)
                    .map_err(Error::Io)?;
                stream
                    .set_write_timeout(opts.write_timeout)
                    .map_err(Error::Io)?;
                return Ok(Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                    wbuf: Vec::new(),
                });
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(Error::Io(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address to dial")
    })))
}

fn unexpected(what: &str, resp: &Response) -> Error {
    Error::Corruption(format!("unexpected {what} response: {resp:?}"))
}
