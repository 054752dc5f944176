//! Low-overhead end-to-end request tracing with critical-path spans.
//!
//! A process-global tracer collects [`SpanRecord`]s — timed, parented
//! intervals such as *commit-queue wait*, *WAL append* or *per-level
//! probe* — into a bounded lock-free [`MpmcRing`]. Trace context travels
//! in a thread-local [`TraceCtx`] (installed by the server per request,
//! by the client per round trip, or implicitly by the engine for
//! direct-drive harnesses), so instrumentation sites never thread ids
//! through APIs: [`span`] reads the context, allocates a span id, and the
//! returned [`SpanGuard`] restores the parent and publishes the record on
//! drop.
//!
//! Cost model: when tracing is disabled every instrumentation site is a
//! single relaxed atomic load and a branch; when enabled but a request is
//! unsampled it is that load plus a thread-local read. Emission never
//! blocks — a full ring drops the span and bumps a saturating counter
//! ([`dropped_spans`]).
//!
//! Across the wire the context is carried by the protocol-v2 frame header
//! (trace id + sampled flag, see [`proto`](crate::proto)); collected spans
//! export as Chrome trace-event JSON ([`to_chrome_json`], loadable in
//! Perfetto or `chrome://tracing`) or as a human-readable slow-request
//! log ([`slow_log`]).
//!
//! The tracer is global state: concurrently running tests that enable it
//! would interfere, so trace tests serialize through [`exclusive`], which
//! also disables tracing when the guard drops (even on panic).

use crate::ring::MpmcRing;
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which process track a span belongs to in the Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanLayer {
    /// Client-side round-trip spans.
    Client,
    /// Server dispatch and shard-router spans.
    Server,
    /// Engine request-path spans (write pipeline, read probes).
    Engine,
    /// Background work (flush, compaction, swizzle).
    Background,
}

impl SpanLayer {
    /// Synthetic process id used in the Chrome trace export.
    pub fn pid(&self) -> u32 {
        match self {
            SpanLayer::Client => 1,
            SpanLayer::Server => 2,
            SpanLayer::Engine => 3,
            SpanLayer::Background => 4,
        }
    }

    /// Track name shown by trace viewers.
    pub fn label(&self) -> &'static str {
        match self {
            SpanLayer::Client => "client",
            SpanLayer::Server => "server",
            SpanLayer::Engine => "engine",
            SpanLayer::Background => "background",
        }
    }
}

/// Named request-path phases. Every span carries exactly one kind, so
/// critical-path attribution can bucket wall time without string parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Whole client round trip: request buffered until response decoded.
    ClientRequest = 1,
    /// Client-side request encode + socket write.
    ClientSend,
    /// Client-side blocking wait for the response frame.
    ClientRecv,
    /// Whole server-side request: decode, execute, encode response.
    SrvRequest,
    /// Request body decode.
    SrvDecode,
    /// Engine dispatch (everything between decode and response encode).
    SrvExecute,
    /// Shard-router fan-out of a scan to every shard.
    RouterFanout,
    /// Shard-router k-way merge of per-shard scan runs.
    RouterMerge,
    /// Commit-queue wait: enqueue until the group commit completes (on
    /// the leader it contains the group's WAL append and inserts).
    CommitWait,
    /// Encode + append of one commit's WAL record; `arg` is its op count.
    WalAppend,
    /// Skip-list insert of one commit's operations into the MemTable;
    /// `arg` is the op count.
    MemtableInsert,
    /// Writer blocked on MemTable rotation (interval stall); `arg` links
    /// the flush span being waited on.
    RotationStall,
    /// Read probe of the active + immutable MemTables.
    MemtableProbe,
    /// Read probe of one PMTable level; `arg` is the level.
    LevelProbe,
    /// Read probe of the DRAM repository (final level).
    RepoProbe,
    /// Instant marker: a bloom filter skipped a table; `arg` is the level.
    BloomSkip,
    /// Background MemTable flush; `arg` is bytes flushed.
    Flush,
    /// Background compaction; `arg` packs `level | kind << 32` with kind
    /// 1 = zero-copy, 2 = lazy-copy.
    Compaction,
    /// Pointer swizzling during a one-piece flush.
    Swizzle,
}

impl SpanKind {
    /// Stable lowercase label used in exports and tables.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::ClientRequest => "client_request",
            SpanKind::ClientSend => "client_send",
            SpanKind::ClientRecv => "client_recv",
            SpanKind::SrvRequest => "srv_request",
            SpanKind::SrvDecode => "srv_decode",
            SpanKind::SrvExecute => "srv_execute",
            SpanKind::RouterFanout => "router_fanout",
            SpanKind::RouterMerge => "router_merge",
            SpanKind::CommitWait => "commit_wait",
            SpanKind::WalAppend => "wal_append",
            SpanKind::MemtableInsert => "memtable_insert",
            SpanKind::RotationStall => "rotation_stall",
            SpanKind::MemtableProbe => "memtable_probe",
            SpanKind::LevelProbe => "level_probe",
            SpanKind::RepoProbe => "repo_probe",
            SpanKind::BloomSkip => "bloom_skip",
            SpanKind::Flush => "flush",
            SpanKind::Compaction => "compaction",
            SpanKind::Swizzle => "swizzle",
        }
    }

    /// The export track this kind belongs to.
    pub fn layer(&self) -> SpanLayer {
        match self {
            SpanKind::ClientRequest | SpanKind::ClientSend | SpanKind::ClientRecv => {
                SpanLayer::Client
            }
            SpanKind::SrvRequest
            | SpanKind::SrvDecode
            | SpanKind::SrvExecute
            | SpanKind::RouterFanout
            | SpanKind::RouterMerge => SpanLayer::Server,
            SpanKind::CommitWait
            | SpanKind::WalAppend
            | SpanKind::MemtableInsert
            | SpanKind::RotationStall
            | SpanKind::MemtableProbe
            | SpanKind::LevelProbe
            | SpanKind::RepoProbe
            | SpanKind::BloomSkip => SpanLayer::Engine,
            SpanKind::Flush | SpanKind::Compaction | SpanKind::Swizzle => SpanLayer::Background,
        }
    }
}

/// One finished span. `Copy` and scalar-only so emission never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace the span belongs to (0 = background, no owning request).
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Enclosing span id, or 0 for a root.
    pub parent_id: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Kind-specific scalar annotation (level, bytes, linked span id).
    pub arg: u64,
    /// Small per-thread id (assigned on first emission per thread).
    pub tid: u32,
    /// What phase the span measures.
    pub kind: SpanKind,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread trace context: which trace (if any) the current request
/// belongs to and which span is innermost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id shared by every span of one request.
    pub trace_id: u64,
    /// Innermost open span (the parent for new spans); 0 at the root.
    pub span_id: u64,
    /// Whether spans should be recorded for this request.
    pub sampled: bool,
}

impl TraceCtx {
    /// No active trace.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
        sampled: false,
    };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static IMPLICIT_ROOTS: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static SAMPLE_COUNTER: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
/// Drop count at the last `enable`, so `dropped_spans` reports per-session.
static DROPPED_BASE: AtomicU64 = AtomicU64::new(0);
static RING: OnceLock<MpmcRing<SpanRecord>> = OnceLock::new();

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first tracer touch).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// `t` on the trace clock (0 for an instant before the epoch).
fn ns_at(t: Instant) -> u64 {
    t.saturating_duration_since(*epoch()).as_nanos() as u64
}

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// One sampling draw: true for 1-in-`sample_every` calls.
fn sample() -> bool {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed).max(1);
    SAMPLE_COUNTER
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(every)
}

fn push(rec: SpanRecord) {
    if let Some(ring) = RING.get() {
        ring.push(rec);
    }
}

/// Turns the tracer on.
///
/// `capacity` sizes the span ring **on the first enable in the process**
/// (later enables reuse the existing ring, drained of stale spans).
/// `sample_every` records 1 in N new traces. With `implicit_roots`, spans
/// opened outside any request context start their own trace — this is how
/// direct-drive harnesses (repro, lincheck, crash_fuzz) trace engine
/// internals without a client; servers leave it off so unsampled requests
/// stay free.
pub fn enable(capacity: usize, sample_every: u64, implicit_roots: bool) {
    let ring = RING.get_or_init(|| MpmcRing::with_capacity(capacity));
    ring.drain();
    DROPPED_BASE.store(ring.dropped(), Ordering::Relaxed);
    SAMPLE_EVERY.store(sample_every.max(1), Ordering::Relaxed);
    SAMPLE_COUNTER.store(0, Ordering::Relaxed);
    IMPLICIT_ROOTS.store(implicit_roots, Ordering::Relaxed);
    // Initialize the epoch before the first span so timestamps are small.
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns the tracer off. Already-collected spans stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the tracer is currently collecting.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every collected span (FIFO by completion).
pub fn drain() -> Vec<SpanRecord> {
    RING.get().map(MpmcRing::drain).unwrap_or_default()
}

/// Spans dropped on ring overflow since the last [`enable`].
pub fn dropped_spans() -> u64 {
    RING.get()
        .map(|r| {
            r.dropped()
                .saturating_sub(DROPPED_BASE.load(Ordering::Relaxed))
        })
        .unwrap_or(0)
}

/// The calling thread's current trace context ([`TraceCtx::NONE`] when
/// tracing is disabled).
pub fn current() -> TraceCtx {
    if !ENABLED.load(Ordering::Relaxed) {
        return TraceCtx::NONE;
    }
    CTX.with(Cell::get)
}

/// Starts a new trace (client side): draws the sampling decision and, if
/// sampled, allocates a trace id and a root span id. Does not touch the
/// thread-local context — pair with [`with_ctx`] or record manually via
/// [`record`].
pub fn begin_trace() -> TraceCtx {
    if !ENABLED.load(Ordering::Relaxed) || !sample() {
        return TraceCtx::NONE;
    }
    TraceCtx {
        trace_id: next_id(),
        span_id: next_id(),
        sampled: true,
    }
}

/// Installs `ctx` as the calling thread's trace context until the guard
/// drops (the previous context is restored). Used by the server to adopt
/// a frame's wire context and by the client around sends.
pub fn with_ctx(ctx: TraceCtx) -> CtxGuard {
    let prev = CTX.with(|c| c.replace(ctx));
    CtxGuard { prev }
}

/// RAII guard from [`with_ctx`]; restores the previous context on drop.
#[must_use]
pub struct CtxGuard {
    prev: TraceCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

struct ActiveSpan {
    rec: SpanRecord,
    prev: TraceCtx,
}

/// An open span; publishes its record and restores the parent context
/// when dropped. Inactive (and near-free) when tracing is disabled or the
/// request is unsampled.
#[must_use]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    const INACTIVE: SpanGuard = SpanGuard { active: None };

    /// Whether this span is actually recording.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// This span's id (0 when inactive) — for cross-linking spans.
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.rec.span_id)
    }

    /// Sets the kind-specific scalar annotation.
    pub fn annotate(&mut self, arg: u64) {
        if let Some(a) = &mut self.active {
            a.rec.arg = arg;
        }
    }

    /// Closes the span at `end` instead of at the clock reading its drop
    /// would take — for a caller that has already timed the interval.
    pub fn end_at(mut self, end: Instant) {
        if let Some(a) = &mut self.active {
            a.rec.end_ns = ns_at(end);
        }
    }

    fn open(
        kind: SpanKind,
        trace_id: u64,
        parent: u64,
        prev: TraceCtx,
        start_ns: u64,
    ) -> SpanGuard {
        let span_id = next_id();
        CTX.with(|c| {
            c.set(TraceCtx {
                trace_id,
                span_id,
                sampled: true,
            })
        });
        SpanGuard {
            active: Some(ActiveSpan {
                rec: SpanRecord {
                    trace_id,
                    span_id,
                    parent_id: parent,
                    start_ns,
                    end_ns: 0,
                    arg: 0,
                    tid: tid(),
                    kind,
                },
                prev,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            CTX.with(|c| c.set(a.prev));
            let mut rec = a.rec;
            if rec.end_ns == 0 {
                rec.end_ns = now_ns();
            }
            push(rec);
        }
    }
}

/// Opens a span under the calling thread's context. Inactive when tracing
/// is disabled or the context is unsampled — unless implicit roots are on
/// (direct-drive harnesses), in which case an out-of-context span draws
/// its own sampling decision and starts a fresh trace.
pub fn span(kind: SpanKind) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard::INACTIVE;
    }
    let prev = CTX.with(Cell::get);
    let (trace_id, parent) = if prev.sampled {
        (prev.trace_id, prev.span_id)
    } else if IMPLICIT_ROOTS.load(Ordering::Relaxed) && sample() {
        (next_id(), 0)
    } else {
        return SpanGuard::INACTIVE;
    };
    SpanGuard::open(kind, trace_id, parent, prev, now_ns())
}

/// Opens a background span (flush/compaction worker) that started at
/// `start`, a clock reading the caller already took. Records whenever
/// tracing is enabled; top-level background spans use trace id 0 (their
/// own track), nested ones parent normally.
pub fn bg_span_at(kind: SpanKind, start: Instant) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard::INACTIVE;
    }
    let prev = CTX.with(Cell::get);
    let (trace_id, parent) = if prev.sampled {
        (prev.trace_id, prev.span_id)
    } else {
        (0, 0)
    };
    SpanGuard::open(kind, trace_id, parent, prev, ns_at(start))
}

/// Records a zero-duration marker under the current context (no-op when
/// unsampled).
pub fn instant(kind: SpanKind, arg: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ctx = CTX.with(Cell::get);
    if !ctx.sampled {
        return;
    }
    let now = now_ns();
    push(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: next_id(),
        parent_id: ctx.span_id,
        start_ns: now,
        end_ns: now,
        arg,
        tid: tid(),
        kind,
    });
}

/// Publishes a fully specified span. Used where RAII scoping does not fit
/// (e.g. the client's pipelined round trips, where send and receive of
/// one request are separated by other frames). Pass `span_id` 0 to have
/// an id allocated; the id actually used is returned.
#[allow(clippy::too_many_arguments)]
pub fn record(
    kind: SpanKind,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
    end_ns: u64,
    arg: u64,
) -> u64 {
    if !ENABLED.load(Ordering::Relaxed) {
        return 0;
    }
    let span_id = if span_id == 0 { next_id() } else { span_id };
    push(SpanRecord {
        trace_id,
        span_id,
        parent_id,
        start_ns,
        end_ns,
        arg,
        tid: tid(),
        kind,
    });
    span_id
}

/// Serializes tracer tests and guarantees cleanup: while the returned
/// guard is alive no other thread can hold it, and dropping it (normally
/// or during a panic) disables tracing and drains leftovers.
pub fn exclusive() -> ExclusiveGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock();
    disable();
    drain();
    ExclusiveGuard { _guard: guard }
}

/// RAII guard from [`exclusive`]; disables tracing when dropped.
pub struct ExclusiveGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ExclusiveGuard {
    fn drop(&mut self) {
        disable();
        drain();
    }
}

/// Renders spans as Chrome trace-event JSON (the `traceEvents` array
/// format), loadable in Perfetto or `chrome://tracing`. Spans are placed
/// on one synthetic process per layer (client/server/engine/background)
/// and one track per recording thread.
pub fn to_chrome_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for layer in [
        SpanLayer::Client,
        SpanLayer::Server,
        SpanLayer::Engine,
        SpanLayer::Background,
    ] {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            layer.pid(),
            layer.label()
        ));
    }
    for s in spans {
        out.push(',');
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"{:#018x}\",\"span\":{},\
             \"parent\":{},\"arg\":{}}}}}",
            s.kind.label(),
            s.kind.layer().label(),
            s.kind.layer().pid(),
            s.tid,
            us(s.start_ns),
            us(s.dur_ns()),
            s.trace_id,
            s.span_id,
            s.parent_id,
            s.arg,
        ));
    }
    out.push_str("]}");
    out
}

/// The root spans of one trace (parent id 0), most significant first:
/// `ClientRequest` outranks `SrvRequest` outranks anything else.
fn root_rank(kind: SpanKind) -> u8 {
    match kind {
        SpanKind::ClientRequest => 0,
        SpanKind::SrvRequest => 1,
        _ => 2,
    }
}

/// Renders every trace whose root span lasted at least `threshold_ns` as
/// an indented span tree (slow-request log). Background spans (trace id
/// 0) are skipped. Traces print slowest first.
pub fn slow_log(spans: &[SpanRecord], threshold_ns: u64) -> String {
    use std::collections::HashMap;
    let mut traces: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if s.trace_id != 0 {
            traces.entry(s.trace_id).or_default().push(s);
        }
    }
    let mut slow: Vec<(u64, u64, Vec<&SpanRecord>)> = Vec::new();
    for (id, mut list) in traces {
        list.sort_by_key(|s| (root_rank(s.kind), s.start_ns));
        let Some(top) = list.iter().find(|s| s.parent_id == 0) else {
            continue;
        };
        let total = top.dur_ns();
        if total >= threshold_ns {
            slow.push((total, id, list));
        }
    }
    slow.sort_by_key(|s| std::cmp::Reverse(s.0));
    let mut out = String::new();
    for (total, id, list) in slow {
        out.push_str(&format!(
            "-- slow trace {id:#018x}: {:.1}us total\n",
            total as f64 / 1_000.0
        ));
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for s in &list {
            children.entry(s.parent_id).or_default().push(s);
        }
        for v in children.values_mut() {
            v.sort_by_key(|s| s.start_ns);
        }
        // Iterative pre-order from the roots.
        let mut stack: Vec<(&SpanRecord, usize)> = children
            .get(&0)
            .map(|roots| roots.iter().rev().map(|s| (*s, 1)).collect())
            .unwrap_or_default();
        while let Some((s, depth)) = stack.pop() {
            out.push_str(&format!(
                "{:indent$}{} {:.1}us [tid {}]{}\n",
                "",
                s.kind.label(),
                s.dur_ns() as f64 / 1_000.0,
                s.tid,
                if s.arg != 0 {
                    format!(" arg={}", s.arg)
                } else {
                    String::new()
                },
                indent = depth * 2
            ));
            if let Some(kids) = children.get(&s.span_id) {
                for k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
    out
}

/// Counts traces that form a complete client→engine tree: a
/// `ClientRequest` root, a `SrvRequest` on the same trace id, and at
/// least one engine-layer span. Used by smoke tests and `netbench`.
pub fn complete_tree_count(spans: &[SpanRecord]) -> usize {
    use std::collections::HashMap;
    #[derive(Default)]
    struct Seen {
        client: bool,
        server: bool,
        engine: bool,
    }
    let mut traces: HashMap<u64, Seen> = HashMap::new();
    for s in spans {
        if s.trace_id == 0 {
            continue;
        }
        let e = traces.entry(s.trace_id).or_default();
        match s.kind {
            SpanKind::ClientRequest => e.client = true,
            SpanKind::SrvRequest => e.server = true,
            k if k.layer() == SpanLayer::Engine => e.engine = true,
            _ => {}
        }
    }
    traces
        .values()
        .filter(|s| s.client && s.server && s.engine)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inactive_and_free() {
        let _g = exclusive();
        let s = span(SpanKind::WalAppend);
        assert!(!s.is_active());
        drop(s);
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_share_trace_and_parent_correctly() {
        let _g = exclusive();
        enable(1 << 10, 1, true);
        {
            let outer = span(SpanKind::CommitWait);
            let outer_id = outer.id();
            assert!(outer.is_active());
            {
                let inner = span(SpanKind::WalAppend);
                assert!(inner.is_active());
                assert_ne!(inner.id(), outer_id);
            }
            let _ = outer;
        }
        let spans = drain();
        assert_eq!(spans.len(), 2);
        // Inner drops first, so it drains first.
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.kind, SpanKind::WalAppend);
        assert_eq!(outer.kind, SpanKind::CommitWait);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(outer.parent_id, 0);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn sampling_skips_traces() {
        let _g = exclusive();
        enable(1 << 10, 1 << 30, true);
        // Burn the aligned draw so the rest are unsampled.
        let _ = begin_trace();
        for _ in 0..100 {
            let s = span(SpanKind::MemtableProbe);
            assert!(!s.is_active());
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn with_ctx_restores_previous_context() {
        let _g = exclusive();
        enable(1 << 10, 1, false);
        let ctx = TraceCtx {
            trace_id: 42,
            span_id: 7,
            sampled: true,
        };
        {
            let _c = with_ctx(ctx);
            assert_eq!(current().trace_id, 42);
            let s = span(SpanKind::SrvExecute);
            assert!(s.is_active());
        }
        assert_eq!(current(), TraceCtx::NONE);
        let spans = drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, 42);
        assert_eq!(spans[0].parent_id, 7);
    }

    #[test]
    fn chrome_json_is_well_formed_and_has_metadata() {
        let _g = exclusive();
        enable(1 << 10, 1, true);
        {
            let mut s = span(SpanKind::LevelProbe);
            s.annotate(3);
        }
        let spans = drain();
        let json = to_chrome_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"level_probe\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"arg\":3"));
    }

    #[test]
    fn slow_log_dumps_only_slow_traces() {
        let _g = exclusive();
        enable(1 << 10, 1, false);
        record(SpanKind::ClientRequest, 5, 50, 0, 0, 2_000_000, 0);
        record(SpanKind::CommitWait, 5, 51, 50, 100, 1_900_000, 0);
        record(SpanKind::ClientRequest, 6, 60, 0, 0, 10_000, 0);
        let spans = drain();
        let log = slow_log(&spans, 1_000_000);
        assert!(log.contains("commit_wait"));
        assert!(log.contains("client_request 2000.0us"));
        assert!(
            !log.contains("10.0us"),
            "fast trace leaked into slow log:\n{log}"
        );
    }

    #[test]
    fn complete_tree_counting() {
        let _g = exclusive();
        enable(1 << 10, 1, false);
        record(SpanKind::ClientRequest, 9, 90, 0, 0, 100, 0);
        record(SpanKind::SrvRequest, 9, 91, 0, 10, 90, 0);
        record(SpanKind::MemtableProbe, 9, 92, 91, 20, 30, 0);
        record(SpanKind::ClientRequest, 10, 95, 0, 0, 100, 0);
        let spans = drain();
        assert_eq!(complete_tree_count(&spans), 1);
    }
}
