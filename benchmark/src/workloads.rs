//! The five workloads: what each sends to the system, how the replies are
//! checked, and the measured phase that times every call from outside.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use miodb_client::{ClientCounters, KvClient};
use miodb_common::{KvEngine, Request, Response};
use miodb_pmem::DeviceModel;

use crate::gen::{
    absent_key, fill_value, present_key, value_identity, value_matches, value_plausible, Rng,
    Zipfian, KEY_LEN,
};
use crate::host;
use crate::spans::SpanBuf;
use crate::system::{Dataset, System};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fill,
    Read,
    Mixed,
    NetRtt,
    NetPipelined,
}

/// Records `fill` writes per second of `--seconds`: the reference host
/// sustains about this rate, so the measured phase lasts about `--seconds`
/// while the amount written — and with it `write_amp` — repeats exactly.
const FILL_RECORDS_PER_SECOND: f64 = 45_000.0;
/// Records preloaded before `read` and `mixed` (1 KiB values: 200× the
/// MemTable).
const EMBEDDED_PRELOAD_RECORDS: u64 = 100_000;
/// Records preloaded before the `net-*` workloads (256 B values).
const NET_PRELOAD_RECORDS: u64 = 20_000;
/// One lookup in this many on `read` asks for a key that was never written.
const ABSENT_ONE_IN: u64 = 10;
/// One returned value in this many is regenerated and byte-compared; the
/// others are checked for length, record and version.
const FULL_COMPARE_ONE_IN: u64 = 8;
/// Windows the measured phase is cut into for throughput; the median
/// window is reported, so one burst of host noise spoils one window.
pub const RATE_WINDOWS: usize = 5;
/// In a traced run, spans are recorded in every other window of this
/// length; throughput in the windows between gives the tracing overhead.
const TRACE_WINDOW_NS: u64 = 50_000_000;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fill,
        Workload::Read,
        Workload::Mixed,
        Workload::NetRtt,
        Workload::NetPipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fill => "fill",
            Workload::Read => "read",
            Workload::Mixed => "mixed",
            Workload::NetRtt => "net-rtt",
            Workload::NetPipelined => "net-pipelined",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; BENCHMARK.json carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fill => "embedded, 1 writer, distinct 1 KiB puts in random order then read-back: WAL, insert, flush, zero-copy merge and lazy-copy do the work, the read path none; write_amp levels off near 3",
            Workload::Read => "embedded, 2 readers, uniform gets (10% absent) on a settled store 200x the MemTable: bloom probes and table descents do the work, write path and background threads idle",
            Workload::Mixed => "embedded YCSB-A, 2 threads, 50% get / 50% update, zipfian 0.99: reads walk tables while flush and merge rewire them; the hot set fits the MemTable, unlike read",
            Workload::NetRtt => "KvServer over loopback, 2 connections at depth 1, 50/50 get/put of 256 B: codec, syscalls and two thread handoffs per request dominate, the engine is a small share",
            Workload::NetPipelined => "same server, 2 connections at depth 32: syscalls amortise, so CPU per request in decode, dispatch, handoff and engine sets throughput; batching shows here, not on net-rtt",
        }
    }

    pub fn is_net(self) -> bool {
        matches!(self, Workload::NetRtt | Workload::NetPipelined)
    }

    pub fn value_len(self) -> usize {
        if self.is_net() {
            256
        } else {
            1024
        }
    }

    /// Requests each connection keeps in flight.
    pub fn depth(self) -> usize {
        if self == Workload::NetPipelined {
            32
        } else {
            1
        }
    }

    /// Client threads (= connections): never more than processors, never
    /// more than two; `fill` has one writer.
    pub fn threads(self) -> usize {
        if self == Workload::Fill {
            1
        } else {
            host::client_threads()
        }
    }

    /// Embedded workloads run on the paper's throttled NVM model; served
    /// ones unthrottled, so the service layer and not the spin-wait works.
    pub fn device(self) -> DeviceModel {
        if self.is_net() {
            DeviceModel::nvm_unthrottled()
        } else {
            DeviceModel::nvm()
        }
    }

    pub fn device_name(self) -> &'static str {
        if self.device().throttled {
            "nvm"
        } else {
            "nvm_unthrottled"
        }
    }

    pub fn dataset(self, seed: u64, seconds: f64) -> Dataset {
        let records = match self {
            Workload::Fill => ((seconds * FILL_RECORDS_PER_SECOND) as u64).max(1000),
            Workload::Read | Workload::Mixed => EMBEDDED_PRELOAD_RECORDS,
            Workload::NetRtt | Workload::NetPipelined => NET_PRELOAD_RECORDS,
        };
        Dataset {
            seed,
            records,
            value_len: self.value_len(),
        }
    }

    /// Whether the measured phase overwrites records.
    pub fn overwrites(self) -> bool {
        !matches!(self, Workload::Fill | Workload::Read)
    }

    /// Records preloaded during set-up (`fill` starts empty).
    pub fn preloads(self) -> bool {
        self != Workload::Fill
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get { record: u64, absent: bool },
    Put { record: u64, version: u64 },
}

/// One thread's stream of operations. Each record has a single writer —
/// thread `t` updates only records ≡ t (mod threads) — so every reply can
/// be checked against a known version.
pub struct OpSource<'a> {
    workload: Workload,
    rng: Rng,
    zipf: Option<&'a Zipfian>,
    records: u64,
    threads: u64,
    thread: u64,
    fill_order: &'a [u32],
    cursor: usize,
    next_version: u64,
}

impl<'a> OpSource<'a> {
    pub fn new(
        workload: Workload,
        data: Dataset,
        thread: usize,
        threads: usize,
        zipf: Option<&'a Zipfian>,
        fill_order: &'a [u32],
    ) -> OpSource<'a> {
        OpSource {
            workload,
            rng: Rng::for_stream(data.seed, 1 + thread as u64),
            zipf,
            records: data.records,
            threads: threads as u64,
            thread: thread as u64,
            fill_order,
            cursor: 0,
            next_version: 1,
        }
    }

    fn own(&self, record: u64) -> u64 {
        let r = record - record % self.threads + self.thread;
        if r < self.records {
            r
        } else {
            r - self.threads
        }
    }

    fn update(&mut self, record: u64) -> Op {
        let version = self.next_version;
        self.next_version += 1;
        Op::Put {
            record: self.own(record),
            version,
        }
    }
}

impl Iterator for OpSource<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.workload {
            Workload::Fill => {
                let record = u64::from(*self.fill_order.get(self.cursor)?);
                self.cursor += 1;
                Op::Put { record, version: 0 }
            }
            Workload::Read => Op::Get {
                absent: self.rng.below(ABSENT_ONE_IN) == 0,
                record: self.rng.below(self.records),
            },
            Workload::Mixed => {
                let record = self.zipf.map_or(0, |z| z.record(&mut self.rng));
                if self.rng.below(2) == 0 {
                    Op::Get {
                        record,
                        absent: false,
                    }
                } else {
                    self.update(record)
                }
            }
            Workload::NetRtt | Workload::NetPipelined => {
                let record = self.rng.below(self.records);
                if self.rng.below(2) == 0 {
                    Op::Get {
                        record,
                        absent: false,
                    }
                } else {
                    self.update(record)
                }
            }
        })
    }
}

/// How a reply compares with what had to come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Right,
    /// An intact value of the right record, but a version that had already
    /// been overwritten (and the overwrite acknowledged) when the get was
    /// issued. Counted apart from failures: see "Known defects" in the
    /// README.
    Stale,
    /// Missing, damaged, another record's, or a version never written.
    Wrong,
}

/// What a get must return, fixed when the request is issued: the exact
/// version for a record this thread writes, at least the last version seen
/// for one it does not.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    floor: u64,
    exact: bool,
}

/// One thread's record of what it wrote and saw.
pub struct Checker {
    data: Dataset,
    threads: u64,
    thread: u64,
    /// Last version this thread wrote, per record (own records only).
    pub written: Vec<u64>,
    seen: Vec<u64>,
    scratch: Vec<u8>,
    values_checked: u64,
}

impl Checker {
    pub fn new(data: Dataset, thread: usize, threads: usize) -> Checker {
        Checker {
            data,
            threads: threads as u64,
            thread: thread as u64,
            written: vec![0; data.records as usize],
            seen: vec![0; data.records as usize],
            scratch: Vec::new(),
            values_checked: 0,
        }
    }

    pub fn expect(&self, record: u64) -> Expect {
        if record % self.threads == self.thread {
            Expect {
                floor: self.written[record as usize],
                exact: true,
            }
        } else {
            Expect {
                floor: self.seen[record as usize],
                exact: false,
            }
        }
    }

    pub fn wrote(&mut self, record: u64, version: u64) {
        self.written[record as usize] = version;
    }

    pub fn check_get(
        &mut self,
        record: u64,
        absent: bool,
        expect: Expect,
        got: Option<&[u8]>,
    ) -> Verdict {
        if absent {
            return if got.is_none() {
                Verdict::Right
            } else {
                Verdict::Wrong
            };
        }
        let Some(value) = got else {
            return Verdict::Wrong;
        };
        self.values_checked += 1;
        let intact = if self.values_checked.is_multiple_of(FULL_COMPARE_ONE_IN) {
            value_matches(
                self.data.seed,
                record,
                self.data.value_len,
                value,
                &mut self.scratch,
            )
        } else {
            value_plausible(record, self.data.value_len, value)
        };
        let Some((_, version)) = value_identity(value).filter(|_| intact) else {
            return Verdict::Wrong;
        };
        let seen = &mut self.seen[record as usize];
        *seen = (*seen).max(version);
        match version.cmp(&expect.floor) {
            std::cmp::Ordering::Less => Verdict::Stale,
            std::cmp::Ordering::Greater if expect.exact => Verdict::Wrong,
            _ => Verdict::Right,
        }
    }
}

/// What one client thread brings back from the measured phase.
pub struct WorkerOut {
    pub get_ns: Vec<u32>,
    pub put_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Gets answered with an overwritten version (not counted as failed).
    pub stale: u64,
    /// Lookups of keys never written, and the time they took in total.
    pub absent_gets: u64,
    pub absent_get_ns: u64,
    /// Operations completed in each throughput window.
    pub window_ops: Vec<u64>,
    /// Operations for which spans were recorded.
    pub traced_ops: u64,
    /// In a traced run, operations completed in each [`TRACE_WINDOW_NS`]
    /// window, counted from the window the phase started in.
    pub trace_windows: Vec<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub spans: SpanBuf,
    pub voluntary_switches: u64,
    pub client: ClientCounters,
    pub checker: Checker,
}

/// Everything a client thread needs to know about the phase it runs.
pub struct Phase<'a> {
    pub workload: Workload,
    pub data: Dataset,
    pub threads: usize,
    pub seconds: f64,
    pub trace: bool,
    pub origin: Instant,
    pub zipf: Option<&'a Zipfian>,
    pub fill_order: &'a [u32],
}

impl Phase<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn budget_ns(&self) -> u64 {
        // `fill` ends when its records are written, not on a deadline.
        if self.workload == Workload::Fill {
            u64::MAX
        } else {
            (self.seconds * 1e9) as u64
        }
    }

    fn window_ns(&self) -> u64 {
        ((self.seconds * 1e9) as u64 / RATE_WINDOWS as u64).max(1)
    }

    fn sample_capacity(&self) -> usize {
        match self.workload {
            Workload::Fill => self.data.records as usize,
            _ => (self.seconds * 400_000.0) as usize,
        }
    }

    fn span_capacity(&self) -> usize {
        if self.trace {
            (self.seconds * 500_000.0) as usize
        } else {
            0
        }
    }
}

struct Tally {
    out: WorkerOut,
    phase_start: u64,
    window_ns: u64,
    trace: bool,
}

impl Tally {
    fn new(phase: &Phase<'_>, thread: usize) -> Tally {
        let cap = phase.sample_capacity();
        Tally {
            out: WorkerOut {
                get_ns: Vec::with_capacity(cap),
                put_ns: Vec::with_capacity(cap),
                attempted: 0,
                failed: 0,
                first_failure: None,
                stale: 0,
                absent_gets: 0,
                absent_get_ns: 0,
                window_ops: vec![0; RATE_WINDOWS],
                traced_ops: 0,
                trace_windows: Vec::new(),
                start_ns: 0,
                end_ns: 0,
                spans: SpanBuf::new(thread as u32, phase.span_capacity()),
                voluntary_switches: 0,
                client: ClientCounters::default(),
                checker: Checker::new(phase.data, thread, phase.threads),
            },
            phase_start: 0,
            window_ns: phase.window_ns(),
            trace: phase.trace,
        }
    }

    fn done(&mut self, verdict: Verdict, end_ns: u64, what: impl FnOnce() -> String) {
        self.out.attempted += 1;
        match verdict {
            Verdict::Right => {}
            Verdict::Stale => self.out.stale += 1,
            Verdict::Wrong => {
                self.out.failed += 1;
                if self.out.first_failure.is_none() {
                    self.out.first_failure = Some(what());
                }
            }
        }
        let w = ((end_ns - self.phase_start) / self.window_ns) as usize;
        if let Some(slot) = self.out.window_ops.get_mut(w) {
            *slot += 1;
        }
        if self.trace {
            let w = (end_ns / TRACE_WINDOW_NS - self.phase_start / TRACE_WINDOW_NS) as usize;
            if w >= self.out.trace_windows.len() {
                self.out.trace_windows.resize(w + 1, 0);
            }
            self.out.trace_windows[w] += 1;
        }
    }
}

fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Whether spans are recorded at time `clock_ns` of a traced run.
fn in_traced_window(clock_ns: u64) -> bool {
    (clock_ns / TRACE_WINDOW_NS) % 2 == 1
}

/// Operations per window of a traced run, all threads together, split
/// into the windows with spans on and the windows between. The windows in
/// which a thread started or ended are partial and left out.
pub fn trace_window_counts(workers: &[WorkerOut]) -> (Vec<f64>, Vec<f64>) {
    let first = workers.iter().map(|w| w.start_ns / TRACE_WINDOW_NS).max();
    let last = workers.iter().map(|w| w.end_ns / TRACE_WINDOW_NS).min();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (Some(first), Some(last)) = (first, last) else {
        return (traced, untraced);
    };
    for window in first + 1..last {
        let ops: u32 = workers
            .iter()
            .map(|w| {
                let own = (window - w.start_ns / TRACE_WINDOW_NS) as usize;
                w.trace_windows.get(own).copied().unwrap_or(0)
            })
            .sum();
        if in_traced_window(window * TRACE_WINDOW_NS) {
            traced.push(f64::from(ops));
        } else {
            untraced.push(f64::from(ops));
        }
    }
    (traced, untraced)
}

/// The measured phase of an embedded workload on one thread: direct calls
/// into `core`, each timed from outside.
pub fn embedded_worker(
    phase: &Phase<'_>,
    db: &dyn KvEngine,
    thread: usize,
    start: &Barrier,
) -> WorkerOut {
    let mut tally = Tally::new(phase, thread);
    let mut src = OpSource::new(
        phase.workload,
        phase.data,
        thread,
        phase.threads,
        phase.zipf,
        phase.fill_order,
    );
    let mut value = vec![0u8; phase.data.value_len];
    let switches_before = host::own_voluntary_switches();
    start.wait();
    let phase_start = phase.now_ns();
    tally.phase_start = phase_start;
    let deadline = phase_start.saturating_add(phase.budget_ns());
    let mut clock = phase_start;
    let mut op_index = 0u64;
    while clock < deadline {
        let Some(op) = src.next() else {
            break;
        };
        let traced = phase.trace && in_traced_window(clock);
        let top = if traced { phase.now_ns() } else { clock };
        let (name, t0, t1, verdict) = match op {
            Op::Get { record, absent } => {
                let key: [u8; KEY_LEN] = if absent {
                    absent_key(record)
                } else {
                    present_key(record)
                };
                let expect = tally.out.checker.expect(record);
                let t0 = phase.now_ns();
                let got = db.get(&key);
                let t1 = phase.now_ns();
                tally.out.get_ns.push(clamp_ns(t1 - t0));
                if absent {
                    tally.out.absent_gets += 1;
                    tally.out.absent_get_ns += t1 - t0;
                }
                let verdict = match &got {
                    Ok(v) => tally
                        .out
                        .checker
                        .check_get(record, absent, expect, v.as_deref()),
                    Err(_) => Verdict::Wrong,
                };
                ("core.get", t0, t1, verdict)
            }
            Op::Put { record, version } => {
                fill_value(phase.data.seed, record, version, &mut value);
                let key = present_key(record);
                let t0 = phase.now_ns();
                let put = db.put(&key, &value);
                let t1 = phase.now_ns();
                tally.out.put_ns.push(clamp_ns(t1 - t0));
                if put.is_ok() {
                    tally.out.checker.wrote(record, version);
                }
                (
                    "core.put",
                    t0,
                    t1,
                    if put.is_ok() {
                        Verdict::Right
                    } else {
                        Verdict::Wrong
                    },
                )
            }
        };
        tally.done(verdict, t1, || format!("{op:?} on thread {thread}"));
        if traced {
            let end = phase.now_ns();
            let spans = &mut tally.out.spans;
            let root = spans.begin("op", op_index, top);
            spans.record("bench.generate", root, op_index, top, t0);
            spans.record(name, root, op_index, t0, t1);
            spans.record("bench.check", root, op_index, t1, end);
            spans.finish(root, end);
            tally.out.traced_ops += 1;
            clock = end;
        } else {
            clock = t1;
        }
        op_index += 1;
    }
    tally.out.start_ns = phase_start;
    tally.out.end_ns = clock;
    tally.out.voluntary_switches = host::own_voluntary_switches().saturating_sub(switches_before);
    tally.out
}

struct InFlight {
    op: Op,
    expect: Expect,
    sent_ns: u64,
}

/// The measured phase of a served workload on one connection: `depth`
/// requests are sent, flushed, and their replies drained, in a closed loop.
pub fn net_worker(
    phase: &Phase<'_>,
    addr: SocketAddr,
    thread: usize,
    start: &Barrier,
) -> WorkerOut {
    let mut tally = Tally::new(phase, thread);
    let mut src = OpSource::new(
        phase.workload,
        phase.data,
        thread,
        phase.threads,
        phase.zipf,
        phase.fill_order,
    );
    let depth = phase.workload.depth();
    let mut inflight: Vec<InFlight> = Vec::with_capacity(depth);
    let connected = KvClient::connect(addr);
    let switches_before = host::own_voluntary_switches();
    start.wait();
    let phase_start = phase.now_ns();
    tally.phase_start = phase_start;
    tally.out.start_ns = phase_start;
    tally.out.end_ns = phase_start;
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            tally.done(Verdict::Wrong, phase_start, || format!("connect: {e}"));
            return tally.out;
        }
    };
    let deadline = phase_start.saturating_add(phase.budget_ns());
    let mut clock = phase_start;
    let mut batch_index = 0u64;
    'run: while clock < deadline {
        let traced = phase.trace && in_traced_window(clock);
        let top = if traced { phase.now_ns() } else { clock };
        let root = if traced {
            tally.out.spans.begin("batch", batch_index, top)
        } else {
            crate::spans::NO_PARENT
        };
        let mut mark = top;
        for op in src.by_ref().take(depth) {
            let (req, expect) = match op {
                Op::Get { record, .. } => (
                    Request::Get {
                        key: present_key(record).to_vec(),
                    },
                    tally.out.checker.expect(record),
                ),
                Op::Put { record, version } => {
                    let mut value = vec![0u8; phase.data.value_len];
                    fill_value(phase.data.seed, record, version, &mut value);
                    // A get pipelined behind this put must already see it.
                    tally.out.checker.wrote(record, version);
                    (
                        Request::Put {
                            key: present_key(record).to_vec(),
                            value,
                        },
                        Expect {
                            floor: 0,
                            exact: false,
                        },
                    )
                }
            };
            let sent_ns = phase.now_ns();
            let sent = client.send(&req);
            if traced {
                let after = phase.now_ns();
                tally
                    .out
                    .spans
                    .record("bench.generate", root, batch_index, mark, sent_ns);
                tally
                    .out
                    .spans
                    .record("client.send", root, batch_index, sent_ns, after);
                mark = after;
            }
            if let Err(e) = sent {
                tally.done(Verdict::Wrong, sent_ns, || format!("send {op:?}: {e}"));
                break 'run;
            }
            inflight.push(InFlight {
                op,
                expect,
                sent_ns,
            });
        }
        let flush_start = if traced { phase.now_ns() } else { 0 };
        if let Err(e) = client.flush() {
            tally.done(Verdict::Wrong, clock, || format!("flush: {e}"));
            break 'run;
        }
        if traced {
            mark = phase.now_ns();
            tally
                .out
                .spans
                .record("client.flush", root, batch_index, flush_start, mark);
        }
        for slot in inflight.drain(..) {
            let reply = client.recv();
            let got_ns = phase.now_ns();
            let latency = clamp_ns(got_ns - slot.sent_ns);
            let verdict = match (slot.op, &reply) {
                (Op::Get { record, absent }, Ok((_, Response::Value(v)))) => {
                    tally.out.get_ns.push(latency);
                    tally
                        .out
                        .checker
                        .check_get(record, absent, slot.expect, v.as_deref())
                }
                (Op::Put { .. }, Ok((_, Response::Ok))) => {
                    tally.out.put_ns.push(latency);
                    Verdict::Right
                }
                _ => Verdict::Wrong,
            };
            tally.done(verdict, got_ns, || {
                format!("{:?} answered {reply:?}", slot.op)
            });
            clock = got_ns;
            if traced {
                let end = phase.now_ns();
                let spans = &mut tally.out.spans;
                spans.record("client.recv_wait", root, batch_index, mark, got_ns);
                spans.record("bench.check", root, batch_index, got_ns, end);
                spans.record("request", root, batch_index, slot.sent_ns, got_ns);
                mark = end;
                clock = end;
                tally.out.traced_ops += 1;
            }
            if reply.is_err() {
                break 'run;
            }
        }
        if traced {
            tally.out.spans.finish(root, clock);
        }
        batch_index += 1;
    }
    // Requests still in flight when the connection failed got no reply.
    for slot in inflight.drain(..) {
        tally.done(Verdict::Wrong, clock, || {
            format!("{:?} lost with the connection", slot.op)
        });
    }
    tally.out.end_ns = clock;
    tally.out.client = client.counters();
    tally.out.voluntary_switches = host::own_voluntary_switches().saturating_sub(switches_before);
    let _ = client.close();
    tally.out
}

/// Runs the measured phase on `phase.threads` client threads and returns
/// what each brought back.
pub fn measured_phase(phase: &Phase<'_>, system: &System) -> Vec<WorkerOut> {
    let start = Barrier::new(phase.threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..phase.threads)
            .map(|t| {
                let start = &start;
                s.spawn(move || match system {
                    System::Embedded(db) => embedded_worker(phase, db, t, start),
                    System::Net { addr, .. } => net_worker(phase, *addr, t, start),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Latencies and failures of the read-back that ends every run.
pub struct ReadBack {
    pub get_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// After the store has settled, reads a seeded sample of records back and
/// byte-compares each with the last version its writer was acknowledged:
/// a write lost or mangled by flush, merge or lazy-copy shows here.
pub fn read_back(system: &System, data: Dataset, expected: &[u64], one_in: u64) -> ReadBack {
    let mut rng = Rng::for_stream(data.seed, 0x5A3);
    let mut out = ReadBack {
        get_ns: Vec::with_capacity((data.records / one_in) as usize + 16),
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    let mut scratch = Vec::new();
    let mut client = match system {
        System::Embedded(_) => None,
        System::Net { addr, .. } => match KvClient::connect(*addr) {
            Ok(c) => Some(c),
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.first_failure = Some(format!("read-back connect: {e}"));
                return out;
            }
        },
    };
    for record in 0..data.records {
        if rng.below(one_in) != 0 {
            continue;
        }
        let key = present_key(record);
        let t0 = Instant::now();
        let got = match &mut client {
            Some(c) => c.get(&key),
            None => system.engine().get(&key),
        };
        out.get_ns.push(clamp_ns(t0.elapsed().as_nanos() as u64));
        out.attempted += 1;
        let ok = match &got {
            Ok(Some(v)) => {
                value_matches(data.seed, record, data.value_len, v, &mut scratch)
                    && value_identity(v)
                        .is_some_and(|(_, version)| version == expected[record as usize])
            }
            _ => false,
        };
        if !ok {
            out.failed += 1;
            out.first_failure.get_or_insert_with(|| {
                format!(
                    "read-back of record {record}: expected version {}, got {:?}",
                    expected[record as usize],
                    got.as_ref().map(|v| v.as_deref().and_then(value_identity))
                )
            });
        }
    }
    if let Some(c) = client {
        let _ = c.close();
    }
    out
}

/// The acknowledged version of every record once the measured phase has
/// ended: each record's single writer knows it.
pub fn final_versions(workers: &[WorkerOut], records: u64) -> Vec<u64> {
    let threads = workers.len().max(1) as u64;
    (0..records)
        .map(|r| {
            workers
                .get((r % threads) as usize)
                .map_or(0, |w| w.checker.written[r as usize])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset {
            seed: 9,
            records: 1000,
            value_len: 64,
        }
    }

    #[test]
    fn op_streams_repeat_per_seed_and_differ_per_thread() {
        let z = Zipfian::new(1000, 0.99);
        let take = |seed: u64, thread: usize| {
            let d = Dataset { seed, ..data() };
            OpSource::new(Workload::Mixed, d, thread, 2, Some(&z), &[])
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
    }

    #[test]
    fn every_record_has_one_writer() {
        let z = Zipfian::new(1000, 0.99);
        for thread in 0..2 {
            let puts = OpSource::new(Workload::Mixed, data(), thread, 2, Some(&z), &[])
                .take(2000)
                .filter_map(|op| match op {
                    Op::Put { record, .. } => Some(record),
                    Op::Get { .. } => None,
                })
                .collect::<Vec<_>>();
            assert!(!puts.is_empty());
            assert!(puts.iter().all(|r| r % 2 == thread as u64 && *r < 1000));
        }
    }

    #[test]
    fn read_stream_asks_for_absent_keys_one_time_in_ten() {
        let ops: Vec<Op> = OpSource::new(Workload::Read, data(), 0, 2, None, &[])
            .take(10_000)
            .collect();
        let absent = ops
            .iter()
            .filter(|op| matches!(op, Op::Get { absent: true, .. }))
            .count();
        assert!((800..1200).contains(&absent), "{absent} absent of 10000");
        assert!(ops.iter().all(|op| matches!(op, Op::Get { .. })));
    }

    #[test]
    fn fill_stream_follows_its_order_and_ends() {
        let order = [2u32, 0, 1];
        let ops: Vec<Op> = OpSource::new(Workload::Fill, data(), 0, 1, None, &order).collect();
        assert_eq!(
            ops,
            vec![
                Op::Put {
                    record: 2,
                    version: 0
                },
                Op::Put {
                    record: 0,
                    version: 0
                },
                Op::Put {
                    record: 1,
                    version: 0
                }
            ]
        );
    }

    #[test]
    fn checker_catches_stale_wrong_and_missing_values() {
        let d = data();
        let mut c = Checker::new(d, 0, 2);
        let value = |record, version| {
            let mut v = vec![0u8; d.value_len];
            fill_value(d.seed, record, version, &mut v);
            v
        };
        // Own record: exactly the last written version.
        c.wrote(4, 3);
        let e = c.expect(4);
        assert_eq!(c.check_get(4, false, e, Some(&value(4, 3))), Verdict::Right);
        assert_eq!(c.check_get(4, false, e, Some(&value(4, 2))), Verdict::Stale);
        assert_eq!(
            c.check_get(4, false, e, Some(&value(4, 4))),
            Verdict::Wrong,
            "never written"
        );
        assert_eq!(c.check_get(4, false, e, None), Verdict::Wrong, "missing");
        assert_eq!(
            c.check_get(4, false, e, Some(&value(6, 3))),
            Verdict::Wrong,
            "other record's value"
        );
        let mut torn = value(4, 3);
        torn.truncate(10);
        assert_eq!(
            c.check_get(4, false, e, Some(&torn)),
            Verdict::Wrong,
            "truncated"
        );
        // The other thread's record: never older than what was seen.
        let e = c.expect(5);
        assert_eq!(c.check_get(5, false, e, Some(&value(5, 7))), Verdict::Right);
        let e = c.expect(5);
        assert_eq!(
            c.check_get(5, false, e, Some(&value(5, 6))),
            Verdict::Stale,
            "went back in time"
        );
        assert_eq!(c.check_get(5, false, e, Some(&value(5, 9))), Verdict::Right);
        // Absent keys must be absent.
        let e = c.expect(8);
        assert_eq!(c.check_get(8, true, e, None), Verdict::Right);
        assert_eq!(c.check_get(8, true, e, Some(&value(8, 0))), Verdict::Wrong);
    }

    #[test]
    fn traced_windows_alternate_and_partial_ones_are_left_out() {
        assert!(!in_traced_window(0));
        assert!(in_traced_window(TRACE_WINDOW_NS));
        assert!(!in_traced_window(2 * TRACE_WINDOW_NS));
        // Two threads start in window 0 and end in window 5; the second
        // starts late in window 0. Windows 1..=4 are full.
        let phase = Phase {
            workload: Workload::Read,
            data: data(),
            threads: 2,
            seconds: 1.0,
            trace: true,
            origin: Instant::now(),
            zipf: None,
            fill_order: &[],
        };
        let worker = |start_ns: u64, per_window: [u32; 6]| {
            let mut out = Tally::new(&phase, 0).out;
            out.start_ns = start_ns;
            out.end_ns = 5 * TRACE_WINDOW_NS + 1;
            out.trace_windows = per_window.to_vec();
            out
        };
        let workers = [
            worker(0, [9, 10, 20, 11, 21, 3]),
            worker(TRACE_WINDOW_NS / 2, [4, 1, 2, 1, 2, 1]),
        ];
        let (traced, untraced) = trace_window_counts(&workers);
        assert_eq!(traced, vec![11.0, 12.0]);
        assert_eq!(untraced, vec![22.0, 23.0]);
    }

    #[test]
    fn names_round_trip_and_whys_fit_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("scan"), None);
    }
}
