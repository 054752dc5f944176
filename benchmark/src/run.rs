//! One run of one workload: set-up, measured phase, settle, read-back,
//! and the numbers that come out of it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use miodb_client::KvClient;
use miodb_common::{trace, EngineReport, Histogram, Opcode, Result, ServiceTelemetry};

use crate::gen::{fill_value, permutation, present_key, Rng, Zipfian};
use crate::host;
use crate::stats::{self, median_f64, paired_loss_pct};
use crate::system::{engine_options, Dataset, System};
use crate::workloads::{
    final_versions, measured_phase, read_back, Phase, ReadBack, WorkerOut, Workload, RATE_WINDOWS,
};

/// Times set-up runs in an untraced run; the median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Stretches of the run a latency percentile is taken in; the median of
/// them is reported.
const LATENCY_WINDOWS: usize = 5;
/// Records read back after a run that did not fill: about this many.
const READ_BACK_SAMPLES: u64 = 4096;
/// `fill` reads back one record in this many.
const FILL_READ_BACK_ONE_IN: u64 = 8;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Inputs that depend only on the seed, generated during set-up.
pub struct Inputs {
    pub data: Dataset,
    pub zipf: Option<Zipfian>,
    pub fill_order: Vec<u32>,
}

/// Everything one run observed, before it is turned into metrics.
pub struct Observed {
    pub config: RunConfig,
    pub inputs: Inputs,
    pub setup_s: Vec<f64>,
    pub preload_put_ns: Vec<u32>,
    pub workers: Vec<WorkerOut>,
    pub read_back: ReadBack,
    /// Engine report before the measured phase, right after it, and after
    /// the store settled.
    pub before: EngineReport,
    pub after: EngineReport,
    pub settled: EngineReport,
    pub settle_s: f64,
    pub cpu_us: u64,
    pub server_switches: u64,
    pub threads_live: usize,
    /// The server's own telemetry over the measured phase (served runs).
    pub server: Option<ServerSide>,
    /// Throughput lost with the program's tracer on 1-in-1 (traced served
    /// runs), in percent.
    pub tracer_overhead_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

fn generate_inputs(cfg: &RunConfig) -> Inputs {
    let data = cfg.workload.dataset(cfg.seed, cfg.seconds);
    Inputs {
        data,
        zipf: (cfg.workload == Workload::Mixed).then(|| Zipfian::new(data.records, 0.99)),
        fill_order: if cfg.workload == Workload::Fill {
            permutation(data.records, &mut Rng::for_stream(cfg.seed, 0xF11))
        } else {
            Vec::new()
        },
    }
}

struct SetUp {
    inputs: Inputs,
    system: System,
    preload_failed: u64,
    preload_put_ns: Vec<u32>,
}

/// Set-up: generate the inputs, open the system, preload it and let it
/// settle — everything between process start and the first measured op.
fn set_up(cfg: &RunConfig) -> Result<SetUp> {
    let inputs = generate_inputs(cfg);
    let w = cfg.workload;
    let opts = engine_options(inputs.data, w.overwrites(), w.device());
    let system = if w.is_net() {
        System::open_net(opts)?
    } else {
        System::open_embedded(opts)?
    };
    let (preload_failed, preload_put_ns) = if w.preloads() {
        system.preload(inputs.data, w.threads())?
    } else {
        (0, Vec::new())
    };
    Ok(SetUp {
        inputs,
        system,
        preload_failed,
        preload_put_ns,
    })
}

/// Sum over threads that lived through the phase of the voluntary context
/// switches they made in it (the server's threads; client threads report
/// their own).
fn switches_delta(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> u64 {
    after
        .iter()
        .filter_map(|(tid, n)| before.get(tid).map(|b| n.saturating_sub(*b)))
        .sum()
}

fn timed_set_up(cfg: &RunConfig, setup_s: &mut Vec<f64>) -> Result<SetUp> {
    let t = Instant::now();
    let s = set_up(cfg)?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(s)
}

pub fn run(cfg: RunConfig) -> Result<Observed> {
    // Set-up runs several times for a steady `setup_s`; the last is kept.
    let mut setup_s = Vec::new();
    if !cfg.trace {
        for _ in 1..SETUP_REPEATS {
            timed_set_up(&cfg, &mut setup_s)?.system.shutdown()?;
        }
    }
    let SetUp {
        inputs,
        system,
        preload_failed,
        preload_put_ns,
    } = timed_set_up(&cfg, &mut setup_s)?;

    let w = cfg.workload;
    let origin = Instant::now();
    let phase = Phase {
        workload: w,
        data: inputs.data,
        threads: w.threads(),
        seconds: cfg.seconds,
        trace: cfg.trace,
        origin,
        zipf: inputs.zipf.as_ref(),
        fill_order: &inputs.fill_order,
    };
    let before = system.engine().report();
    let service_before = ServiceSnapshot::take(&system);
    let cpu_before = host::process_cpu_us();
    let switches_before = host::voluntary_switches_by_thread();
    let workers = measured_phase(&phase, &system);
    let server_switches = switches_delta(&switches_before, &host::voluntary_switches_by_thread());
    let cpu_us = host::process_cpu_us().saturating_sub(cpu_before);
    let threads_live = host::live_threads();
    let after = system.engine().report();
    let server = service_before.map(|b| b.until_now(&system));

    let t = Instant::now();
    system.engine().wait_idle()?;
    let settle_s = t.elapsed().as_secs_f64();
    let settled = system.engine().report();

    let expected = final_versions(&workers, inputs.data.records);
    let one_in = if w == Workload::Fill {
        FILL_READ_BACK_ONE_IN
    } else {
        (inputs.data.records / READ_BACK_SAMPLES).max(1)
    };
    let read_back = read_back(&system, inputs.data, &expected, one_in);
    let tracer_overhead_pct = match &system {
        System::Net { addr, .. } if cfg.trace => {
            tracer_overhead_pct(*addr, inputs.data, w.threads())
        }
        _ => 0.0,
    };
    system.shutdown()?;

    let preloaded = if w.preloads() { inputs.data.records } else { 0 };
    let attempted =
        preloaded + workers.iter().map(|o| o.attempted).sum::<u64>() + read_back.attempted;
    let failed = preload_failed + workers.iter().map(|o| o.failed).sum::<u64>() + read_back.failed;
    let first_failure = workers
        .iter()
        .find_map(|o| o.first_failure.clone())
        .or_else(|| read_back.first_failure.clone())
        .or_else(|| {
            (preload_failed > 0)
                .then(|| format!("{preload_failed} preload writes not acknowledged"))
        });
    Ok(Observed {
        config: cfg,
        inputs,
        setup_s,
        preload_put_ns,
        workers,
        read_back,
        before,
        after,
        settled,
        settle_s,
        cpu_us,
        server_switches,
        threads_live,
        server,
        tracer_overhead_pct,
        attempted,
        failed,
        first_failure,
    })
}

/// What the server's telemetry said over the measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSide {
    pub get_p50_us: f64,
    pub get_p99_us: f64,
    pub put_p50_us: f64,
    pub put_p99_us: f64,
    pub requests: u64,
    pub backpressure_events: u64,
    pub protocol_errors: u64,
    pub conns_refused: u64,
}

struct ServiceSnapshot {
    get: Histogram,
    put: Histogram,
    requests: u64,
    backpressure_events: u64,
    protocol_errors: u64,
    conns_refused: u64,
}

impl ServiceSnapshot {
    fn take(system: &System) -> Option<ServiceSnapshot> {
        let System::Net { server, .. } = system else {
            return None;
        };
        let t: &ServiceTelemetry = server.telemetry();
        // Two counters have no getter; the Prometheus rendering is public.
        let text = t.render_prometheus();
        let counter = |name: &str| {
            text.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0, |v| v as u64)
        };
        Some(ServiceSnapshot {
            get: t.latency(Opcode::Get).snapshot(),
            put: t.latency(Opcode::Put).snapshot(),
            requests: t.requests_total(),
            backpressure_events: t.backpressure_events(),
            protocol_errors: counter("miodb_server_protocol_errors_total"),
            conns_refused: counter("miodb_server_connections_refused_total"),
        })
    }

    fn until_now(&self, system: &System) -> ServerSide {
        let Some(now) = ServiceSnapshot::take(system) else {
            return ServerSide::default();
        };
        let (get, put) = (now.get.diff(&self.get), now.put.diff(&self.put));
        ServerSide {
            get_p50_us: get.percentile(50.0) as f64 / 1e3,
            get_p99_us: get.percentile(99.0) as f64 / 1e3,
            put_p50_us: put.percentile(50.0) as f64 / 1e3,
            put_p99_us: put.percentile(99.0) as f64 / 1e3,
            requests: now.requests - self.requests,
            backpressure_events: now.backpressure_events - self.backpressure_events,
            protocol_errors: now.protocol_errors - self.protocol_errors,
            conns_refused: now.conns_refused - self.conns_refused,
        }
    }
}

/// [`tracer_overhead_pct`] alternates this many windows of this length,
/// tracer off in the even ones and on in the odd ones.
const TRACER_WINDOWS: usize = 32;
const TRACER_WINDOW: Duration = Duration::from_millis(125);

/// What the program's own tracer costs when it is on: `net-rtt`-shaped
/// traffic (depth 1, 50/50 get/put, every connection) while the tracer is
/// switched between sampling every request and off, through the public
/// `trace::enable`/`disable` only. Reports the throughput of each window
/// with the tracer on against the window before it, the median pair, as a
/// loss in percent. Runs after the read-back, so what it overwrites is not
/// checked.
fn tracer_overhead_pct(addr: std::net::SocketAddr, data: Dataset, threads: usize) -> f64 {
    let window = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let answered: Vec<AtomicU64> = (0..TRACER_WINDOWS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (window, stop, answered) = (&window, &stop, &answered);
            s.spawn(move || {
                let Ok(mut client) = KvClient::connect(addr) else {
                    return;
                };
                let mut rng = Rng::for_stream(data.seed, 0x7AC + t as u64);
                let mut value = vec![0u8; data.value_len];
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let record = rng.below(data.records);
                    let key = present_key(record);
                    let started_in = window.load(Ordering::Relaxed);
                    let ok = if ops.is_multiple_of(2) {
                        client.get(&key).is_ok()
                    } else {
                        fill_value(data.seed, record, u64::MAX, &mut value);
                        client.put(&key, &value).is_ok()
                    };
                    ops += 1;
                    if ok {
                        answered[started_in].fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = client.close();
            });
        }
        for w in 0..TRACER_WINDOWS {
            if w % 2 == 1 {
                trace::enable(1 << 18, 1, false);
            } else {
                trace::disable();
                drop(trace::drain());
            }
            window.store(w, Ordering::Relaxed);
            std::thread::sleep(TRACER_WINDOW);
        }
        trace::disable();
        stop.store(true, Ordering::Relaxed);
    });
    drop(trace::drain());
    let of_parity = |parity: usize| -> Vec<f64> {
        answered
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|n| n.load(Ordering::Relaxed) as f64)
            .collect()
    };
    paired_loss_pct(&of_parity(1), &of_parity(0))
}

/// Percentile `p` of per-thread latency samples, in µs (see
/// [`stats::windowed_percentile`]).
pub fn windowed_percentile_us(per_thread: &[&[u32]], p: f64) -> f64 {
    stats::windowed_percentile(per_thread, p, LATENCY_WINDOWS) / 1e3
}

impl Observed {
    pub fn measured_ops(&self) -> u64 {
        self.workers.iter().map(|o| o.attempted).sum()
    }

    /// Wall time of the measured phase: first thread's start to last
    /// thread's end.
    pub fn measured_s(&self) -> f64 {
        let start = self.workers.iter().map(|o| o.start_ns).min().unwrap_or(0);
        let end = self.workers.iter().map(|o| o.end_ns).max().unwrap_or(0);
        (end.saturating_sub(start)) as f64 / 1e9
    }

    /// Verified operations per second. `fill` writes a fixed number of
    /// records, so its rate is records over wall time; the timed workloads
    /// report the median of [`RATE_WINDOWS`] equal windows.
    pub fn ops_per_s(&self) -> f64 {
        if self.config.workload == Workload::Fill {
            let ok = self.measured_ops() - self.workers.iter().map(|o| o.failed).sum::<u64>();
            return ok as f64 / self.measured_s().max(1e-9);
        }
        let window_s = self.config.seconds / RATE_WINDOWS as f64;
        let rates: Vec<f64> = (0..RATE_WINDOWS)
            .map(|w| self.workers.iter().map(|o| o.window_ops[w]).sum::<u64>() as f64 / window_s)
            .collect();
        median_f64(&rates)
    }

    /// Get latencies of the run: the measured phase's, or — on `fill`,
    /// which makes none — the read-back's.
    pub fn get_samples(&self) -> Vec<&[u32]> {
        let measured: Vec<&[u32]> = self.workers.iter().map(|o| o.get_ns.as_slice()).collect();
        if measured.iter().all(|s| s.is_empty()) {
            vec![self.read_back.get_ns.as_slice()]
        } else {
            measured
        }
    }

    /// Put latencies of the run: the measured phase's, or — on `read`,
    /// which makes none — the preload's.
    pub fn put_samples(&self) -> Vec<&[u32]> {
        let measured: Vec<&[u32]> = self.workers.iter().map(|o| o.put_ns.as_slice()).collect();
        if measured.iter().all(|s| s.is_empty()) {
            vec![self.preload_put_ns.as_slice()]
        } else {
            measured
        }
    }

    /// Mean latency of lookups for keys that were never written.
    pub fn absent_get_mean_ns(&self) -> f64 {
        let n: u64 = self.workers.iter().map(|o| o.absent_gets).sum();
        let ns: u64 = self.workers.iter().map(|o| o.absent_get_ns).sum();
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// NVM bytes written per user byte over the whole run, after settling.
    pub fn write_amp(&self) -> f64 {
        self.settled.stats.write_amplification
    }

    /// NVM bytes in use after settling per byte of live user data.
    pub fn space_amp(&self) -> f64 {
        self.settled.nvm_used_bytes as f64 / self.inputs.data.user_bytes().max(1) as f64
    }

    /// Share of the writers' wall time spent stalled, over the whole run.
    pub fn stall_frac(&self) -> f64 {
        let s = &self.settled.stats;
        let stalled = (s.interval_stall_ns + s.cumulative_stall_ns) as f64;
        let preload_ns: f64 = self.preload_put_ns.iter().map(|&n| f64::from(n)).sum();
        let writing_ns: f64 = self
            .workers
            .iter()
            .filter(|o| !o.put_ns.is_empty())
            .map(|o| (o.end_ns - o.start_ns) as f64)
            .sum();
        stalled / (preload_ns + writing_ns).max(1.0)
    }
}
