//! Closed-loop network benchmark for the sharded service layer.
//!
//! ```text
//! netbench [--shards N] [--connections N] [--seconds F] [--records N]
//!          [--value-len N] [--pipeline-depth N] [--throttled]
//!          [--replicate async|semi-sync] [--sweep N,N,...]
//!          [--serve] [--addr HOST:PORT] [--max-connections N]
//! ```
//!
//! `--sweep 1000,2500,5000,10000` replaces the measured phase with a
//! connection-count sweep: each step opens that many concurrent
//! connections against the event-driven server (raising `RLIMIT_NOFILE`
//! as needed) and drives them from a fixed pool of driver threads — each
//! thread owns a slice of the connections and cycles send-batch /
//! drain-batch across them, so ten thousand sockets don't need ten
//! thousand benchmark threads. Per-step throughput and p99 land in
//! `BENCH_server.json` under `"sweep"`.
//!
//! By default server and clients share one process (2 fds per
//! connection). When that would overrun `RLIMIT_NOFILE` — a 10k-conn
//! sweep needs >20k fds — split them: `netbench --serve` hosts only the
//! engine and server, prints `ADDR <host:port>` on stdout and runs until
//! stdin EOF; a second `netbench --addr <host:port> --sweep ...` process
//! drives the workload and writes `BENCH_server.json`.
//!
//! Starts an in-process [`KvServer`] over a [`ShardRouter`] of MioDB
//! instances on an ephemeral localhost port, then drives it with N
//! closed-loop client connections: a fill phase loading `--records` keys,
//! followed by `--seconds` of a YCSB-A-style 50/50 read/update mix over
//! uniformly random keys. Each connection keeps `--pipeline-depth`
//! requests in flight, which is where wire throughput comes from.
//!
//! `--replicate` switches to replication mode: a single-shard leader with
//! a WAL-shipping [`Replicator`] plus an in-process follower applying the
//! stream, at the chosen ack level. The summary and JSON gain the
//! follower's publish→ack lag percentiles and final acked offset.
//!
//! Prints a summary table and writes `BENCH_server.json` with throughput
//! and client-observed p50/p99/p99.9 latency per opcode and phase. Exits
//! nonzero if either phase completes zero operations, so CI can use a
//! short run as a smoke test.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_bench::{print_header, print_row};
use miodb_client::{ClientCounters, ClientOptions, KvClient};
use miodb_common::trace;
use miodb_common::{Histogram, Opcode, Request, Response, Result};
use miodb_core::{MioDb, MioOptions};
use miodb_pmem::DeviceModel;
use miodb_repl::{
    engine_snapshot_bytes, AckLevel, Follower, FollowerOptions, Replicator, ReplicatorOptions,
};
use miodb_server::{KvServer, ReplConfig, ServerOptions, ShardRouter};

#[derive(Clone)]
struct Config {
    shards: usize,
    connections: usize,
    seconds: f64,
    records: u64,
    value_len: usize,
    pipeline_depth: usize,
    throttled: bool,
    seed: u64,
    trace: bool,
    replicate: Option<AckLevel>,
    sweep: Vec<usize>,
    driver_threads: usize,
    serve: bool,
    addr: Option<String>,
    max_connections: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            shards: 4,
            connections: 4,
            seconds: 10.0,
            records: 20_000,
            value_len: 256,
            pipeline_depth: 32,
            throttled: false,
            seed: 0x9E37_79B9_7F4A_7C15,
            trace: false,
            replicate: None,
            sweep: Vec::new(),
            driver_threads: 8,
            serve: false,
            addr: None,
            max_connections: 0,
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("bad or missing value for {flag}");
        std::process::exit(2)
    })
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--shards" => {
                i += 1;
                cfg.shards = parse_num(flag, args.get(i));
            }
            "--connections" => {
                i += 1;
                cfg.connections = parse_num(flag, args.get(i));
            }
            "--seconds" => {
                i += 1;
                cfg.seconds = parse_num(flag, args.get(i));
            }
            "--records" => {
                i += 1;
                cfg.records = parse_num(flag, args.get(i));
            }
            "--value-len" => {
                i += 1;
                cfg.value_len = parse_num(flag, args.get(i));
            }
            "--pipeline-depth" => {
                i += 1;
                cfg.pipeline_depth = parse_num(flag, args.get(i));
            }
            "--throttled" => cfg.throttled = true,
            "--trace" => cfg.trace = true,
            "--replicate" => {
                i += 1;
                cfg.replicate = match args.get(i).map(String::as_str) {
                    Some("async") => Some(AckLevel::Async),
                    Some("semi-sync") => Some(AckLevel::SemiSync),
                    Some("quorum") => Some(AckLevel::Quorum),
                    other => {
                        eprintln!(
                            "bad value for --replicate: {} (want async|semi-sync|quorum)",
                            other.unwrap_or("<missing>")
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                i += 1;
                cfg.seed = parse_num(flag, args.get(i));
            }
            "--sweep" => {
                i += 1;
                let list = args.get(i).cloned().unwrap_or_default();
                cfg.sweep = list
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .collect();
                if cfg.sweep.is_empty() {
                    eprintln!("bad value for --sweep: want a comma-separated connection list");
                    std::process::exit(2);
                }
            }
            "--driver-threads" => {
                i += 1;
                cfg.driver_threads = parse_num(flag, args.get(i));
            }
            "--serve" => cfg.serve = true,
            "--addr" => {
                i += 1;
                cfg.addr = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("bad or missing value for --addr");
                    std::process::exit(2)
                }));
            }
            "--max-connections" => {
                i += 1;
                cfg.max_connections = parse_num(flag, args.get(i));
            }
            other => {
                eprintln!(
                    "unknown flag: {other}\nusage: netbench [--shards N] [--connections N] \
                     [--seconds F] [--records N] [--value-len N] [--pipeline-depth N] \
                     [--throttled] [--trace] [--seed N] [--replicate async|semi-sync] \
                     [--sweep N,N,...] [--driver-threads N] [--serve] [--addr HOST:PORT] \
                     [--max-connections N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cfg.shards = cfg.shards.max(1);
    cfg.connections = cfg.connections.max(1);
    cfg.records = cfg.records.max(1);
    cfg.pipeline_depth = cfg.pipeline_depth.max(1);
    cfg.driver_threads = cfg.driver_threads.max(1);
    if !cfg.sweep.is_empty() && cfg.replicate.is_some() {
        eprintln!("--sweep and --replicate are mutually exclusive");
        std::process::exit(2);
    }
    if cfg.addr.is_some() && (cfg.serve || cfg.replicate.is_some()) {
        eprintln!("--addr drives a remote server; it excludes --serve and --replicate");
        std::process::exit(2);
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    if let Err(e) = run(&cfg) {
        eprintln!("netbench failed: {e}");
        std::process::exit(1);
    }
}

/// Client socket timeouts for every benchmark connection: a wedged server
/// surfaces as a timeout error instead of hanging the run.
fn client_options() -> ClientOptions {
    ClientOptions {
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ClientOptions::default()
    }
}

/// One phase's client-side measurements for a single connection.
struct ConnResult {
    ops: u64,
    get_lat: Histogram,
    put_lat: Histogram,
    counters: ClientCounters,
}

impl ConnResult {
    fn new() -> ConnResult {
        ConnResult {
            ops: 0,
            get_lat: Histogram::new(),
            put_lat: Histogram::new(),
            counters: ClientCounters::default(),
        }
    }
}

/// Tiny deterministic PRNG (xorshift64*) so the benchmark needs no
/// external randomness source and runs are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn key_bytes(k: u64) -> Vec<u8> {
    format!("user{k:016}").into_bytes()
}

/// Drives one connection closed-loop: keeps `depth` requests in flight,
/// records the wall-clock send→receive latency of every response, and
/// stops once `make_req` returns `None` and all in-flight responses have
/// drained.
fn drive(
    addr: SocketAddr,
    depth: usize,
    mut make_req: impl FnMut() -> Option<Request>,
    result: &mut ConnResult,
) -> Result<()> {
    let mut client = KvClient::connect_with(addr, client_options())?;
    let mut inflight: VecDeque<(Opcode, Instant)> = VecDeque::with_capacity(depth);
    loop {
        while inflight.len() < depth {
            match make_req() {
                Some(req) => {
                    let op = req.opcode();
                    client.send(&req)?;
                    inflight.push_back((op, Instant::now()));
                }
                None => break,
            }
        }
        if inflight.is_empty() {
            break;
        }
        client.flush()?;
        // Drain one response (blocking) plus everything else already
        // buffered, so the next refill sends a batch — not one frame.
        loop {
            let (_, resp) = client.recv()?;
            let (op, sent) = inflight.pop_front().expect("response matches a send");
            let ns = sent.elapsed().as_nanos() as u64;
            match op {
                Opcode::Get => result.get_lat.record(ns),
                _ => result.put_lat.record(ns),
            }
            if let Response::Err(msg) = resp {
                return Err(miodb_common::Error::Background(format!(
                    "server error: {msg}"
                )));
            }
            result.ops += 1;
            if inflight.is_empty() || client.buffered() == 0 {
                break;
            }
        }
    }
    result.counters = client.counters();
    client.close()
}

struct PhaseSummary {
    name: &'static str,
    ops: u64,
    elapsed: Duration,
    get_lat: Histogram,
    put_lat: Histogram,
    counters: ClientCounters,
}

impl PhaseSummary {
    fn kops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9) / 1e3
    }
}

/// Runs `per_conn` closures on one thread per connection and aggregates.
fn run_phase(
    name: &'static str,
    addr: SocketAddr,
    cfg: &Config,
    per_conn: impl Fn(usize) -> Box<dyn FnMut() -> Option<Request> + Send>,
) -> Result<PhaseSummary> {
    let started = Instant::now();
    let results: Vec<Result<ConnResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|c| {
                let mut make_req = per_conn(c);
                let depth = cfg.pipeline_depth;
                s.spawn(move || {
                    let mut r = ConnResult::new();
                    drive(addr, depth, &mut make_req, &mut r)?;
                    Ok(r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut ops = 0;
    let get_lat = Histogram::new();
    let put_lat = Histogram::new();
    let mut counters = ClientCounters::default();
    for r in results {
        let r = r?;
        ops += r.ops;
        get_lat.merge(&r.get_lat);
        put_lat.merge(&r.put_lat);
        counters.retries += r.counters.retries;
        counters.timeouts += r.counters.timeouts;
        counters.reconnects += r.counters.reconnects;
        counters.ambiguous += r.counters.ambiguous;
    }
    Ok(PhaseSummary {
        name,
        ops,
        elapsed,
        get_lat,
        put_lat,
        counters,
    })
}

/// One connection-sweep step: `conns` concurrent sockets driven by a
/// fixed pool of driver threads. Each thread owns a contiguous slice of
/// the connections and loops send-batch (depth requests per connection,
/// one flush each) then drain-batch (blocking recv of everything it sent),
/// so the server holds `conns × depth` requests in flight without the
/// benchmark needing one thread per socket. The in-flight depth per
/// connection adapts downward at high connection counts to keep the total
/// outstanding window (and thus the drain-batch wall time) bounded.
fn run_sweep_step(addr: SocketAddr, cfg: &Config, conns: usize) -> Result<PhaseSummary> {
    let threads = cfg.driver_threads.min(conns);
    // Cap the total outstanding window: closed-loop p99 at a step is
    // roughly outstanding/throughput, so an unbounded window would just
    // report queueing delay the benchmark itself created.
    let depth = cfg.pipeline_depth.min((16_384 / conns).max(1));
    let records = cfg.records;
    let value_len = cfg.value_len;
    let seconds = cfg.seconds;
    let seed = cfg.seed;
    // All threads connect first, then start the measured window together:
    // a 10k-connection setup storm must not eat into (or be billed to)
    // the throughput window.
    let barrier = std::sync::Barrier::new(threads);
    let results: Vec<Result<(ConnResult, Duration)>> = std::thread::scope(|s| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || -> Result<(ConnResult, Duration)> {
                    let lo = conns * t / threads;
                    let hi = conns * (t + 1) / threads;
                    let mut opts = client_options();
                    // A full drain-batch at 10k connections can keep one
                    // socket waiting well past the interactive default.
                    opts.read_timeout = Some(Duration::from_secs(30));
                    let mut clients = Vec::with_capacity(hi - lo);
                    let mut connect_err = None;
                    for _ in lo..hi {
                        match KvClient::connect_with(addr, opts.clone()) {
                            Ok(c) => clients.push(c),
                            Err(e) => {
                                connect_err = Some(e);
                                break;
                            }
                        }
                    }
                    // Reach the barrier even on failure, or the other
                    // driver threads would wait forever.
                    barrier.wait();
                    if let Some(e) = connect_err {
                        return Err(e);
                    }
                    let mut rng = Rng(seed ^ (0xD1B5_4A32 + t as u64));
                    let mut r = ConnResult::new();
                    let window_start = Instant::now();
                    let deadline = window_start + Duration::from_secs_f64(seconds);
                    let mut sent: Vec<Vec<(Opcode, Instant)>> = vec![Vec::new(); clients.len()];
                    while Instant::now() < deadline {
                        for (c, client) in clients.iter_mut().enumerate() {
                            for _ in 0..depth {
                                let k = rng.next() % records;
                                let req = if rng.next().is_multiple_of(2) {
                                    Request::Get { key: key_bytes(k) }
                                } else {
                                    Request::Put {
                                        key: key_bytes(k),
                                        value: vec![b'y'; value_len],
                                    }
                                };
                                let op = req.opcode();
                                client.send(&req)?;
                                sent[c].push((op, Instant::now()));
                            }
                            client.flush()?;
                        }
                        for (c, client) in clients.iter_mut().enumerate() {
                            for (op, at) in sent[c].drain(..) {
                                let (_, resp) = client.recv()?;
                                let ns = at.elapsed().as_nanos() as u64;
                                match op {
                                    Opcode::Get => r.get_lat.record(ns),
                                    _ => r.put_lat.record(ns),
                                }
                                if let Response::Err(msg) = resp {
                                    return Err(miodb_common::Error::Background(format!(
                                        "server error: {msg}"
                                    )));
                                }
                                r.ops += 1;
                            }
                        }
                    }
                    let window = window_start.elapsed();
                    for client in clients {
                        let c = client.counters();
                        r.counters.retries += c.retries;
                        r.counters.timeouts += c.timeouts;
                        r.counters.reconnects += c.reconnects;
                        r.counters.ambiguous += c.ambiguous;
                        r.counters.backpressure += c.backpressure;
                        client.close()?;
                    }
                    Ok((r, window))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep driver thread panicked"))
            .collect()
    });
    let mut elapsed = Duration::ZERO;
    let mut agg = ConnResult::new();
    for r in results {
        let (r, window) = r?;
        elapsed = elapsed.max(window);
        agg.ops += r.ops;
        agg.get_lat.merge(&r.get_lat);
        agg.put_lat.merge(&r.put_lat);
        agg.counters.retries += r.counters.retries;
        agg.counters.timeouts += r.counters.timeouts;
        agg.counters.reconnects += r.counters.reconnects;
        agg.counters.ambiguous += r.counters.ambiguous;
        agg.counters.backpressure += r.counters.backpressure;
    }
    Ok(PhaseSummary {
        name: "sweep",
        ops: agg.ops,
        elapsed,
        get_lat: agg.get_lat,
        put_lat: agg.put_lat,
        counters: agg.counters,
    })
}

fn lat_json(label: &str, h: &Histogram) -> String {
    format!(
        "\"{label}\":{{\"count\":{},\"mean_us\":{:.2},\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1}}}",
        h.count(),
        h.mean() / 1e3,
        h.percentile(50.0) as f64 / 1e3,
        h.percentile(99.0) as f64 / 1e3,
        h.percentile(99.9) as f64 / 1e3,
    )
}

fn print_phase(p: &PhaseSummary) {
    let widths = [8usize, 10, 10, 8, 10, 10, 10];
    for (op, h) in [("put", &p.put_lat), ("get", &p.get_lat)] {
        if h.count() == 0 {
            continue;
        }
        print_row(
            &[
                p.name.to_string(),
                op.to_string(),
                format!("{}", h.count()),
                format!("{:.1}", p.kops()),
                format!("{:.1}", h.percentile(50.0) as f64 / 1e3),
                format!("{:.1}", h.percentile(99.0) as f64 / 1e3),
                format!("{:.1}", h.percentile(99.9) as f64 / 1e3),
            ],
            &widths,
        );
    }
}

fn ack_label(cfg: &Config) -> &'static str {
    match cfg.replicate {
        Some(ack) => ack.label(),
        None => "none",
    }
}

/// Engine-side state behind the benchmark server: the plain sharded
/// router, or a replicated leader with an in-process follower applying
/// the shipped WAL stream.
enum Backend {
    Sharded(Arc<ShardRouter<MioDb>>),
    Replicated {
        leader: Arc<MioDb>,
        replicator: Arc<Replicator>,
        follower: Follower,
        follower_db: Arc<MioDb>,
    },
}

/// Server-side engine options: a shard router over `--shards` MioDB
/// instances. The device model is unthrottled by default — netbench
/// measures the service layer; `--throttled` adds the NVM timing model.
fn engine_opts(cfg: &Config) -> MioOptions {
    let mut opts = MioOptions {
        memtable_bytes: 1 << 20,
        nvm_pool_bytes: 1 << 30,
        dram_pool_bytes: 64 << 20,
        name: "MioDB-net".to_string(),
        ..MioOptions::default()
    };
    if !cfg.throttled {
        opts.nvm_device = DeviceModel::nvm_unthrottled();
    }
    opts
}

/// `--serve`: host the engine and server alone in this process, print the
/// listen address, and block until stdin reaches EOF. A second netbench
/// process drives the workload with `--addr`. Splitting the two halves
/// across processes is what lets a 10k-connection sweep fit under a
/// 20k-fd `RLIMIT_NOFILE`: each side then holds one descriptor per
/// connection instead of two.
fn serve_only(cfg: &Config) -> Result<()> {
    let max_conns = if cfg.max_connections > 0 {
        cfg.max_connections
    } else {
        10_064
    };
    let achieved = miodb_server::raise_nofile_limit(max_conns as u64 + 512);
    if (achieved as usize) < max_conns + 64 {
        eprintln!(
            "[netbench] RLIMIT_NOFILE allows only {achieved} fds; fewer than {max_conns} \
             connections will fit"
        );
    }
    let router = Arc::new(ShardRouter::open_miodb(&engine_opts(cfg), cfg.shards)?);
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn miodb_common::KvEngine>,
        ServerOptions {
            max_connections: max_conns,
            ..ServerOptions::default()
        },
    )?;
    // The driving process scrapes this exact line for the address.
    println!("ADDR {}", server.local_addr());
    std::io::Write::flush(&mut std::io::stdout()).map_err(miodb_common::Error::Io)?;
    eprintln!(
        "[netbench] --serve: {} shards on {}, max {max_conns} connections; waiting for stdin EOF",
        cfg.shards,
        server.local_addr()
    );
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    eprintln!("[netbench] --serve: stdin closed, shutting down");
    server.shutdown();
    router.close()?;
    Ok(())
}

fn run(cfg: &Config) -> Result<()> {
    if cfg.serve {
        return serve_only(cfg);
    }
    let opts = engine_opts(cfg);
    let (server, backend): (Option<KvServer>, Option<Backend>) = if cfg.addr.is_some() {
        // Remote mode: the server lives in a `--serve` peer process.
        (None, None)
    } else if let Some(ack) = cfg.replicate {
        // Replication mode: one leader engine (the commit sink taps its
        // group-commit pipeline) plus a follower replica.
        let leader = Arc::new(MioDb::open(opts.clone())?);
        let replicator = Replicator::new(ReplicatorOptions {
            ack_level: ack,
            semi_sync_timeout: Duration::from_secs(10),
            retain_bytes: 256 << 20,
            group_size: 2,
        });
        leader.set_commit_sink(Some(
            Arc::clone(&replicator) as Arc<dyn miodb_common::ReplicationSink>
        ));
        let snap = Arc::clone(&leader);
        let server = KvServer::start_replicated(
            "127.0.0.1:0",
            Arc::clone(&leader) as Arc<dyn miodb_common::KvEngine>,
            ServerOptions::default(),
            ReplConfig::new(
                Some(Arc::clone(&replicator)),
                Some(Box::new(move || engine_snapshot_bytes(&snap))),
                Arc::new(miodb_common::RoleState::new_leader(1)),
                "",
            ),
        )?;
        let follower_db = Arc::new(MioDb::open(MioOptions {
            name: "MioDB-net-follower".to_string(),
            ..opts.clone()
        })?);
        let follower = Follower::start(
            Arc::clone(&follower_db),
            &server.local_addr().to_string(),
            FollowerOptions::default(),
        )?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while replicator.subscriber_count() == 0 {
            if Instant::now() >= deadline {
                return Err(miodb_common::Error::Background(
                    "follower never subscribed".to_string(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        (
            Some(server),
            Some(Backend::Replicated {
                leader,
                replicator,
                follower,
                follower_db,
            }),
        )
    } else {
        // A connection sweep needs the fd budget and the server's accept
        // cap raised before any socket opens: every step needs one client
        // and one server fd per connection, both in this process.
        let max_sweep = cfg.sweep.iter().copied().max().unwrap_or(0);
        let mut server_opts = ServerOptions::default();
        if max_sweep > 0 {
            let achieved = miodb_server::raise_nofile_limit(2 * max_sweep as u64 + 512);
            let cap = (achieved.saturating_sub(512) / 2) as usize;
            if cap < max_sweep {
                eprintln!(
                    "[netbench] RLIMIT_NOFILE allows only {achieved} fds; sweep steps above \
                     {cap} connections will be skipped"
                );
            }
            server_opts.max_connections = max_sweep + 64;
        }
        let router = Arc::new(ShardRouter::open_miodb(&opts, cfg.shards)?);
        let server = KvServer::start(
            "127.0.0.1:0",
            Arc::clone(&router) as Arc<dyn miodb_common::KvEngine>,
            server_opts,
        )?;
        (Some(server), Some(Backend::Sharded(router)))
    };
    let addr: std::net::SocketAddr = match &cfg.addr {
        Some(a) => a
            .parse()
            .map_err(|_| miodb_common::Error::Background(format!("bad --addr value: {a}")))?,
        None => server.as_ref().expect("local server").local_addr(),
    };
    match &backend {
        None => eprintln!(
            "[netbench] driving remote server at {addr}; {} connections, depth {}, {} records, \
             {}s run",
            cfg.connections, cfg.pipeline_depth, cfg.records, cfg.seconds
        ),
        Some(Backend::Sharded(_)) => eprintln!(
            "[netbench] serving {} shards on {addr}; {} connections, depth {}, {} records, {}s run",
            cfg.shards, cfg.connections, cfg.pipeline_depth, cfg.records, cfg.seconds
        ),
        Some(Backend::Replicated { .. }) => eprintln!(
            "[netbench] replicated leader on {addr} ({} acks) + follower; {} connections, \
             depth {}, {} records, {}s run",
            ack_label(cfg),
            cfg.connections,
            cfg.pipeline_depth,
            cfg.records,
            cfg.seconds
        ),
    }

    // Phase 1: fill. Connections split the keyspace into contiguous
    // stripes so every record is written exactly once.
    let records = cfg.records;
    let connections = cfg.connections as u64;
    let value_len = cfg.value_len;
    let fill = run_phase("fill", addr, cfg, |c| {
        let lo = records * c as u64 / connections;
        let hi = records * (c as u64 + 1) / connections;
        let mut next = lo;
        Box::new(move || {
            if next >= hi {
                return None;
            }
            let k = next;
            next += 1;
            Some(Request::Put {
                key: key_bytes(k),
                value: vec![b'x'; value_len],
            })
        })
    })?;

    // Tracing covers the measured phase only: the fill phase would
    // overflow the span ring without telling us anything about the mix.
    // Server and clients share one process, so one global tracer captures
    // complete client→server→engine trees.
    if cfg.trace {
        trace::enable(1 << 16, 16, false);
    }

    // Phase 2: the same YCSB-A-style 50/50 read/update mix over uniform
    // random keys, either as one fixed-connection phase or as a
    // connection-count sweep.
    let mut sweep_results: Vec<(usize, PhaseSummary)> = Vec::new();
    let ycsb = if cfg.sweep.is_empty() {
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        Some(run_phase("ycsb-a", addr, cfg, |c| {
            let mut rng = Rng(cfg.seed ^ (c as u64 + 1));
            Box::new(move || {
                if Instant::now() >= deadline {
                    return None;
                }
                let k = rng.next() % records;
                if rng.next().is_multiple_of(2) {
                    Some(Request::Get { key: key_bytes(k) })
                } else {
                    Some(Request::Put {
                        key: key_bytes(k),
                        value: vec![b'y'; value_len],
                    })
                }
            })
        })?)
    } else {
        // Local mode holds both ends of every connection (2 fds each);
        // remote mode only the client end.
        let per_conn_fds: u64 = if cfg.addr.is_some() { 1 } else { 2 };
        let achieved = miodb_server::raise_nofile_limit(
            per_conn_fds * cfg.sweep.iter().copied().max().unwrap_or(0) as u64 + 512,
        );
        let cap = (achieved.saturating_sub(512) / per_conn_fds) as usize;
        for &n in &cfg.sweep {
            if n > cap {
                eprintln!("[netbench] skipping {n}-conn sweep step (fd cap {cap})");
                continue;
            }
            let step = run_sweep_step(addr, cfg, n)?;
            let all = Histogram::new();
            all.merge(&step.get_lat);
            all.merge(&step.put_lat);
            eprintln!(
                "[netbench] sweep {n} conns: {} ops, {:.1} Kops/s, p99 {:.1}us, {} backpressure",
                step.ops,
                step.kops(),
                all.percentile(99.0) as f64 / 1e3,
                step.counters.backpressure,
            );
            sweep_results.push((n, step));
        }
        None
    };

    if cfg.trace {
        let spans = trace::drain();
        let dropped = trace::dropped_spans();
        trace::disable();
        let traces: std::collections::HashSet<u64> = spans
            .iter()
            .map(|s| s.trace_id)
            .filter(|t| *t != 0)
            .collect();
        let complete = trace::complete_tree_count(&spans);
        std::fs::write("BENCH_trace.json", trace::to_chrome_json(&spans))
            .map_err(miodb_common::Error::Io)?;
        eprintln!(
            "[netbench] trace: {} spans, {} traces, {complete} complete client->engine trees, \
             {dropped} dropped (BENCH_trace.json)",
            spans.len(),
            traces.len(),
        );
    }

    // Server-side view: scrape STATS over the wire like a client would.
    let mut probe = KvClient::connect_with(addr, client_options())?;
    let stats_text = probe.stats()?;
    probe.close()?;
    let measured_ops = ycsb.as_ref().map(|p| p.ops).unwrap_or(0)
        + sweep_results.iter().map(|(_, s)| s.ops).sum::<u64>();
    // A remote server's telemetry isn't reachable in-process, and the
    // rendered stats don't include the request total; fall back to the
    // client-side operation count (a lower bound: it excludes probes).
    let served = match &server {
        Some(s) => s.telemetry().requests_total(),
        None => fill.ops + measured_ops,
    };

    println!(
        "\n== netbench: {} shards, {} connections, depth {} ==",
        cfg.shards, cfg.connections, cfg.pipeline_depth
    );
    let widths = [8usize, 10, 10, 8, 10, 10, 10];
    print_header(
        &[
            "phase",
            "op",
            "count",
            "Kops",
            "p50(us)",
            "p99(us)",
            "p99.9(us)",
        ],
        &widths,
    );
    print_phase(&fill);
    if let Some(ycsb) = &ycsb {
        print_phase(ycsb);
    }
    for (n, step) in &sweep_results {
        let all = Histogram::new();
        all.merge(&step.get_lat);
        all.merge(&step.put_lat);
        print_row(
            &[
                format!("sw-{n}"),
                "mix".to_string(),
                format!("{}", step.ops),
                format!("{:.1}", step.kops()),
                format!("{:.1}", all.percentile(50.0) as f64 / 1e3),
                format!("{:.1}", all.percentile(99.0) as f64 / 1e3),
                format!("{:.1}", all.percentile(99.9) as f64 / 1e3),
            ],
            &widths,
        );
    }
    for line in stats_text
        .lines()
        .filter(|l| l.starts_with("miodb_server_"))
        .take(6)
    {
        eprintln!("  [server] {line}");
    }

    // Replication mode: wait for the follower to converge on everything
    // the leader committed, then report the lag distribution.
    let repl_json = match &backend {
        None | Some(Backend::Sharded(_)) => String::new(),
        Some(Backend::Replicated {
            leader, replicator, ..
        }) => {
            let target = leader.last_sequence();
            let deadline = Instant::now() + Duration::from_secs(30);
            while replicator.max_acked() < target {
                if Instant::now() >= deadline {
                    return Err(miodb_common::Error::Background(format!(
                        "follower never converged ({} < {target})",
                        replicator.max_acked()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let lag = replicator.lag_histogram();
            eprintln!(
                "  [repl] {} acks: {} groups acked, lag p50 {:.1}us p99 {:.1}us",
                ack_label(cfg),
                lag.count(),
                lag.percentile(50.0) as f64 / 1e3,
                lag.percentile(99.0) as f64 / 1e3,
            );
            format!(
                ",\"replication\":{{\"ack\":\"{}\",\"max_acked\":{},\"groups\":{},\"lag_p50_us\":{:.1},\"lag_p99_us\":{:.1}}}",
                ack_label(cfg),
                replicator.max_acked(),
                lag.count(),
                lag.percentile(50.0) as f64 / 1e3,
                lag.percentile(99.0) as f64 / 1e3,
            )
        }
    };

    if let Some(server) = server {
        server.shutdown();
    }
    match backend {
        None => {}
        Some(Backend::Sharded(router)) => router.close()?,
        Some(Backend::Replicated {
            leader,
            follower,
            follower_db,
            ..
        }) => {
            follower.stop();
            leader.set_commit_sink(None);
            follower_db.close()?;
            leader.close()?;
        }
    }

    let mut phases = vec![phase_json(&fill)];
    if let Some(ycsb) = &ycsb {
        phases.push(phase_json(ycsb));
    }
    let sweep_json = if sweep_results.is_empty() {
        String::new()
    } else {
        let steps: Vec<String> = sweep_results
            .iter()
            .map(|(n, step)| {
                let all = Histogram::new();
                all.merge(&step.get_lat);
                all.merge(&step.put_lat);
                format!(
                    "{{\"connections\":{n},\"ops\":{},\"elapsed_ns\":{},\"kops\":{:.2},\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},\"backpressure\":{},\"timeouts\":{},{},{}}}",
                    step.ops,
                    step.elapsed.as_nanos(),
                    step.kops(),
                    all.percentile(50.0) as f64 / 1e3,
                    all.percentile(99.0) as f64 / 1e3,
                    all.percentile(99.9) as f64 / 1e3,
                    step.counters.backpressure,
                    step.counters.timeouts,
                    lat_json("put", &step.put_lat),
                    lat_json("get", &step.get_lat),
                )
            })
            .collect();
        format!(",\"sweep\":[\n  {}\n]", steps.join(",\n  "))
    };
    let json = format!(
        "{{\"experiment\":\"netbench\",\"shards\":{},\"connections\":{},\"pipeline_depth\":{},\"value_len\":{},\"records\":{},\"throttled\":{},\"requests_served\":{served}{repl_json}{sweep_json},\"phases\":[\n  {}\n]}}\n",
        cfg.shards,
        cfg.connections,
        cfg.pipeline_depth,
        cfg.value_len,
        cfg.records,
        cfg.throttled,
        phases.join(",\n  "),
    );
    std::fs::write("BENCH_server.json", json).map_err(miodb_common::Error::Io)?;
    eprintln!("[netbench results written to BENCH_server.json]");

    if fill.ops == 0 || measured_ops == 0 {
        eprintln!("netbench: a phase completed zero operations");
        std::process::exit(1);
    }
    Ok(())
}

fn phase_json(p: &PhaseSummary) -> String {
    format!(
        "{{\"phase\":\"{}\",\"ops\":{},\"elapsed_ns\":{},\"kops\":{:.2},\"timeouts\":{},\"retries\":{},\"reconnects\":{},\"ambiguous\":{},{},{}}}",
        p.name,
        p.ops,
        p.elapsed.as_nanos(),
        p.kops(),
        p.counters.timeouts,
        p.counters.retries,
        p.counters.reconnects,
        p.counters.ambiguous,
        lat_json("put", &p.put_lat),
        lat_json("get", &p.get_lat),
    )
}
