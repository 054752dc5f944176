//! The per-layer ledger of a traced run: rows from the spans the benchmark
//! recorded around its calls, from deltas of the system's public counters,
//! and from the layer probes — and the budget that sets the parts against
//! the end-to-end median.

use std::path::PathBuf;

use crate::probes::{self, Rows};
use crate::report::{self, Metric};
use crate::run::{windowed_percentile_us, Observed};
use crate::spans::{self, NameTotals, SpanBuf};
use crate::stats::paired_loss_pct;
use crate::system::engine_options;
use crate::workloads::trace_window_counts;

type Totals = std::collections::BTreeMap<&'static str, NameTotals>;

/// Spans of each thread written to the Chrome trace file.
const CHROME_SPANS_PER_THREAD: usize = 20_000;

/// Where a traced run leaves its trace and the durability probe its
/// snapshot: `results/` of the benchmark's own directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Rows from the spans: mean duration of each kind of call, and the
/// benchmark's own time around them.
fn span_rows(rows: &mut Rows, o: &Observed, totals: &Totals) {
    let mean = |name: &str| totals.get(name).map_or(0.0, NameTotals::mean_ns);
    rows.insert("core.put_ns", mean("core.put"));
    rows.insert("core.get_ns", mean("core.get"));
    rows.insert("client.send_ns", mean("client.send"));
    rows.insert("client.flush_ns", mean("client.flush"));
    rows.insert("client.recv_wait_ns", mean("client.recv_wait"));
    rows.insert("bench.generate_ns", mean("bench.generate"));
    rows.insert("bench.check_ns", mean("bench.check"));
    rows.insert(
        "bench.spans_dropped",
        o.workers.iter().map(|w| w.spans.dropped).sum::<u64>() as f64,
    );

    // Tracing overhead: each window with spans on against its neighbour
    // without, of the same run.
    let (traced, untraced) = trace_window_counts(&o.workers);
    rows.insert(
        "bench.trace_overhead_pct",
        paired_loss_pct(&traced, &untraced),
    );
}

/// Rows from latency samples of the whole traced run (both kinds of
/// window): the tails the end-to-end table does not carry.
fn tail_rows(rows: &mut Rows, o: &Observed) {
    let gets = o.get_samples();
    let puts = o.put_samples();
    rows.insert("e2e.get_p99_us", windowed_percentile_us(&gets, 0.99));
    rows.insert("e2e.get_p999_us", windowed_percentile_us(&gets, 0.999));
    rows.insert("e2e.put_p99_us", windowed_percentile_us(&puts, 0.99));
    rows.insert("e2e.put_p999_us", windowed_percentile_us(&puts, 0.999));
    rows.insert("e2e.put_p9999_us", windowed_percentile_us(&puts, 0.9999));
    rows.insert("e2e.space_amp", o.space_amp());
    rows.insert("e2e.stall_frac", o.stall_frac());
    rows.insert("e2e.settle_s", o.settle_s);
    rows.insert("e2e.error_rate", per(o.failed as f64, o.attempted as f64));
    rows.insert(
        "e2e.stale_reads",
        o.workers.iter().map(|w| w.stale).sum::<u64>() as f64,
    );
}

/// Rows from public counters: the engine's stats over the measured phase,
/// the server's telemetry, the client's counters, `/proc`.
fn counter_rows(rows: &mut Rows, o: &Observed) {
    let phase = o.after.stats.diff(&o.before.stats);
    let gets = phase.gets as f64;
    rows.insert("core.get_hit_ratio", per(phase.get_hits as f64, gets));
    rows.insert(
        "core.bloom_skips_per_get",
        per(phase.bloom_skips as f64, gets),
    );
    rows.insert(
        "core.bloom_fp_per_get",
        per(phase.bloom_false_positives as f64, gets),
    );
    rows.insert(
        "core.nvm_read_bytes_per_get",
        per(phase.nvm_bytes_read as f64, gets),
    );
    rows.insert(
        "core.level_probe_retries_per_mget",
        per(phase.level_probe_retries as f64 * 1e6, gets),
    );
    // Structure and background work: whole run, after settling.
    let total = &o.settled.stats;
    let levels = o
        .settled
        .tables_per_level
        .iter()
        .filter(|&&t| t > 0)
        .count();
    rows.insert("core.levels_occupied", levels as f64);
    rows.insert("core.flush_count", total.flush_count as f64);
    rows.insert("core.flush_ms_total", total.flush_ns as f64 / 1e6);
    rows.insert("core.flush_mb_per_s", total.flush_throughput_bps() / 1e6);
    rows.insert("core.swizzle_ms_total", total.swizzle_ns as f64 / 1e6);
    rows.insert("core.zero_copy_merges", total.zero_copy_compactions as f64);
    rows.insert(
        "core.zero_copy_ms_total",
        total.zero_copy_compaction_ns as f64 / 1e6,
    );
    rows.insert("core.lazy_copy_runs", total.copy_compactions as f64);
    rows.insert(
        "core.lazy_copy_ms_total",
        total.copy_compaction_ns as f64 / 1e6,
    );
    rows.insert("core.interval_stalls", total.interval_stall_count as f64);
    rows.insert(
        "core.interval_stall_ms",
        total.interval_stall_ns as f64 / 1e6,
    );
    rows.insert(
        "core.cumulative_stall_ms",
        total.cumulative_stall_ns as f64 / 1e6,
    );
    rows.insert(
        "core.nvm_peak_mb",
        o.settled.nvm_peak_bytes as f64 / (1 << 20) as f64,
    );

    if let Some(s) = &o.server {
        rows.insert("server.get_service_p50_us", s.get_p50_us);
        rows.insert("server.get_service_p99_us", s.get_p99_us);
        rows.insert("server.put_service_p50_us", s.put_p50_us);
        rows.insert("server.put_service_p99_us", s.put_p99_us);
        rows.insert("server.requests_total", s.requests as f64);
        rows.insert("server.backpressure_events", s.backpressure_events as f64);
        rows.insert("server.protocol_errors", s.protocol_errors as f64);
        rows.insert("server.conns_refused", s.conns_refused as f64);
    }
    rows.insert("common.trace_on_overhead_pct", o.tracer_overhead_pct);
    let client = |f: fn(&miodb_client::ClientCounters) -> u64| {
        o.workers.iter().map(|w| f(&w.client)).sum::<u64>() as f64
    };
    rows.insert("client.retries", client(|c| c.retries));
    rows.insert("client.timeouts", client(|c| c.timeouts));
    rows.insert("client.reconnects", client(|c| c.reconnects));
    rows.insert("client.backpressure", client(|c| c.backpressure));

    let ops = o.measured_ops() as f64;
    let switches = o.server_switches + o.workers.iter().map(|w| w.voluntary_switches).sum::<u64>();
    rows.insert("process.cpu_us_per_op", per(o.cpu_us as f64, ops));
    rows.insert("process.vol_ctx_switches_per_op", per(switches as f64, ops));
    rows.insert("process.threads", o.threads_live as f64);
}

fn codec_us(rows: &Rows) -> f64 {
    [
        "proto.encode_req_ns",
        "proto.decode_req_ns",
        "proto.encode_resp_ns",
        "proto.decode_resp_ns",
    ]
    .iter()
    .map(|r| rows.get(r).copied().unwrap_or(0.0))
    .sum::<f64>()
        / 1e3
}

fn print_budget(title: &str, unit: &str, parts: &[(&str, f64)], end_to_end: (&str, f64)) {
    println!("# budget {title}");
    for (name, value) in parts {
        println!("#   {name:<44} {value:>12.3} {unit}");
    }
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    println!("#   {:<44} {sum:>12.3} {unit}", "sum of parts");
    println!("#   {:<44} {:>12.3} {unit}", end_to_end.0, end_to_end.1);
    println!(
        "#   {:<44} {:>12.3} {unit}",
        "residual (end to end - sum)",
        end_to_end.1 - sum
    );
}

/// The per-workload budget: parts, their sum, the end-to-end figure and
/// the residual. How to read it is in the README.
fn print_budgets(o: &Observed, rows: &Rows, totals: &Totals) {
    let name = o.config.workload.name();
    let row = |r: &str| rows.get(r).copied().unwrap_or(0.0);

    // From the spans: where a client thread's time per operation went.
    let ops: f64 = o.workers.iter().map(|w| w.traced_ops).sum::<u64>() as f64;
    if ops > 0.0 {
        let wall: f64 = totals
            .iter()
            .filter(|(n, _)| matches!(**n, "op" | "batch"))
            .map(|(_, t)| t.total_ns as f64)
            .sum();
        let parts: Vec<(&str, f64)> = totals
            .iter()
            .filter(|(n, _)| **n != "request")
            .map(|(n, t)| (*n, t.self_ns as f64 / ops))
            .collect();
        print_budget(
            &format!("{name}: client-thread time per operation, from span self times"),
            "ns",
            &parts,
            ("traced wall time per operation", wall / ops),
        );
    }

    // From the probes: the layer costs that should add up to the median.
    let gets = o.get_samples();
    let puts = o.put_samples();
    if o.config.workload.is_net() {
        let get_p50 = windowed_percentile_us(&gets, 0.5);
        print_budget(
            &format!("{name}: get round trip, from layer probes"),
            "us",
            &[
                ("host.loopback_rtt_us", row("host.loopback_rtt_us")),
                (
                    "proto: encode+decode of request and response",
                    codec_us(rows),
                ),
                ("core.get_cpu_ns", row("core.get_cpu_ns") / 1e3),
                (
                    "server.unattributed_us (handoffs, queueing)",
                    row("server.unattributed_us"),
                ),
            ],
            ("get_p50_us", get_p50),
        );
        print_budget(
            &format!("{name}: CPU per request, from layer probes"),
            "us",
            &[
                (
                    "proto: encode+decode of request and response",
                    codec_us(rows),
                ),
                (
                    "core: mean of get_cpu_ns and put_cpu_ns",
                    (row("core.get_cpu_ns") + row("core.put_cpu_ns")) / 2e3,
                ),
            ],
            ("process.cpu_us_per_op", row("process.cpu_us_per_op")),
        );
        return;
    }
    print_budget(
        &format!("{name}: put, from layer probes"),
        "ns",
        &[
            ("wal.append_cpu_ns", row("wal.append_cpu_ns")),
            ("skiplist.insert_ns", row("skiplist.insert_ns")),
            (
                "core.unattributed_put_ns (queue, locks, stats)",
                row("core.unattributed_put_ns"),
            ),
            (
                "core.put_model_ns (modeled device, not CPU)",
                row("core.put_model_ns"),
            ),
        ],
        (
            "put_p50_us x 1000",
            windowed_percentile_us(&puts, 0.5) * 1e3,
        ),
    );
    let probed_tables = 1.0 + row("core.bloom_fp_per_get");
    print_budget(
        &format!("{name}: get, from layer probes"),
        "ns",
        &[
            (
                "skiplist.get_miss_ns (MemTable miss)",
                row("skiplist.get_miss_ns"),
            ),
            (
                "bloom: skips x probe_miss + probed tables x probe_hit",
                row("core.bloom_skips_per_get") * row("bloom.probe_miss_ns")
                    + probed_tables * row("bloom.probe_hit_ns"),
            ),
            (
                "skiplist.get_deep_ns x probed tables",
                row("skiplist.get_deep_ns") * probed_tables,
            ),
            (
                "core.get_model_ns (modeled device, not CPU)",
                row("core.get_model_ns"),
            ),
        ],
        (
            "get_p50_us x 1000",
            windowed_percentile_us(&gets, 0.5) * 1e3,
        ),
    );
}

fn write_chrome_trace(o: &Observed, bufs: &[&SpanBuf]) {
    let dir = results_dir();
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        o.config.workload.name(),
        o.config.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_json(bufs, CHROME_SPANS_PER_THREAD)));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Everything the traced run reports: span rows, counter rows, probe rows,
/// the budget on standard output and the Chrome trace on disk.
pub fn collect(o: &Observed) -> Vec<Metric> {
    let bufs: Vec<&SpanBuf> = o.workers.iter().map(|w| &w.spans).collect();
    let totals = spans::totals_by_name(&bufs);
    let mut rows = Rows::new();
    span_rows(&mut rows, o, &totals);
    // Absent-key lookups have no span name of their own: the read path's
    // miss cost comes from the samples of the keys that were absent.
    rows.insert("core.get_absent_ns", o.absent_get_mean_ns());
    tail_rows(&mut rows, o);
    counter_rows(&mut rows, o);

    let w = o.config.workload;
    let opts = engine_options(o.inputs.data, w.overwrites(), w.device());
    match probes::run_all(o.inputs.data, &opts, &results_dir()) {
        Ok(probed) => rows.extend(probed),
        Err(e) => eprintln!("{}: layer probes failed: {e}", w.name()),
    }
    if w.is_net() {
        // What is left of a get's round trip after the wire, the codec and
        // the engine: the handoffs and queueing inside the server.
        let known = rows["host.loopback_rtt_us"] + codec_us(&rows) + rows["core.get_cpu_ns"] / 1e3;
        rows.insert(
            "server.unattributed_us",
            windowed_percentile_us(&o.get_samples(), 0.5) - known,
        );
    }
    print_budgets(o, &rows, &totals);
    write_chrome_trace(o, &bufs);
    report::per_layer(&rows)
}
