//! Reproduces every table and figure of the MioDB paper's evaluation.
//!
//! ```text
//! repro [--scale-mb N] [--quick] <experiment>
//!   experiments: fig2 fig6 table1 fig7 table2 fig8 fig9 fig10 fig11
//!                fig12 fig13 table3 fig14 scaling all
//! ```
//!
//! Absolute numbers differ from the paper (simulated devices, scaled
//! datasets); the reproduced quantity is the *shape*: which engine wins,
//! by roughly what factor, and where crossovers happen. `EXPERIMENTS.md`
//! records paper-vs-measured for each run.

use std::time::Instant;

use miodb_bench::{
    build_engine, build_engine_with, fmt_bytes, print_header, print_row, EngineKind, Mode, Scale,
};
use miodb_common::{Histogram, KvEngine, Result};
use miodb_workloads::{
    run_db_bench, run_fill_concurrent, run_ycsb, BenchKind, YcsbSpec, YcsbWorkload,
};

/// Every experiment with the paper artifact it reproduces, for `--list`
/// and the no-argument usage message.
const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig2",
        "motivation: stall/read breakdown, flush throughput, WA",
    ),
    ("fig6", "db_bench write/read throughput vs value size"),
    (
        "table1",
        "cost analysis: stalls, deserialization, flushing, WA",
    ),
    ("fig7", "YCSB throughput (Load, A-F)"),
    ("table2", "YCSB-A tail latencies, in-memory mode"),
    ("fig8", "YCSB-A latency timeline (stall spikes)"),
    ("fig9", "performance vs elastic-level count"),
    ("fig10", "write/read throughput vs dataset size"),
    ("fig11", "write amplification vs dataset size"),
    ("fig12", "flushing latency/throughput vs MemTable size"),
    ("fig13", "DRAM-NVM-SSD mode throughput + YCSB"),
    ("table3", "YCSB-A tail latencies, DRAM-NVM-SSD mode"),
    ("fig14", "throughput vs NVM buffer size, tiered mode"),
    ("scaling", "fillrandom vs writer threads (group commit)"),
    (
        "trace",
        "critical-path attribution of YCSB-A p50 vs p99.9 over the wire",
    ),
    (
        "repl",
        "WAL-shipping replication: async vs semi-sync vs quorum throughput, follower lag",
    ),
    ("all", "every experiment above, in order"),
];

fn print_experiments(mut out: impl std::io::Write) {
    let _ = writeln!(out, "usage: repro [--scale-mb N] [--quick] <experiment>\n");
    let _ = writeln!(out, "experiments:");
    for (name, what) in EXPERIMENTS {
        let _ = writeln!(out, "  {name:<8} {what}");
    }
    let _ = writeln!(
        out,
        "\n  --scale-mb N  dataset size in MiB (default 48)\n  --quick       shrink datasets and sweeps for a fast pass\n  --list        print this summary and exit"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_mb: u64 = 48;
    let mut quick = false;
    let mut cmd = String::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale-mb" => {
                i += 1;
                scale_mb = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(48);
            }
            "--quick" => quick = true,
            "--list" | "--help" | "-h" => {
                print_experiments(std::io::stdout());
                return;
            }
            other => cmd = other.to_string(),
        }
        i += 1;
    }
    if quick {
        scale_mb = scale_mb.min(12);
    }
    let dataset = scale_mb << 20;
    if cmd.is_empty() {
        print_experiments(std::io::stderr());
        std::process::exit(2);
    }
    let t0 = Instant::now();
    let r = match cmd.as_str() {
        "fig2" => fig2(dataset),
        "fig6" => fig6(dataset, quick),
        "table1" => table1(dataset),
        "fig7" => fig7(dataset, quick),
        "table2" => table2(dataset),
        "fig8" => fig8(dataset),
        "fig9" => fig9(dataset),
        "fig10" => fig10(dataset),
        "fig11" => fig11(dataset),
        "fig12" => fig12(dataset),
        "fig13" => fig13(dataset, quick),
        "table3" => table3(dataset),
        "fig14" => fig14(dataset),
        "scaling" => scaling(dataset, quick),
        "trace" => trace_experiment(quick),
        "repl" => repl_experiment(quick),
        "all" => all(dataset, quick),
        other => {
            eprintln!("unknown experiment: {other}\n");
            print_experiments(std::io::stderr());
            std::process::exit(2);
        }
    };
    if let Err(e) = r {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
    eprintln!("\n[{cmd} done in {:.1}s]", t0.elapsed().as_secs_f64());
}

/// Merged engine-side op-latency snapshot (put+get+delete+scan), or `None`
/// when the engine doesn't expose telemetry (plain LevelDB).
fn engine_latency(engine: &dyn KvEngine) -> Option<Histogram> {
    let t = engine.telemetry()?;
    let h = t.put_latency.snapshot();
    h.merge(&t.get_latency);
    h.merge(&t.delete_latency);
    h.merge(&t.scan_latency);
    Some(h)
}

/// Clears the engine-side op histograms so a measurement phase starts from
/// zero (drops the load-phase samples).
fn reset_engine_latency(engine: &dyn KvEngine) {
    if let Some(t) = engine.telemetry() {
        t.put_latency.reset();
        t.get_latency.reset();
        t.delete_latency.reset();
        t.scan_latency.reset();
    }
}

fn all(dataset: u64, quick: bool) -> Result<()> {
    fig2(dataset)?;
    fig6(dataset, quick)?;
    table1(dataset)?;
    fig7(dataset, quick)?;
    table2(dataset)?;
    fig8(dataset)?;
    fig9(dataset)?;
    fig10(dataset)?;
    fig11(dataset)?;
    fig12(dataset)?;
    fig13(dataset, quick)?;
    table3(dataset)?;
    fig14(dataset)?;
    scaling(dataset, quick)?;
    trace_experiment(quick)?;
    repl_experiment(quick)?;
    Ok(())
}

/// Loads the whole dataset with random-order puts and returns the result.
fn load(engine: &dyn KvEngine, scale: &Scale) -> Result<miodb_workloads::BenchResult> {
    run_db_bench(
        engine,
        BenchKind::FillRandom,
        scale.keys(),
        0,
        scale.value_len,
        7,
    )
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

// ---------------------------------------------------------------------------
// Figure 2 — motivation: write/read breakdown, flush throughput, WA.
// ---------------------------------------------------------------------------
fn fig2(dataset: u64) -> Result<()> {
    println!(
        "\n== Figure 2: execution breakdown of NoveLSM / MatrixKV (MioDB shown for reference) =="
    );
    println!("   paper: NoveLSM suffers interval+cumulative stalls; MatrixKV eliminates interval");
    println!(
        "   stalls but keeps ~62% cumulative; deserialization >50% of read time; WA 6.6x/5.6x."
    );
    let scale = Scale::new(dataset, 4096);
    let widths = [14usize, 10, 12, 12, 10, 12, 12, 8];
    print_header(
        &[
            "engine",
            "write(s)",
            "interval(s)",
            "cumul.(s)",
            "read(ms)",
            "deser.(ms)",
            "flush MB/s",
            "WA",
        ],
        &widths,
    );
    for kind in [EngineKind::NoveLsm, EngineKind::MatrixKv, EngineKind::MioDb] {
        let engine = build_engine(kind, Mode::InMemory, &scale)?;
        let w = load(engine.as_ref(), &scale)?;
        engine.wait_idle()?;
        let mid = engine.report().stats;
        let r = run_db_bench(
            engine.as_ref(),
            BenchKind::ReadRandom,
            scale.read_ops,
            scale.keys(),
            scale.value_len,
            9,
        )?;
        let end = engine.report().stats;
        print_row(
            &[
                kind.name().to_string(),
                format!("{:.2}", secs(w.elapsed_ns)),
                format!("{:.2}", secs(mid.interval_stall_ns)),
                format!("{:.2}", secs(mid.cumulative_stall_ns)),
                format!("{:.1}", r.elapsed_ns as f64 / 1e6),
                format!(
                    "{:.1}",
                    (end.deserialization_ns - mid.deserialization_ns) as f64 / 1e6
                ),
                format!("{:.1}", mid.flush_throughput_bps() / 1e6),
                format!("{:.1}x", end.write_amplification),
            ],
            &widths,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure 6 — db_bench random/sequential write and read, value sweep.
// ---------------------------------------------------------------------------
fn fig6(dataset: u64, quick: bool) -> Result<()> {
    println!("\n== Figure 6: db_bench throughput/latency vs value size (in-memory mode) ==");
    println!(
        "   paper: MioDB beats MatrixKV/NoveLSM by 2.5x/8.3x random write, 1.3x/4.4x random read."
    );
    let sizes: &[usize] = if quick {
        &[1024, 4096]
    } else {
        &[1024, 4096, 16384, 65536]
    };
    let widths = [14usize, 9, 12, 12, 12, 12];
    for &value_len in sizes {
        println!("\n-- value size {} --", fmt_bytes(value_len as u64));
        print_header(
            &[
                "engine",
                "value",
                "fillrand MB/s",
                "fillseq MB/s",
                "readrand Kops",
                "readseq Kops",
            ],
            &widths,
        );
        for kind in EngineKind::main_three() {
            let scale = Scale::new(dataset, value_len);
            // Random-order load, then reads on it.
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            let wrand = load(engine.as_ref(), &scale)?;
            engine.wait_idle()?;
            let rrand = run_db_bench(
                engine.as_ref(),
                BenchKind::ReadRandom,
                scale.read_ops,
                scale.keys(),
                value_len,
                5,
            )?;
            if std::env::var_os("MIODB_BENCH_DEBUG").is_some() {
                eprintln!(
                    "  [{} rrand: p50={}us p90={}us p99={}us max={}us]",
                    kind.name(),
                    rrand.latency.percentile(50.0) / 1000,
                    rrand.latency.percentile(90.0) / 1000,
                    rrand.latency.percentile(99.0) / 1000,
                    rrand.latency.max() / 1000
                );
            }
            let rseq = run_db_bench(
                engine.as_ref(),
                BenchKind::ReadSeq,
                scale.read_ops,
                scale.keys(),
                value_len,
                5,
            )?;
            drop(engine);
            // Sequential load on a fresh engine.
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            let wseq = run_db_bench(
                engine.as_ref(),
                BenchKind::FillSeq,
                scale.keys(),
                0,
                value_len,
                7,
            )?;
            print_row(
                &[
                    kind.name().to_string(),
                    fmt_bytes(value_len as u64),
                    format!("{:.1}", wrand.mib_per_sec(value_len)),
                    format!("{:.1}", wseq.mib_per_sec(value_len)),
                    format!("{:.1}", rrand.kops()),
                    format!("{:.1}", rseq.kops()),
                ],
                &widths,
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Table 1 — cost analysis.
// ---------------------------------------------------------------------------
fn table1(dataset: u64) -> Result<()> {
    println!("\n== Table 1: costs (in-memory mode, 4 KiB values) ==");
    println!("   paper: MioDB 0 interval / 28.1s cumulative / 0 deser / 13.6s flush / 2.9x WA;");
    println!("          MatrixKV 0 / 731.3 / 74.3 / 191.0 / 5.6x; NoveLSM 496.9 / 1071.3 / 82.3 / 511.8 / 6.6x.");
    let scale = Scale::new(dataset, 4096);
    let widths = [14usize, 13, 14, 11, 12, 8];
    print_header(
        &[
            "engine",
            "interval(s)",
            "cumulative(s)",
            "deser.(s)",
            "flushing(s)",
            "WA",
        ],
        &widths,
    );
    for kind in [EngineKind::MioDb, EngineKind::MatrixKv, EngineKind::NoveLsm] {
        let engine = build_engine(kind, Mode::InMemory, &scale)?;
        load(engine.as_ref(), &scale)?;
        engine.wait_idle()?;
        run_db_bench(
            engine.as_ref(),
            BenchKind::ReadRandom,
            scale.read_ops,
            scale.keys(),
            4096,
            3,
        )?;
        let s = engine.report().stats;
        print_row(
            &[
                kind.name().to_string(),
                format!("{:.2}", secs(s.interval_stall_ns)),
                format!("{:.2}", secs(s.cumulative_stall_ns)),
                format!("{:.2}", secs(s.deserialization_ns)),
                format!("{:.2}", secs(s.flush_ns)),
                format!("{:.1}x", s.write_amplification),
            ],
            &widths,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure 7 — YCSB throughput.
// ---------------------------------------------------------------------------
fn ycsb_suite(engine: &dyn KvEngine, scale: &Scale, ops: u64) -> Result<Vec<(String, f64)>> {
    let spec = YcsbSpec {
        records: scale.keys(),
        operations: ops,
        value_len: scale.value_len,
        threads: 2,
        seed: 11,
        record_timeline: false,
        max_scan_len: 50,
    };
    let mut out = Vec::new();
    let loaded = run_ycsb(engine, YcsbWorkload::Load, &spec)?;
    out.push(("Load".to_string(), loaded.kops()));
    for w in [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ] {
        let r = run_ycsb(engine, w, &spec)?;
        out.push((w.to_string(), r.kops()));
    }
    Ok(out)
}

fn fig7(dataset: u64, quick: bool) -> Result<()> {
    println!("\n== Figure 7: YCSB throughput (KIOPS, in-memory mode) ==");
    println!(
        "   paper: MioDB load 12.1x/2.8x vs NoveLSM/MatrixKV; reads up to 5.1x; E favors NoSST."
    );
    let sizes: &[usize] = if quick { &[4096] } else { &[1024, 4096] };
    for &value_len in sizes {
        let scale = Scale::new(dataset, value_len);
        let ops = (scale.keys() / 4).max(2000);
        println!(
            "\n-- value size {} ({} records, {} ops) --",
            fmt_bytes(value_len as u64),
            scale.keys(),
            ops
        );
        let widths = [14usize, 8, 8, 8, 8, 8, 8, 8];
        print_header(&["engine", "Load", "A", "B", "C", "D", "E", "F"], &widths);
        for kind in [
            EngineKind::MioDb,
            EngineKind::MatrixKv,
            EngineKind::NoveLsm,
            EngineKind::NoveLsmNoSst,
        ] {
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            let results = ycsb_suite(engine.as_ref(), &scale, ops)?;
            let mut cells = vec![kind.name().to_string()];
            cells.extend(results.iter().map(|(_, k)| format!("{k:.1}")));
            print_row(&cells, &widths);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Table 2 — YCSB-A tail latency (in-memory).
// ---------------------------------------------------------------------------
fn tail_table(mode: Mode, dataset: u64, header: &str) -> Result<()> {
    println!("{header}");
    let widths = [8usize, 14, 10, 10, 10, 10];
    print_header(
        &[
            "KV size",
            "engine",
            "avg(us)",
            "p90(us)",
            "p99(us)",
            "p99.9(us)",
        ],
        &widths,
    );
    for value_len in [4096usize, 1024] {
        let scale = Scale::new(dataset, value_len);
        for kind in [EngineKind::NoveLsm, EngineKind::MatrixKv, EngineKind::MioDb] {
            let engine = build_engine(kind, mode, &scale)?;
            let spec = YcsbSpec {
                records: scale.keys(),
                operations: (scale.keys() / 4).max(2000),
                value_len,
                threads: 1,
                seed: 13,
                record_timeline: false,
                max_scan_len: 50,
            };
            run_ycsb(engine.as_ref(), YcsbWorkload::Load, &spec)?;
            reset_engine_latency(engine.as_ref());
            let r = run_ycsb(engine.as_ref(), YcsbWorkload::A, &spec)?;
            // Tail latencies come from the engine-side concurrent
            // histograms (what a production deployment would scrape);
            // the bench-side measurement is the fallback for engines
            // without telemetry.
            let lat = engine_latency(engine.as_ref()).unwrap_or(r.latency);
            print_row(
                &[
                    fmt_bytes(value_len as u64),
                    kind.name().to_string(),
                    format!("{:.1}", lat.mean() / 1000.0),
                    format!("{:.1}", lat.percentile(90.0) as f64 / 1000.0),
                    format!("{:.1}", lat.percentile(99.0) as f64 / 1000.0),
                    format!("{:.1}", lat.percentile(99.9) as f64 / 1000.0),
                ],
                &widths,
            );
        }
    }
    Ok(())
}

fn table2(dataset: u64) -> Result<()> {
    tail_table(
        Mode::InMemory,
        dataset,
        "\n== Table 2: YCSB-A tail latencies (in-memory mode) ==\n   paper @4KiB: MioDB p99.9 = 44.7us vs MatrixKV 973.6us (21.7x) and NoveLSM 764.3us (17.1x).",
    )
}

// ---------------------------------------------------------------------------
// Figure 8 — YCSB-A latency timeline.
// ---------------------------------------------------------------------------
fn fig8(dataset: u64) -> Result<()> {
    println!(
        "\n== Figure 8: YCSB-A latency over time (4 KiB values; 40 buckets of mean/max us) =="
    );
    println!(
        "   paper: NoveLSM/MatrixKV show large spikes early (stall bursts); MioDB stays flat."
    );
    let scale = Scale::new(dataset, 4096);
    for kind in [EngineKind::NoveLsm, EngineKind::MatrixKv, EngineKind::MioDb] {
        let engine = build_engine(kind, Mode::InMemory, &scale)?;
        let spec = YcsbSpec {
            records: scale.keys(),
            operations: (scale.keys() / 2).max(4000),
            value_len: 4096,
            threads: 1,
            seed: 17,
            record_timeline: true,
            max_scan_len: 50,
        };
        run_ycsb(engine.as_ref(), YcsbWorkload::Load, &spec)?;
        reset_engine_latency(engine.as_ref());
        let before = engine.report().stats;
        let r = run_ycsb(engine.as_ref(), YcsbWorkload::A, &spec)?;
        let phase = engine.report().stats.diff(&before);
        let buckets = 40.min(r.timeline.len().max(1));
        let per = (r.timeline.len() / buckets).max(1);
        print!("{:>14}: ", kind.name());
        for b in 0..buckets {
            let chunk = &r.timeline[b * per..((b + 1) * per).min(r.timeline.len())];
            if chunk.is_empty() {
                break;
            }
            let mean = chunk.iter().sum::<u64>() as f64 / chunk.len() as f64 / 1000.0;
            print!("{mean:.0} ");
        }
        // Tail figures from the engine-side histograms; the stall and
        // compaction counters over phase A explain the spikes.
        let lat = engine_latency(engine.as_ref()).unwrap_or(r.latency);
        let stalls = phase.interval_stall_count + phase.cumulative_stall_count;
        let compactions = phase.zero_copy_compactions + phase.copy_compactions;
        println!(
            "  [p99.9 {:.0}us max {:.0}us; {stalls} stalls, {compactions} compactions]",
            lat.percentile(99.9) as f64 / 1000.0,
            lat.max() as f64 / 1000.0
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure 9 — performance vs number of elastic levels.
// ---------------------------------------------------------------------------
fn fig9(dataset: u64) -> Result<()> {
    println!("\n== Figure 9: MioDB performance vs elastic-level count (compaction threads) ==");
    println!("   paper: write perf flat across levels; read perf peaks at 8 levels.");
    let scale = Scale::new(dataset, 4096);
    let widths = [8usize, 14, 14, 14];
    print_header(
        &["levels", "write MB/s", "write avg us", "readrand Kops"],
        &widths,
    );
    for levels in [2usize, 4, 6, 8, 10] {
        let engine = build_engine_with(
            EngineKind::MioDb,
            Mode::InMemory,
            &scale,
            Some(levels),
            None,
        )?;
        let w = load(engine.as_ref(), &scale)?;
        engine.wait_idle()?;
        let r = run_db_bench(
            engine.as_ref(),
            BenchKind::ReadRandom,
            scale.read_ops,
            scale.keys(),
            4096,
            23,
        )?;
        print_row(
            &[
                levels.to_string(),
                format!("{:.1}", w.mib_per_sec(4096)),
                format!("{:.1}", w.latency.mean() / 1000.0),
                format!("{:.1}", r.kops()),
            ],
            &widths,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figures 10 & 11 — dataset-size sweeps (performance and WA).
// ---------------------------------------------------------------------------
fn fig10(dataset: u64) -> Result<()> {
    println!("\n== Figure 10: random write/read vs dataset size (in-memory mode, 4 KiB) ==");
    println!("   paper (40->200GB): baselines degrade steeply; MioDB write ~flat, read -33.5%.");
    let widths = [10usize, 14, 14, 14];
    for kind in EngineKind::main_three() {
        println!("\n-- {} --", kind.name());
        print_header(&["dataset", "write MB/s", "readrand Kops", "WA"], &widths);
        for mult in [5u64, 10, 15, 20, 25] {
            let scale = Scale::new(dataset * mult / 10, 4096);
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            let w = load(engine.as_ref(), &scale)?;
            engine.wait_idle()?;
            let r = run_db_bench(
                engine.as_ref(),
                BenchKind::ReadRandom,
                scale.read_ops,
                scale.keys(),
                4096,
                29,
            )?;
            let s = engine.report().stats;
            print_row(
                &[
                    fmt_bytes(scale.dataset_bytes),
                    format!("{:.1}", w.mib_per_sec(4096)),
                    format!("{:.1}", r.kops()),
                    format!("{:.1}x", s.write_amplification),
                ],
                &widths,
            );
        }
    }
    Ok(())
}

fn fig11(dataset: u64) -> Result<()> {
    println!("\n== Figure 11: write amplification vs dataset size ==");
    println!("   paper: MioDB 2.9x flat (bound 3); NoveLSM/MatrixKV grow to ~14x/13x at 200GB.");
    let widths = [10usize, 12, 12, 12];
    print_header(&["dataset", "MioDB", "MatrixKV", "NoveLSM"], &widths);
    for mult in [5u64, 10, 15, 20, 25] {
        let scale = Scale::new(dataset * mult / 10, 4096);
        let mut cells = vec![fmt_bytes(scale.dataset_bytes)];
        for kind in EngineKind::main_three() {
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            load(engine.as_ref(), &scale)?;
            engine.wait_idle()?;
            cells.push(format!("{:.1}x", engine.report().stats.write_amplification));
        }
        print_row(&cells, &widths);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure 12 — MemTable-size sensitivity.
// ---------------------------------------------------------------------------
fn fig12(dataset: u64) -> Result<()> {
    println!("\n== Figure 12: flushing latency/throughput vs MemTable size ==");
    println!("   paper: MioDB per-flush latency 37.6x/11.9x below NoveLSM/MatrixKV; totals flat.");
    let widths = [14usize, 10, 16, 16, 12];
    print_header(
        &[
            "engine",
            "memtable",
            "avg flush(ms)",
            "total flush(s)",
            "write MB/s",
        ],
        &widths,
    );
    for kind in [EngineKind::MioDb, EngineKind::MatrixKv, EngineKind::NoveLsm] {
        for shift in [0i32, 1, 2] {
            let base = Scale::new(dataset, 4096);
            let mut scale = base;
            scale.memtable_bytes = (base.memtable_bytes << shift).max(128 * 1024);
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            let w = load(engine.as_ref(), &scale)?;
            engine.wait_idle()?;
            let s = engine.report().stats;
            let avg_ms = if s.flush_count == 0 {
                0.0
            } else {
                s.flush_ns as f64 / s.flush_count as f64 / 1e6
            };
            print_row(
                &[
                    kind.name().to_string(),
                    fmt_bytes(scale.memtable_bytes as u64),
                    format!("{avg_ms:.2}"),
                    format!("{:.2}", secs(s.flush_ns)),
                    format!("{:.1}", w.mib_per_sec(4096)),
                ],
                &widths,
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure 13 + Table 3 — DRAM-NVM-SSD mode.
// ---------------------------------------------------------------------------
fn fig13(dataset: u64, quick: bool) -> Result<()> {
    println!("\n== Figure 13: DRAM-NVM-SSD mode (4 KiB values) ==");
    println!(
        "   paper: MioDB random write 10.5x/11.2x vs MatrixKV/NoveLSM; YCSB load 11.8x/12.1x."
    );
    let scale = Scale::new(dataset, 4096);
    let widths = [14usize, 14, 14];
    print_header(&["engine", "fillrand MB/s", "readrand Kops"], &widths);
    for kind in EngineKind::main_three() {
        let engine = build_engine(kind, Mode::Tiered, &scale)?;
        let w = load(engine.as_ref(), &scale)?;
        engine.wait_idle()?;
        let r = run_db_bench(
            engine.as_ref(),
            BenchKind::ReadRandom,
            scale.read_ops,
            scale.keys(),
            4096,
            31,
        )?;
        print_row(
            &[
                kind.name().to_string(),
                format!("{:.1}", w.mib_per_sec(4096)),
                format!("{:.1}", r.kops()),
            ],
            &widths,
        );
    }
    if !quick {
        println!("\n-- YCSB (KIOPS, tiered) --");
        let ops = (scale.keys() / 4).max(2000);
        let widths = [14usize, 8, 8, 8, 8, 8, 8, 8];
        print_header(&["engine", "Load", "A", "B", "C", "D", "E", "F"], &widths);
        for kind in EngineKind::main_three() {
            let engine = build_engine(kind, Mode::Tiered, &scale)?;
            let results = ycsb_suite(engine.as_ref(), &scale, ops)?;
            let mut cells = vec![kind.name().to_string()];
            cells.extend(results.iter().map(|(_, k)| format!("{k:.1}")));
            print_row(&cells, &widths);
        }
    }
    Ok(())
}

fn table3(dataset: u64) -> Result<()> {
    tail_table(
        Mode::Tiered,
        dataset,
        "\n== Table 3: YCSB-A tail latencies (DRAM-NVM-SSD mode) ==\n   paper @4KiB: MioDB p99.9 = 39.6us vs MatrixKV 1979.5us (49.9x) and NoveLSM 971.8us (24.5x).",
    )
}

// ---------------------------------------------------------------------------
// Figure 14 — NVM buffer size sweep (tiered mode).
// ---------------------------------------------------------------------------
fn fig14(dataset: u64) -> Result<()> {
    println!("\n== Figure 14: throughput vs NVM buffer size (DRAM-NVM-SSD mode, 4 KiB) ==");
    println!("   paper @64GB buffers: MioDB write 2.3x/4.9x vs MatrixKV/NoveLSM; read 11.4x vs MatrixKV.");
    let scale = Scale::new(dataset, 4096);
    let base_buf = scale.container_bytes();
    let widths = [14usize, 10, 14, 14];
    print_header(
        &["engine", "buffer", "write MB/s", "readrand Kops"],
        &widths,
    );
    for kind in EngineKind::main_three() {
        for mult in [1u64, 2, 4, 8] {
            let buf = base_buf * mult / 2;
            let engine = build_engine_with(kind, Mode::Tiered, &scale, None, Some(buf))?;
            let w = load(engine.as_ref(), &scale)?;
            engine.wait_idle()?;
            let r = run_db_bench(
                engine.as_ref(),
                BenchKind::ReadRandom,
                scale.read_ops,
                scale.keys(),
                4096,
                37,
            )?;
            print_row(
                &[
                    kind.name().to_string(),
                    fmt_bytes(buf),
                    format!("{:.1}", w.mib_per_sec(4096)),
                    format!("{:.1}", r.kops()),
                ],
                &widths,
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scaling — concurrent-writer sweep over the group-commit write path.
// ---------------------------------------------------------------------------
fn scaling(dataset: u64, quick: bool) -> Result<()> {
    println!("\n== Scaling: fillrandom throughput vs writer threads (1 KiB values) ==");
    println!("   group commit: contended writers queue and the leader logs and applies the whole");
    println!("   group as one WAL record; 'avg group' is ops per commit (1.0 = nobody queued).");
    let value_len = 1024usize;
    let mut scale = Scale::new(
        if quick {
            dataset.min(12 << 20)
        } else {
            dataset
        },
        value_len,
    );
    // The sweep measures the write path, not rotation: keep MemTables
    // large enough that flush handoffs are rare at every thread count.
    scale.memtable_bytes = scale.memtable_bytes.max(2 << 20);
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < *threads.iter().max().unwrap() {
        println!("   NOTE: host has {cores} core(s) — writer threads cannot overlap, so the sweep");
        println!("   measures commit-queue overhead, not parallel speedup; expect flat scaling.");
    }
    let widths = [14usize, 8, 12, 12, 12, 12];
    print_header(
        &["engine", "threads", "Kops", "MB/s", "speedup", "avg group"],
        &widths,
    );
    let mut json_rows: Vec<String> = Vec::new();
    for (label, kind) in [
        ("MioDB", EngineKind::MioDb),
        ("MatrixKV", EngineKind::MatrixKv),
        ("NoveLSM", EngineKind::NoveLsm),
    ] {
        let mut base_kops = 0.0f64;
        for &t in threads {
            let engine = build_engine(kind, Mode::InMemory, &scale)?;
            // Same seed at every thread count so the sweep compares the
            // identical keyset and insertion order.
            let r = run_fill_concurrent(engine.as_ref(), scale.keys(), value_len, t, 42)?;
            let kops = r.kops();
            if t == threads[0] {
                base_kops = kops;
            }
            let group_mean = engine
                .telemetry()
                .map(|tel| tel.write_group_size.snapshot().mean())
                .filter(|m| *m > 0.0);
            print_row(
                &[
                    label.to_string(),
                    t.to_string(),
                    format!("{kops:.1}"),
                    format!("{:.1}", r.mib_per_sec(value_len)),
                    format!("{:.2}x", kops / base_kops.max(1e-9)),
                    group_mean.map_or("-".to_string(), |m| format!("{m:.1}")),
                ],
                &widths,
            );
            json_rows.push(format!(
                "{{\"engine\":\"{label}\",\"threads\":{t},\"kops\":{kops:.3},\"mib_per_sec\":{:.3},\"elapsed_ns\":{},\"mean_group_size\":{:.3}}}",
                r.mib_per_sec(value_len),
                r.elapsed_ns,
                group_mean.unwrap_or(0.0),
            ));
            engine.wait_idle()?;
        }
    }
    let json = format!(
        "{{\"experiment\":\"scaling\",\"value_len\":{value_len},\"dataset_bytes\":{},\"keys\":{},\"host_cores\":{cores},\"results\":[\n  {}\n]}}\n",
        scale.dataset_bytes,
        scale.keys(),
        json_rows.join(",\n  "),
    );
    std::fs::write("BENCH_scaling.json", json).map_err(miodb_common::Error::Io)?;
    eprintln!("[scaling results written to BENCH_scaling.json]");
    Ok(())
}

// ---------------------------------------------------------------------------
// Trace — end-to-end critical-path attribution for YCSB-A over the wire.
// ---------------------------------------------------------------------------

/// One trace reduced to its critical-path buckets (all nanoseconds).
struct TraceCost {
    total: u64,
    buckets: Vec<(&'static str, u64)>,
}

/// Self-time of every span (duration minus the durations of its direct
/// children), keyed by span id, for one trace's spans.
fn self_times(spans: &[&miodb_common::SpanRecord]) -> std::collections::HashMap<u64, u64> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent_id != 0 {
            *child_ns.entry(s.parent_id).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.span_id).copied().unwrap_or(0);
            (s.span_id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Attribution buckets reported by the `trace` experiment; every
/// critical-path nanosecond lands in exactly one.
const TRACE_BUCKETS: &[&str] = &[
    "network+queue",
    "commit-wait",
    "wal-append",
    "memtable-insert",
    "rotation-stall",
    "memtable-probe",
    "level-probe",
    "repo-probe",
    "router",
    "decode",
    "server-other",
    "unattributed",
];

/// Reduces one trace's spans to named buckets. The client-observed round
/// trip (`client_request`) is the total; server-side wall time is carved
/// out of it span by span, and whatever the server tree does not explain
/// is the wire + connection-queue share.
fn attribute_trace(spans: &[&miodb_common::SpanRecord]) -> Option<TraceCost> {
    use miodb_common::SpanKind;
    let root = spans.iter().find(|s| s.kind == SpanKind::ClientRequest)?;
    let srv = spans.iter().find(|s| s.kind == SpanKind::SrvRequest)?;
    let total = root.dur_ns();
    let srv_total = srv.dur_ns().min(total);
    let selfs = self_times(spans);
    let mut buckets: Vec<(&'static str, u64)> = TRACE_BUCKETS.iter().map(|b| (*b, 0u64)).collect();
    let mut add = |name: &'static str, ns: u64| {
        if let Some(b) = buckets.iter_mut().find(|(n, _)| *n == name) {
            b.1 += ns;
        }
    };
    let mut server_named = 0u64;
    for s in spans {
        let own = selfs.get(&s.span_id).copied().unwrap_or(0);
        let bucket = match s.kind {
            SpanKind::CommitWait => Some("commit-wait"),
            SpanKind::WalAppend => Some("wal-append"),
            SpanKind::MemtableInsert => Some("memtable-insert"),
            SpanKind::RotationStall => Some("rotation-stall"),
            SpanKind::MemtableProbe => Some("memtable-probe"),
            SpanKind::LevelProbe => Some("level-probe"),
            SpanKind::RepoProbe => Some("repo-probe"),
            SpanKind::RouterFanout | SpanKind::RouterMerge => Some("router"),
            SpanKind::SrvDecode => Some("decode"),
            SpanKind::SrvRequest | SpanKind::SrvExecute => Some("server-other"),
            _ => None,
        };
        if let Some(b) = bucket {
            add(b, own);
            server_named += own;
        }
    }
    // The server tree is contiguous wall time inside the round trip, so
    // anything the round trip spends outside it is wire + queueing; any
    // server time the named spans miss is already in "server-other".
    add("network+queue", total.saturating_sub(srv_total));
    // Server wall time no span's self-time explains (should be ~0; a
    // non-zero share means an uninstrumented engine path).
    add(
        "unattributed",
        srv_total.saturating_sub(server_named.min(srv_total)),
    );
    Some(TraceCost { total, buckets })
}

/// Averages a cohort's buckets and prints one table column pair.
fn cohort_summary(cohort: &[&TraceCost]) -> (u64, Vec<(&'static str, u64)>) {
    let n = cohort.len().max(1) as u64;
    let total: u64 = cohort.iter().map(|c| c.total).sum::<u64>() / n;
    let mut buckets: Vec<(&'static str, u64)> = TRACE_BUCKETS.iter().map(|b| (*b, 0u64)).collect();
    for c in cohort {
        for (name, ns) in &c.buckets {
            if let Some(b) = buckets.iter_mut().find(|(n2, _)| n2 == name) {
                b.1 += ns / n;
            }
        }
    }
    (total, buckets)
}

fn trace_experiment(quick: bool) -> Result<()> {
    use miodb_client::{ClientOptions, KvClient};
    use miodb_common::trace;
    use miodb_core::MioOptions;
    use miodb_pmem::DeviceModel;
    use miodb_server::{KvServer, ServerOptions, ShardRouter};
    use std::sync::Arc;
    use std::time::Duration;

    println!("\n== Trace: YCSB-A critical-path attribution, p50 vs p99.9 ==");
    println!("   in-process server + client over TCP; every sampled request carries its");
    println!("   trace id in the frame header, so client, server and engine spans join");
    println!("   into one tree and the round trip decomposes into named buckets.");

    let records: u64 = if quick { 5_000 } else { 20_000 };
    let seconds = if quick { 2.0 } else { 5.0 };
    let connections = 4usize;
    let value_len = 256usize;

    let mut opts = MioOptions {
        memtable_bytes: 1 << 20,
        nvm_pool_bytes: 1 << 30,
        dram_pool_bytes: 64 << 20,
        name: "MioDB-trace".to_string(),
        ..MioOptions::default()
    };
    opts.nvm_device = DeviceModel::nvm_unthrottled();
    let router = Arc::new(ShardRouter::open_miodb(&opts, 4)?);
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )?;
    let addr = server.local_addr();
    let copts = || ClientOptions {
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ClientOptions::default()
    };

    // Fill (untraced), then trace the measured mix.
    {
        let mut c = KvClient::connect_with(addr, copts())?;
        for k in 0..records {
            let key = format!("user{k:016}").into_bytes();
            c.put(&key, &vec![b'x'; value_len])?;
        }
        c.close()?;
    }
    trace::enable(1 << 18, 4, false);

    let deadline = std::time::Instant::now() + Duration::from_secs_f64(seconds);
    let workers: Vec<std::thread::JoinHandle<Result<u64>>> = (0..connections)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = KvClient::connect_with(addr, copts())?;
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (w as u64 + 1);
                let mut next = move || {
                    rng ^= rng >> 12;
                    rng ^= rng << 25;
                    rng ^= rng >> 27;
                    rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
                };
                let mut ops = 0u64;
                while std::time::Instant::now() < deadline {
                    let key = format!("user{:016}", next() % records).into_bytes();
                    if next() % 2 == 0 {
                        c.get(&key)?;
                    } else {
                        c.put(&key, &vec![b'y'; value_len])?;
                    }
                    ops += 1;
                }
                c.close()?;
                Ok(ops)
            })
        })
        .collect();
    let mut total_ops = 0u64;
    for w in workers {
        total_ops += w.join().expect("worker panicked")?;
    }

    let spans = trace::drain();
    let dropped = trace::dropped_spans();
    trace::disable();
    server.shutdown();
    router.close()?;

    // Group by trace and attribute.
    let mut by_trace: std::collections::HashMap<u64, Vec<&miodb_common::SpanRecord>> =
        std::collections::HashMap::new();
    for s in &spans {
        if s.trace_id != 0 {
            by_trace.entry(s.trace_id).or_default().push(s);
        }
    }
    let mut costs: Vec<TraceCost> = by_trace
        .values()
        .filter_map(|spans| attribute_trace(spans))
        .collect();
    if costs.is_empty() {
        return Err(miodb_common::Error::Corruption(
            "no complete traces captured".to_string(),
        ));
    }
    costs.sort_by_key(|c| c.total);
    let n = costs.len();
    let p50_cohort: Vec<&TraceCost> = {
        let mid = n / 2;
        let half = (n / 40).max(1);
        costs[mid.saturating_sub(half)..(mid + half).min(n)]
            .iter()
            .collect()
    };
    let p999_cohort: Vec<&TraceCost> = {
        let k = (n / 1000).max(1);
        costs[n - k..].iter().collect()
    };
    let (p50_total, p50_buckets) = cohort_summary(&p50_cohort);
    let (p999_total, p999_buckets) = cohort_summary(&p999_cohort);

    println!(
        "\n   {total_ops} ops over {connections} connections, {} sampled traces ({dropped} spans dropped)",
        n
    );
    let widths = [16usize, 12, 8, 12, 8];
    print_header(
        &["bucket", "p50(us)", "p50 %", "p99.9(us)", "p99.9 %"],
        &widths,
    );
    let mut named50 = 0u64;
    let mut named999 = 0u64;
    for (i, (name, ns50)) in p50_buckets.iter().enumerate() {
        let ns999 = p999_buckets[i].1;
        if *name != "unattributed" {
            named50 += ns50;
            named999 += ns999;
        }
        if *ns50 == 0 && ns999 == 0 {
            continue;
        }
        print_row(
            &[
                name.to_string(),
                format!("{:.1}", *ns50 as f64 / 1e3),
                format!("{:.1}", 100.0 * *ns50 as f64 / p50_total.max(1) as f64),
                format!("{:.1}", ns999 as f64 / 1e3),
                format!("{:.1}", 100.0 * ns999 as f64 / p999_total.max(1) as f64),
            ],
            &widths,
        );
    }
    let pct50 = 100.0 * named50 as f64 / p50_total.max(1) as f64;
    let pct999 = 100.0 * named999 as f64 / p999_total.max(1) as f64;
    print_row(
        &[
            "total".to_string(),
            format!("{:.1}", p50_total as f64 / 1e3),
            format!("{pct50:.1}"),
            format!("{:.1}", p999_total as f64 / 1e3),
            format!("{pct999:.1}"),
        ],
        &widths,
    );
    println!(
        "   attribution covers {pct50:.1}% of p50 and {pct999:.1}% of p99.9 wall time \
         (target >=95%)"
    );

    std::fs::write("BENCH_trace.json", trace::to_chrome_json(&spans))
        .map_err(miodb_common::Error::Io)?;
    let bucket_json = |buckets: &[(&'static str, u64)]| -> String {
        buckets
            .iter()
            .map(|(name, ns)| format!("\"{name}\":{ns}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let json = format!(
        "{{\"experiment\":\"trace\",\"ops\":{total_ops},\"traces\":{n},\"dropped_spans\":{dropped},\"p50\":{{\"total_ns\":{p50_total},\"named_pct\":{pct50:.2},{}}},\"p999\":{{\"total_ns\":{p999_total},\"named_pct\":{pct999:.2},{}}}}}\n",
        bucket_json(&p50_buckets),
        bucket_json(&p999_buckets),
    );
    std::fs::write("BENCH_trace_attrib.json", json).map_err(miodb_common::Error::Io)?;
    eprintln!("[trace written to BENCH_trace.json + BENCH_trace_attrib.json]");
    if pct999 < 95.0 {
        eprintln!("trace: p99.9 attribution below 95% target");
    }
    Ok(())
}

/// `repro repl`: WAL-shipping replication cost. The same sequential
/// writer loads a leader+follower pair twice — once with fire-and-forget
/// `async` acks, once with `semi-sync` acks where every PUT's commit-wait
/// blocks until the follower has applied it — and reports throughput plus
/// the publish→ack lag distribution the leader measured per group.
fn repl_experiment(quick: bool) -> Result<()> {
    use miodb_client::KvClient;
    use miodb_common::ReplicationSink;
    use miodb_core::{MioDb, MioOptions};
    use miodb_pmem::DeviceModel;
    use miodb_repl::{
        engine_snapshot_bytes, AckLevel, Follower, FollowerOptions, Replicator, ReplicatorOptions,
    };
    use miodb_server::{KvServer, ReplConfig, ServerOptions};
    use std::sync::Arc;
    use std::time::Duration;

    println!("\n== Replication: async vs semi-sync vs quorum ack levels, follower lag ==");
    println!("   one leader + one follower in-process over TCP; shipped bytes are the");
    println!("   exact framed WAL group records, so the follower replays what the");
    println!("   leader persisted. Lag is publish->ack per committed group.");

    let records: u64 = if quick { 2_000 } else { 10_000 };
    let value_len = 256usize;
    let opts = |name: String| MioOptions {
        memtable_bytes: 1 << 20,
        nvm_pool_bytes: 1 << 30,
        dram_pool_bytes: 64 << 20,
        nvm_device: DeviceModel::nvm_unthrottled(),
        name,
        ..MioOptions::default()
    };

    let widths = [12usize, 8, 10, 12, 12, 12];
    print_header(
        &["ack", "puts", "Kops", "lag p50(us)", "lag p99(us)", "acked"],
        &widths,
    );

    let mut rows: Vec<String> = Vec::new();
    for ack in [AckLevel::Async, AckLevel::SemiSync, AckLevel::Quorum] {
        let label = ack.label();
        let ldb = Arc::new(MioDb::open(opts(format!("MioDB-repl-{label}-L")))?);
        let replicator = Replicator::new(ReplicatorOptions {
            ack_level: ack,
            semi_sync_timeout: Duration::from_secs(10),
            retain_bytes: 256 << 20,
            // Leader + one follower: quorum needs the follower's ack.
            group_size: 2,
        });
        ldb.set_commit_sink(Some(Arc::clone(&replicator) as Arc<dyn ReplicationSink>));
        let snap = Arc::clone(&ldb);
        let server = KvServer::start_replicated(
            "127.0.0.1:0",
            Arc::clone(&ldb) as Arc<dyn KvEngine>,
            ServerOptions::default(),
            ReplConfig::new(
                Some(Arc::clone(&replicator)),
                Some(Box::new(move || engine_snapshot_bytes(&snap))),
                Arc::new(miodb_common::RoleState::new_leader(1)),
                "",
            ),
        )?;
        let fdb = Arc::new(MioDb::open(opts(format!("MioDB-repl-{label}-F")))?);
        let follower = Follower::start(
            Arc::clone(&fdb),
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

        // Concurrent writers: group commit batches them on the leader and
        // the semi-sync ack wait is paid per group, not per put.
        let writers = 4u64;
        let addr = server.local_addr();
        let started = Instant::now();
        std::thread::scope(|s| -> Result<()> {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    s.spawn(move || -> Result<()> {
                        let mut c = KvClient::connect(addr)?;
                        let (lo, hi) = (records * w / writers, records * (w + 1) / writers);
                        for k in lo..hi {
                            c.put(format!("user{k:016}").as_bytes(), &vec![b'x'; value_len])?;
                        }
                        c.close()
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("writer panicked")?;
            }
            Ok(())
        })?;
        let elapsed = started.elapsed();

        // Async writers return before the follower applies; wait for
        // convergence so the lag histogram covers every group.
        let target = ldb.last_sequence();
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
        let kops = records as f64 / elapsed.as_secs_f64().max(1e-9) / 1e3;
        let (p50, p99) = (
            lag.percentile(50.0) as f64 / 1e3,
            lag.percentile(99.0) as f64 / 1e3,
        );
        print_row(
            &[
                label.to_string(),
                format!("{records}"),
                format!("{kops:.1}"),
                format!("{p50:.1}"),
                format!("{p99:.1}"),
                format!("{}", replicator.max_acked()),
            ],
            &widths,
        );
        rows.push(format!(
            "{{\"ack\":\"{label}\",\"puts\":{records},\"elapsed_ns\":{},\"kops\":{kops:.2},\"lag_p50_us\":{p50:.1},\"lag_p99_us\":{p99:.1},\"max_acked\":{}}}",
            elapsed.as_nanos(),
            replicator.max_acked(),
        ));

        follower.stop();
        server.shutdown();
        ldb.set_commit_sink(None);
        fdb.close()?;
        ldb.close()?;
    }

    let json = format!(
        "{{\"experiment\":\"repl\",\"value_len\":{value_len},\"modes\":[\n  {}\n]}}\n",
        rows.join(",\n  "),
    );
    std::fs::write("BENCH_repl.json", json).map_err(miodb_common::Error::Io)?;
    eprintln!("[repl results written to BENCH_repl.json]");
    Ok(())
}
