//! Eyeball the telemetry subsystem without the full repro binary: run a
//! short YCSB-A burst against MioDB, then print the Prometheus text
//! exposition, a per-level occupancy/compaction table, and the background
//! work the burst caused (flushes, compactions, stalls), read from the
//! engine's counters.
//!
//! ```text
//! cargo run --release --example metrics_dashboard
//! ```

use miodb::workloads::{run_ycsb, YcsbSpec, YcsbWorkload};
use miodb::{KvEngine, MioDb, MioOptions};

fn main() -> miodb::Result<()> {
    let db = MioDb::open(MioOptions {
        memtable_bytes: 256 * 1024,
        nvm_pool_bytes: 256 << 20,
        ..MioOptions::small_for_tests()
    })?;

    let spec = YcsbSpec {
        records: 20_000,
        operations: 40_000,
        value_len: 1024,
        threads: 2,
        seed: 7,
        record_timeline: false,
        max_scan_len: 50,
    };
    run_ycsb(&db, YcsbWorkload::Load, &spec)?;
    let before = db.report().stats;
    let r = run_ycsb(&db, YcsbWorkload::A, &spec)?;
    db.wait_idle()?;
    let burst = db.report().stats.diff(&before);
    println!(
        "YCSB-A burst done: {} ops at {:.1} KIOPS\n",
        r.ops,
        r.kops()
    );

    println!("=== Prometheus exposition (db.metrics_text()) ===\n");
    print!("{}", db.metrics_text());

    let t = db.telemetry().expect("MioDB has telemetry");
    println!("\n=== Per-level occupancy and compaction activity ===\n");
    println!(
        "{:>5} {:>12} {:>8} {:>9} {:>11} {:>12} {:>11} {:>12}",
        "level",
        "bytes",
        "tables",
        "pending",
        "zero-copy",
        "zc time(ms)",
        "lazy-copy",
        "lc time(ms)"
    );
    for (i, l) in t.levels().iter().enumerate() {
        use std::sync::atomic::Ordering::Relaxed;
        println!(
            "{:>5} {:>12} {:>8} {:>9} {:>11} {:>12.1} {:>11} {:>12.1}",
            i,
            l.bytes.load(Relaxed),
            l.tables.load(Relaxed),
            l.pending_compactions.load(Relaxed),
            l.zero_copy_compactions.load(Relaxed),
            l.zero_copy_ns.load(Relaxed) as f64 / 1e6,
            l.lazy_copy_compactions.load(Relaxed),
            l.lazy_copy_ns.load(Relaxed) as f64 / 1e6,
        );
    }

    println!("\n=== Background work during the YCSB-A burst ===\n");
    println!(
        "{} flushes ({:.1}ms), {} zero-copy merges ({:.1}ms), {} lazy-copy drains ({:.1}ms), \
         {} interval stalls ({:.1}ms), {} cumulative stalls ({:.1}ms)",
        burst.flush_count,
        burst.flush_ns as f64 / 1e6,
        burst.zero_copy_compactions,
        burst.zero_copy_compaction_ns as f64 / 1e6,
        burst.copy_compactions,
        burst.copy_compaction_ns as f64 / 1e6,
        burst.interval_stall_count,
        burst.interval_stall_ns as f64 / 1e6,
        burst.cumulative_stall_count,
        burst.cumulative_stall_ns as f64 / 1e6,
    );
    Ok(())
}
