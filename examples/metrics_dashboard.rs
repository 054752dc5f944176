//! Eyeball the telemetry subsystem without the full repro binary: run a
//! short YCSB-A burst against MioDB, then print the Prometheus text
//! exposition, a per-level occupancy/compaction table, and a digest of
//! the structured event trace.
//!
//! ```text
//! cargo run --release --example metrics_dashboard
//! ```

use miodb::common::{CompactionKind, EventKind};
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
    let r = run_ycsb(&db, YcsbWorkload::A, &spec)?;
    db.wait_idle()?;
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

    let events = db.drain_events();
    let mut flushes = 0u64;
    let mut zero_copy = 0u64;
    let mut lazy_copy = 0u64;
    let mut stalls = 0u64;
    let mut swizzles = 0u64;
    for e in &events {
        match e.kind {
            EventKind::FlushEnd { .. } => flushes += 1,
            EventKind::CompactionEnd { kind, .. } => match kind {
                CompactionKind::ZeroCopy => zero_copy += 1,
                CompactionKind::LazyCopy => lazy_copy += 1,
            },
            EventKind::StallBegin { .. } => stalls += 1,
            EventKind::Swizzle { .. } => swizzles += 1,
            _ => {}
        }
    }
    println!("\n=== Event trace digest ===\n");
    println!(
        "{} events drained ({} dropped): {flushes} flushes, {swizzles} swizzles, \
         {zero_copy} zero-copy merges, {lazy_copy} lazy-copy drains, {stalls} stalls",
        events.len(),
        t.events_dropped(),
    );
    if let Some(last) = events.last() {
        println!(
            "trace spans {:.1}ms of engine time",
            (last.ts_ns - events.first().map_or(0, |e| e.ts_ns)) as f64 / 1e6
        );
    }
    Ok(())
}
