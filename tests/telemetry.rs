//! Integration tests for the engine telemetry subsystem: engine-side vs
//! bench-side histogram agreement and live Prometheus exposition. That
//! background work is recorded once — spans agree with counters — is
//! checked in `tests/trace.rs`.

use miodb::workloads::{run_ycsb, YcsbSpec, YcsbWorkload};
use miodb::{KvEngine, MioDb, MioOptions};

fn opts_with_tracing() -> MioOptions {
    MioOptions::small_for_tests()
}

/// Engine-side concurrent histograms must agree with the bench driver's
/// own measurement on a YCSB-A run: identical op counts and percentiles
/// within log-bucket error (the driver measures just outside the engine
/// call, so each sample lands in the same or an adjacent bucket).
#[test]
fn engine_histograms_agree_with_bench_on_ycsb_a() {
    let db = MioDb::open(opts_with_tracing()).unwrap();
    let spec = YcsbSpec {
        records: 2000,
        operations: 4000,
        value_len: 256,
        threads: 2,
        seed: 42,
        record_timeline: false,
        max_scan_len: 20,
    };
    run_ycsb(&db, YcsbWorkload::Load, &spec).unwrap();
    let t = db.telemetry().unwrap();
    t.put_latency.reset();
    t.get_latency.reset();
    let r = run_ycsb(&db, YcsbWorkload::A, &spec).unwrap();

    let put = t.put_latency.snapshot();
    let get = t.get_latency.snapshot();
    assert_eq!(
        put.count(),
        r.write_latency.count(),
        "engine saw a different number of updates than the driver issued"
    );
    assert_eq!(
        get.count(),
        r.read_latency.count(),
        "engine saw a different number of reads than the driver issued"
    );

    // Within bucket error: the log-bucket layout doubles per bucket and
    // the driver adds call overhead, so allow a two-bucket (4x) band plus
    // a small absolute floor for sub-microsecond values.
    let close = |engine_ns: u64, bench_ns: u64| {
        engine_ns <= bench_ns.saturating_mul(4) + 2_000
            && bench_ns <= engine_ns.saturating_mul(4) + 2_000
    };
    for p in [50.0, 90.0, 99.0] {
        assert!(
            close(put.percentile(p), r.write_latency.percentile(p)),
            "put p{p} disagrees: engine={}ns bench={}ns",
            put.percentile(p),
            r.write_latency.percentile(p)
        );
        assert!(
            close(get.percentile(p), r.read_latency.percentile(p)),
            "get p{p} disagrees: engine={}ns bench={}ns",
            get.percentile(p),
            r.read_latency.percentile(p)
        );
    }
}

/// `metrics_text()` on a live engine after real traffic carries the key
/// series: op-latency quantiles for put and get, per-level occupancy,
/// per-level compaction counters and stall totals.
#[test]
fn live_engine_metrics_text_has_key_series() {
    let db = MioDb::open(opts_with_tracing()).unwrap();
    let value = vec![0x5Au8; 256];
    for i in 0..2000u32 {
        db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
    }
    for i in 0..2000u32 {
        db.get(format!("key{i:06}").as_bytes()).unwrap();
    }
    db.wait_idle().unwrap();
    let text = db.metrics_text();
    for needle in [
        "miodb_op_latency_seconds{op=\"put\",quantile=\"0.5\"}",
        "miodb_op_latency_seconds{op=\"put\",quantile=\"0.999\"}",
        "miodb_op_latency_seconds{op=\"get\",quantile=\"0.99\"}",
        "miodb_level_bytes{level=\"0\"}",
        "miodb_level_tables{level=\"0\"}",
        "miodb_compactions_total{level=\"0\",kind=\"zero_copy\"}",
        "miodb_stall_seconds_total{kind=\"interval\"}",
        "miodb_flushes_total",
    ] {
        assert!(
            text.contains(needle),
            "missing series `{needle}` in:\n{text}"
        );
    }
}
