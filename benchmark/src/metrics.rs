//! The metrics this benchmark reports: names, units, which direction is
//! better, and for end-to-end metrics the bound by which a later change
//! may worsen them. `BENCHMARK.json` is printed from these tables
//! (`benchmark manifest`), so the two cannot drift apart.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn up(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Seconds one run measures (`run_seconds` of BENCHMARK.json).
pub const RUN_SECONDS: u32 = 10;

/// Measured with tracing off, on every workload. What each means on each
/// workload, and why the tails, `space_amp` and `stall_frac` are reported
/// by the traced run instead (rows `e2e.*` below), is in the README.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("get_p50_us", "us", Better::Lower, 0.25),
    e2e("put_p50_us", "us", Better::Lower, 0.25),
    e2e("write_amp", "ratio", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Measured in the traced run, never gated. Layer = crate name; `bench`
/// is the benchmark itself, `host` calibrates the machine.
pub const PER_LAYER: &[Layer] = &[
    // e2e: what a user sees but the run-to-run spread on a shared host is
    // too wide to gate, or is zero on some workload.
    down("e2e.get_p99_us", "us"),
    down("e2e.get_p999_us", "us"),
    down("e2e.put_p99_us", "us"),
    down("e2e.put_p999_us", "us"),
    down("e2e.put_p9999_us", "us"),
    down("e2e.space_amp", "ratio"),
    down("e2e.stall_frac", "ratio"),
    down("e2e.settle_s", "s"),
    down("e2e.error_rate", "ratio"),
    down("e2e.stale_reads", "count"),
    // core: spans around the calls the workload makes.
    down("core.put_ns", "ns"),
    down("core.get_ns", "ns"),
    down("core.get_absent_ns", "ns"),
    // core: probe engine fed the workload's key and value shapes.
    down("core.put_cpu_ns", "ns"),
    down("core.put_model_ns", "ns"),
    down("core.get_cpu_ns", "ns"),
    down("core.get_model_ns", "ns"),
    down("core.unattributed_put_ns", "ns"),
    down("core.recover_ms", "ms"),
    down("core.recover_lost_acked", "count"),
    // core: counter deltas over the measured phase (totals after settling
    // where noted in the README).
    up("core.get_hit_ratio", "ratio"),
    up("core.bloom_skips_per_get", "count"),
    down("core.bloom_fp_per_get", "count"),
    down("core.nvm_read_bytes_per_get", "B"),
    down("core.level_probe_retries_per_mget", "count"),
    down("core.levels_occupied", "count"),
    down("core.flush_count", "count"),
    down("core.flush_ms_total", "ms"),
    up("core.flush_mb_per_s", "MB/s"),
    down("core.swizzle_ms_total", "ms"),
    down("core.zero_copy_merges", "count"),
    down("core.zero_copy_ms_total", "ms"),
    down("core.lazy_copy_runs", "count"),
    down("core.lazy_copy_ms_total", "ms"),
    down("core.interval_stalls", "count"),
    down("core.interval_stall_ms", "ms"),
    down("core.cumulative_stall_ms", "ms"),
    down("core.nvm_peak_mb", "MiB"),
    // skiplist probes.
    down("skiplist.insert_ns", "ns"),
    down("skiplist.insert_concurrent_ns", "ns"),
    down("skiplist.get_hit_ns", "ns"),
    down("skiplist.get_miss_ns", "ns"),
    down("skiplist.get_deep_ns", "ns"),
    up("skiplist.flush_mb_per_s", "MB/s"),
    down("skiplist.swizzle_ns_per_node", "ns"),
    down("skiplist.merge_ns_per_node", "ns"),
    down("skiplist.merge_cpu_ns_per_node", "ns"),
    // bloom probes.
    down("bloom.insert_ns", "ns"),
    down("bloom.probe_hit_ns", "ns"),
    down("bloom.probe_miss_ns", "ns"),
    down("bloom.merge_us", "us"),
    down("bloom.fp_rate", "ratio"),
    // wal probes.
    down("wal.append_ns", "ns"),
    down("wal.append_cpu_ns", "ns"),
    down("wal.append_group_ns_per_op", "ns"),
    up("wal.replay_mb_per_s", "MB/s"),
    down("wal.bytes_per_user_byte", "ratio"),
    // pmem probes.
    down("pmem.alloc_ns", "ns"),
    down("pmem.write_1k_ns", "ns"),
    down("pmem.write_1k_cpu_ns", "ns"),
    down("pmem.read_1k_ns", "ns"),
    down("pmem.spin_overshoot_ns", "ns"),
    down("pmem.first_touch_ms_per_gb", "ms"),
    // proto probes: the served workloads' 50/50 mix of 256 B PUT and GET.
    down("proto.encode_req_ns", "ns"),
    down("proto.decode_req_ns", "ns"),
    down("proto.encode_resp_ns", "ns"),
    down("proto.decode_resp_ns", "ns"),
    // client: spans around send/flush/recv, and its failure counters.
    down("client.send_ns", "ns"),
    down("client.flush_ns", "ns"),
    down("client.recv_wait_ns", "ns"),
    down("client.retries", "count"),
    down("client.timeouts", "count"),
    down("client.reconnects", "count"),
    down("client.backpressure", "count"),
    // server: its own telemetry over the measured phase.
    down("server.get_service_p50_us", "us"),
    down("server.get_service_p99_us", "us"),
    down("server.put_service_p50_us", "us"),
    down("server.put_service_p99_us", "us"),
    up("server.requests_total", "count"),
    down("server.backpressure_events", "count"),
    down("server.protocol_errors", "count"),
    down("server.conns_refused", "count"),
    down("server.unattributed_us", "us"),
    // common: the program's own tracer, on 1-in-1 against off.
    down("common.trace_on_overhead_pct", "%"),
    // process: /proc over the measured phase.
    down("process.cpu_us_per_op", "us"),
    down("process.vol_ctx_switches_per_op", "count"),
    down("process.threads", "count"),
    // host calibration: explains drift between sets.
    down("host.loopback_rtt_us", "us"),
    up("host.memcpy_gb_per_s", "GB/s"),
    down("host.spin_1us_actual_ns", "ns"),
    up("host.nproc", "count"),
    // bench: what the benchmark itself costs.
    down("bench.trace_overhead_pct", "%"),
    down("bench.generate_ns", "ns"),
    down("bench.check_ns", "ns"),
    down("bench.spans_dropped", "count"),
];

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(text).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| Json::obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(names.insert(w.name()), "{} used twice", w.name());
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_manifest_is_the_one_the_tables_print() {
        // Absent when only `benchmark/` is checked out; nothing to compare.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        assert!(text.len() <= 64 << 10);
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest()
        );
    }
}
