//! Metrics exposition in the Prometheus text format.
//!
//! [`MetricsRegistry`] collects metric families (counters, gauges,
//! summaries) and renders them once. Every layer registers its families
//! into the same registry — the engine through [`register_engine`] (behind
//! [`KvEngine::register_metrics`](crate::KvEngine::register_metrics)), the
//! server through [`ServiceTelemetry::register`](crate::ServiceTelemetry::register),
//! the replicator through its own `register` — so a STATS scrape is one
//! registry rendered once, with `# HELP` and `# TYPE` on every family.

use crate::engine::EngineReport;
use crate::histogram::Histogram;
use crate::stats::{Unit, COUNTERS};
use crate::telemetry::{CompactionKind, EngineTelemetry, LevelMetrics};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Prometheus metric family type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// Monotonically increasing value.
    Counter,
    /// Value that can go up and down.
    Gauge,
    /// Pre-computed quantiles plus `_sum`/`_count`.
    Summary,
}

impl MetricType {
    fn label(&self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Summary => "summary",
        }
    }
}

#[derive(Debug, Clone)]
struct Sample {
    /// Suffix appended to the family name (`"_sum"`, `"_count"` or empty).
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricType,
    samples: Vec<Sample>,
}

/// An ordered collection of metric families.
///
/// # Examples
///
/// ```
/// use miodb_common::metrics::MetricsRegistry;
///
/// let mut r = MetricsRegistry::new();
/// r.gauge("kv_level_bytes", "Bytes per level", &[("level", "0")], 4096.0);
/// let text = r.render_prometheus();
/// assert!(text.contains("# TYPE kv_level_bytes gauge"));
/// assert!(text.contains("kv_level_bytes{level=\"0\"} 4096"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricType) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return &mut self.families[i];
        }
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    fn push_sample(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricType,
        suffix: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.family(name, help, kind).samples.push(Sample {
            suffix,
            labels,
            value,
        });
    }

    /// Adds one counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push_sample(name, help, MetricType::Counter, "", labels, value);
    }

    /// Adds one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push_sample(name, help, MetricType::Gauge, "", labels, value);
    }

    /// Adds a summary rendered from a latency histogram: quantiles 0.5,
    /// 0.9, 0.99 and 0.999 plus `_sum`/`_count`, with recorded values
    /// multiplied by `scale` (e.g. `1e-9` to expose nanoseconds as
    /// seconds).
    pub fn summary(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &Histogram,
        scale: f64,
    ) {
        for (q, p) in [
            ("0.5", 50.0),
            ("0.9", 90.0),
            ("0.99", 99.0),
            ("0.999", 99.9),
        ] {
            let quantile_labels = [labels, &[("quantile", q)]].concat();
            let value = hist.percentile(p) as f64 * scale;
            self.push_sample(name, help, MetricType::Summary, "", &quantile_labels, value);
        }
        for (suffix, value) in [
            ("_sum", hist.sum() as f64 * scale),
            ("_count", hist.count() as f64),
        ] {
            self.push_sample(name, help, MetricType::Summary, suffix, labels, value);
        }
    }

    /// Renders the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.label());
            for s in &f.samples {
                out.push_str(&f.name);
                out.push_str(s.suffix);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", format_value(s.value));
            }
        }
        out
    }
}

/// Prometheus sample value formatting: integers without a decimal point,
/// everything else in shortest float form.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Registers the standard metric family set of an engine into `r`.
///
/// The [`EngineReport`] supplies every declared [`Stats`](crate::Stats)
/// counter (one walk over [`COUNTERS`]), write amplification, per-level
/// table counts and NVM usage. `telemetry` supplies op-latency summaries,
/// per-level gauges and compaction breakdowns: one collector for a plain
/// engine, one per shard for a router — histograms are merged and
/// per-level values summed — or none.
pub fn register_engine(
    r: &mut MetricsRegistry,
    report: &EngineReport,
    telemetry: &[&EngineTelemetry],
) {
    r.gauge(
        "miodb_engine_info",
        "Constant 1; the engine label identifies the implementation.",
        &[("engine", &report.name)],
        1.0,
    );
    if !telemetry.is_empty() {
        register_telemetry(r, telemetry);
    }
    for (i, &tables) in report.tables_per_level.iter().enumerate() {
        r.gauge(
            "miodb_level_tables",
            "Tables/runs per LSM level.",
            &[("level", &i.to_string())],
            tables as f64,
        );
    }
    for c in COUNTERS {
        let raw = (c.value)(&report.stats) as f64;
        let value = match c.unit {
            Unit::Count => raw,
            Unit::Nanos => raw / 1e9,
        };
        r.counter(c.metric, c.help, c.labels, value);
    }
    r.gauge(
        "miodb_write_amplification",
        "Device bytes written divided by user bytes written.",
        &[],
        report.stats.write_amplification,
    );
    r.gauge(
        "miodb_nvm_used_bytes",
        "Bytes currently allocated in the NVM pool.",
        &[],
        report.nvm_used_bytes as f64,
    );
    r.gauge(
        "miodb_nvm_peak_bytes",
        "High-water mark of NVM pool usage.",
        &[],
        report.nvm_peak_bytes as f64,
    );
    for (pool, bytes) in [
        ("nvm", report.nvm_huge_page_bytes),
        ("dram", report.dram_huge_page_bytes),
    ] {
        r.gauge(
            "miodb_pool_huge_page_bytes",
            "Bytes of a pool's mapping backed by transparent huge pages, read at open.",
            &[("pool", pool)],
            bytes as f64,
        );
    }
}

/// Picks one histogram out of a collector.
type PickHistogram = fn(&EngineTelemetry) -> &Histogram;
/// Picks one gauge or counter out of a level.
type PickLevel = fn(&LevelMetrics) -> &AtomicU64;

/// The families only [`EngineTelemetry`] can supply, aggregated over `ts`.
fn register_telemetry(r: &mut MetricsRegistry, ts: &[&EngineTelemetry]) {
    let merged = |pick: PickHistogram| {
        let h = Histogram::new();
        for t in ts {
            h.merge(pick(t));
        }
        h
    };
    let uptime = ts.iter().map(|t| t.uptime()).max().unwrap_or_default();
    r.gauge(
        "miodb_uptime_seconds",
        "Seconds since the engine was opened.",
        &[],
        uptime.as_secs_f64(),
    );
    let ops: [(&str, PickHistogram); 4] = [
        ("put", |t| &t.put_latency),
        ("get", |t| &t.get_latency),
        ("delete", |t| &t.delete_latency),
        ("scan", |t| &t.scan_latency),
    ];
    for (op, pick) in ops {
        r.summary(
            "miodb_op_latency_seconds",
            "Engine-side operation latency quantiles.",
            &[("op", op)],
            &merged(pick),
            1e-9,
        );
    }
    let num_levels = ts.iter().map(|t| t.levels().len()).max().unwrap_or(0);
    for i in 0..num_levels {
        let sum = |pick: PickLevel| -> f64 {
            ts.iter()
                .filter_map(|t| t.level(i))
                .map(|m| pick(m).load(Ordering::Relaxed))
                .sum::<u64>() as f64
        };
        let level = i.to_string();
        r.gauge(
            "miodb_level_bytes",
            "Bytes resident per LSM level.",
            &[("level", &level)],
            sum(|m| &m.bytes),
        );
        r.gauge(
            "miodb_level_pending_compactions",
            "Compactions running per source level.",
            &[("level", &level)],
            sum(|m| &m.pending_compactions),
        );
        let kinds: [(CompactionKind, PickLevel, PickLevel); 2] = [
            (
                CompactionKind::ZeroCopy,
                |m| &m.zero_copy_compactions,
                |m| &m.zero_copy_ns,
            ),
            (
                CompactionKind::LazyCopy,
                |m| &m.lazy_copy_compactions,
                |m| &m.lazy_copy_ns,
            ),
        ];
        for (kind, count, ns) in kinds {
            let labels: &[(&str, &str)] = &[("level", &level), ("kind", kind.label())];
            r.counter(
                "miodb_compactions_total",
                "Completed compactions per source level and kind.",
                labels,
                sum(count),
            );
            r.counter(
                "miodb_compaction_seconds_total",
                "Time spent compacting per source level and kind.",
                labels,
                sum(ns) / 1e9,
            );
        }
    }
    let groups = merged(|t| &t.write_group_size);
    if groups.count() > 0 {
        r.summary(
            "miodb_write_group_size",
            "Operations coalesced per committed write group.",
            &[],
            &groups,
            1.0,
        );
    }
    r.gauge(
        "miodb_commit_queue_depth",
        "Writers currently enqueued on the commit queue.",
        &[],
        ts.iter().map(|t| t.commit_queue_depth()).sum::<u64>() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use std::sync::Arc;

    #[test]
    fn prometheus_renders_help_type_and_labels() {
        let mut r = MetricsRegistry::new();
        r.counter("kv_ops_total", "Total ops.", &[("op", "put")], 3.0);
        r.counter("kv_ops_total", "Total ops.", &[("op", "get")], 4.0);
        r.gauge("kv_depth", "Depth.", &[], 1.5);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP kv_ops_total Total ops."));
        assert!(text.contains("# TYPE kv_ops_total counter"));
        assert!(text.contains("kv_ops_total{op=\"put\"} 3"));
        assert!(text.contains("kv_ops_total{op=\"get\"} 4"));
        assert!(text.contains("kv_depth 1.5"));
        // One HELP/TYPE block per family even with multiple samples.
        assert_eq!(text.matches("# TYPE kv_ops_total").count(), 1);
    }

    #[test]
    fn summary_emits_quantiles_sum_and_count() {
        let hist = Histogram::new();
        for v in 1..=1000u64 {
            hist.record(v * 1000);
        }
        let mut r = MetricsRegistry::new();
        r.summary("kv_lat_seconds", "Latency.", &[("op", "put")], &hist, 1e-9);
        let text = r.render_prometheus();
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            assert!(
                text.contains(&format!("quantile=\"{q}\"")),
                "missing quantile {q} in:\n{text}"
            );
        }
        assert!(text.contains("kv_lat_seconds_count{op=\"put\"} 1000"));
        assert!(text.contains("kv_lat_seconds_sum{op=\"put\"}"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = MetricsRegistry::new();
        r.gauge("kv_g", "h", &[("name", "a\"b\\c\nd")], 1.0);
        let text = r.render_prometheus();
        assert!(text.contains("name=\"a\\\"b\\\\c\\nd\""));
    }

    fn engine_text(report: &EngineReport, telemetry: &[&EngineTelemetry]) -> String {
        let mut r = MetricsRegistry::new();
        register_engine(&mut r, report, telemetry);
        r.render_prometheus()
    }

    #[test]
    fn engine_registry_covers_acceptance_metrics() {
        let t = EngineTelemetry::new(3, Arc::new(Stats::new()));
        t.put_latency.record(1000);
        t.get_latency.record(2000);
        t.write_group_size.record(4);
        t.set_commit_queue_depth(2);
        t.level(0).unwrap().set_occupancy(1 << 20, 2);
        let report = EngineReport {
            name: "MioDB".to_string(),
            tables_per_level: vec![2, 1, 0],
            nvm_huge_page_bytes: 4 << 20,
            ..Default::default()
        };
        let text = engine_text(&report, &[&t]);
        for needle in [
            "miodb_op_latency_seconds{op=\"put\",quantile=\"0.5\"}",
            "miodb_op_latency_seconds{op=\"get\",quantile=\"0.999\"}",
            "miodb_level_bytes{level=\"0\"} 1048576",
            "miodb_level_tables{level=\"1\"} 1",
            "miodb_compactions_total{level=\"0\",kind=\"zero_copy\"}",
            "miodb_compaction_seconds_total{level=\"2\",kind=\"lazy_copy\"}",
            "miodb_stall_seconds_total{kind=\"interval\"}",
            "miodb_stall_events_total{kind=\"cumulative\"}",
            "miodb_write_amplification",
            "miodb_engine_info{engine=\"MioDB\"} 1",
            "miodb_write_group_size{quantile=\"0.5\"}",
            "miodb_commit_queue_depth 2",
            "miodb_pool_huge_page_bytes{pool=\"nvm\"} 4194304",
            "miodb_pool_huge_page_bytes{pool=\"dram\"} 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn engine_registry_without_telemetry_still_reports() {
        let report = EngineReport {
            name: "LsmDB".to_string(),
            tables_per_level: vec![4],
            ..Default::default()
        };
        let text = engine_text(&report, &[]);
        assert!(text.contains("miodb_level_tables{level=\"0\"} 4"));
        assert!(text.contains("miodb_stall_seconds_total"));
        assert!(!text.contains("miodb_op_latency_seconds"));
    }

    /// Walks the declared table: every counter is exported exactly once,
    /// under a `miodb_`-prefixed series no other counter shares, carrying
    /// its own value.
    #[test]
    fn every_declared_counter_is_exported_exactly_once() {
        let stats = Stats::new();
        for (n, c) in (1..).zip(COUNTERS) {
            // Whole seconds for nanosecond counters, so every value prints
            // as the integer `n`.
            let raw = match c.unit {
                Unit::Count => n,
                Unit::Nanos => n * 1_000_000_000,
            };
            (c.cell)(&stats).fetch_add(raw, Ordering::Relaxed);
        }
        let report = EngineReport {
            stats: stats.snapshot(),
            ..Default::default()
        };
        let text = engine_text(&report, &[]);
        let mut seen = std::collections::HashSet::new();
        for (n, c) in (1..).zip(COUNTERS) {
            assert!(c.metric.starts_with("miodb_"), "{}", c.metric);
            let labels: Vec<String> = c
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            let series = if labels.is_empty() {
                c.metric.to_string()
            } else {
                format!("{}{{{}}}", c.metric, labels.join(","))
            };
            assert!(seen.insert(series.clone()), "{series} declared twice");
            let lines: Vec<&str> = text
                .lines()
                .filter(|l| l.split(' ').next() == Some(series.as_str()))
                .collect();
            assert_eq!(lines, [format!("{series} {n}")], "counter {}", c.field);
        }
    }

    /// Two collectors (a router's shards) export the same families as one:
    /// histograms merged, per-level values and gauges summed.
    #[test]
    fn several_collectors_are_merged_into_the_same_families() {
        let a = EngineTelemetry::new(2, Arc::new(Stats::new()));
        let b = EngineTelemetry::new(3, Arc::new(Stats::new()));
        a.get_latency.record(1000);
        b.get_latency.record(3000);
        a.level(1).unwrap().set_occupancy(100, 1);
        b.level(1).unwrap().set_occupancy(50, 1);
        b.level(2).unwrap().set_occupancy(7, 1);
        a.set_commit_queue_depth(1);
        b.set_commit_queue_depth(2);
        let text = engine_text(&EngineReport::default(), &[&a, &b]);
        for needle in [
            "miodb_op_latency_seconds_count{op=\"get\"} 2",
            "miodb_level_bytes{level=\"1\"} 150",
            "miodb_level_bytes{level=\"2\"} 7",
            "miodb_commit_queue_depth 3",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert_eq!(text.matches("# TYPE miodb_op_latency_seconds ").count(), 1);
    }
}
