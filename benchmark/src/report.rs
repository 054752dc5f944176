//! Turning what a run observed into named metrics, and printing them.

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::Rows;
use crate::run::{windowed_percentile_us, Observed};
use crate::stats::median_f64;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run, in table order.
pub fn end_to_end(o: &Observed) -> Vec<Metric> {
    let gets = o.get_samples();
    let puts = o.put_samples();
    END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: match m.name {
                "ops_per_s" => o.ops_per_s(),
                "get_p50_us" => windowed_percentile_us(&gets, 0.50),
                "put_p50_us" => windowed_percentile_us(&puts, 0.50),
                "write_amp" => o.write_amp(),
                "peak_rss_mb" => host::peak_rss_mb(),
                "setup_s" => median_f64(&o.setup_s),
                other => unreachable!("end-to-end metric {other} has no source"),
            },
        })
        .collect()
}

/// Per-layer metrics in table order; a metric no source produced on this
/// workload (a server counter on an embedded run) reads 0.
pub fn per_layer(values: &Rows) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// One line per metric: `workload metric value unit`.
pub fn print_lines(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

/// The result object the run ends with: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
