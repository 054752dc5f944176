//! Service-layer telemetry: connection gauges, request counters and
//! per-opcode request latency histograms for the network front end.
//!
//! The server owns one [`ServiceTelemetry`]; handlers bump the gauges on
//! connection open/close and around each request, and record wall-clock
//! request latency into the per-opcode [`Histogram`]s. STATS
//! responses [`register`](ServiceTelemetry::register) these families into
//! the same registry as the engine's, so one scrape covers both layers.
//!
//! Every scalar series is declared exactly once, in the
//! `declare_service_series!` table below: field, registry method, metric
//! name, labels and help text. The struct's fields and the table that
//! `register` walks are both generated from it.

use crate::histogram::Histogram;
use crate::metrics::MetricsRegistry;
use crate::proto::Opcode;
use std::sync::atomic::{AtomicU64, Ordering};

/// The thread a request executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePath {
    /// Inline, on the event-loop shard that decoded it (run to completion).
    Shard,
    /// On the worker pool (frames that can block, or handed off).
    Worker,
}

/// [`MetricsRegistry::gauge`] or [`MetricsRegistry::counter`].
type AddSample = fn(&mut MetricsRegistry, &str, &str, &[(&str, &str)], f64);

/// One row of the series table.
struct Series {
    add: AddSample,
    metric: &'static str,
    labels: &'static [(&'static str, &'static str)],
    help: &'static str,
    cell: fn(&ServiceTelemetry) -> &AtomicU64,
}

macro_rules! declare_service_series {
    ($(
        $(#[$doc:meta])*
        $field:ident => $add:ident $metric:literal {$($lk:ident = $lv:literal),*} $help:literal;
    )*) => {
        /// Gauges, counters and histograms for one server instance.
        #[derive(Debug, Default)]
        pub struct ServiceTelemetry {
            $($(#[$doc])* $field: AtomicU64,)*
            /// Per-opcode request latency in nanoseconds, indexed by
            /// [`Opcode::ALL`] order.
            latency: [Histogram; Opcode::ALL.len()],
        }

        /// Every scalar series, in exposition order.
        const SERIES: &[Series] = &[$(Series {
            add: MetricsRegistry::$add,
            metric: $metric,
            labels: &[$((stringify!($lk), $lv)),*],
            help: $help,
            cell: |t| &t.$field,
        },)*];
    };
}

declare_service_series! {
    /// Currently open client connections.
    active_connections => gauge "miodb_server_active_connections" {}
        "Currently open client connections";
    /// Connections accepted since start.
    connections_total => counter "miodb_server_connections_total" {}
        "Connections accepted since start";
    /// Connections refused by the connection limit.
    connections_refused => counter "miodb_server_connections_refused_total" {}
        "Connections refused by the connection limit";
    /// Requests currently being executed (decoded but not yet answered).
    requests_inflight => gauge "miodb_server_requests_inflight" {}
        "Requests currently being executed";
    /// Malformed frames that tore down a connection.
    protocol_errors => counter "miodb_server_protocol_errors_total" {}
        "Malformed frames that tore down a connection";
    /// Backpressure advisories sent (connections paused by queue or
    /// write-buffer caps).
    backpressure_events => counter "miodb_server_backpressure_events_total" {}
        "Backpressure advisories sent to paused connections";
    /// Requests executed on [`ServePath::Shard`].
    served_on_shard => counter "miodb_server_requests_total" {path = "shard"}
        "Requests executed, by the thread that ran them";
    /// Requests executed on [`ServePath::Worker`].
    served_on_worker => counter "miodb_server_requests_total" {path = "worker"}
        "Requests executed, by the thread that ran them";
}

impl ServiceTelemetry {
    /// Creates zeroed telemetry.
    pub fn new() -> ServiceTelemetry {
        ServiceTelemetry::default()
    }

    /// The latency histogram for `op`.
    pub fn latency(&self, op: Opcode) -> &Histogram {
        let idx = Opcode::ALL
            .iter()
            .position(|o| *o == op)
            .expect("opcode in ALL");
        &self.latency[idx]
    }

    fn served(&self, path: ServePath) -> &AtomicU64 {
        match path {
            ServePath::Shard => &self.served_on_shard,
            ServePath::Worker => &self.served_on_worker,
        }
    }

    /// Marks a connection accepted; returns the new active count.
    pub fn conn_opened(&self) -> u64 {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.active_connections.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Marks a connection closed.
    pub fn conn_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks a connection refused by the limit.
    pub fn conn_refused(&self) {
        self.connections_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one request as started.
    pub fn request_begin(&self) {
        self.requests_inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one request finished and records its latency.
    pub fn request_end(&self, op: Opcode, ns: u64) {
        self.requests_inflight.fetch_sub(1, Ordering::Relaxed);
        self.latency(op).record(ns);
    }

    /// Counts a malformed frame.
    pub fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one backpressure advisory (a connection paused because its
    /// request queue or response buffer hit the cap).
    pub fn backpressure_event(&self) {
        self.backpressure_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Backpressure advisories sent since start.
    pub fn backpressure_events(&self) -> u64 {
        self.backpressure_events.load(Ordering::Relaxed)
    }

    /// Counts one request executed on `path`.
    pub fn request_served(&self, path: ServePath) {
        self.served(path).fetch_add(1, Ordering::Relaxed);
    }

    /// Requests executed on `path` since start.
    pub fn requests_on(&self, path: ServePath) -> u64 {
        self.served(path).load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::Relaxed)
    }

    /// Requests currently in flight.
    pub fn requests_inflight(&self) -> u64 {
        self.requests_inflight.load(Ordering::Relaxed)
    }

    /// Requests served since start (all opcodes).
    pub fn requests_total(&self) -> u64 {
        self.latency.iter().map(Histogram::count).sum()
    }

    /// Registers the service metric families into `reg` (Prometheus names
    /// are prefixed `miodb_server_`).
    pub fn register(&self, reg: &mut MetricsRegistry) {
        for s in SERIES {
            let value = (s.cell)(self).load(Ordering::Relaxed) as f64;
            (s.add)(reg, s.metric, s.help, s.labels, value);
        }
        reg.counter(
            "miodb_server_dropped_spans_total",
            "Trace spans discarded because the span ring was full",
            &[],
            crate::trace::dropped_spans() as f64,
        );
        for op in Opcode::ALL {
            let h = self.latency(op).snapshot();
            if h.count() == 0 {
                continue;
            }
            reg.summary(
                "miodb_server_request_latency_seconds",
                "Server-side request latency by opcode",
                &[("op", op.label())],
                &h,
                1e-9,
            );
        }
    }

    /// Renders only the service families as Prometheus text.
    pub fn render_prometheus(&self) -> String {
        let mut reg = MetricsRegistry::new();
        self.register(&mut reg);
        reg.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_track_connection_lifecycle() {
        let t = ServiceTelemetry::new();
        assert_eq!(t.conn_opened(), 1);
        assert_eq!(t.conn_opened(), 2);
        t.conn_closed();
        assert_eq!(t.active_connections(), 1);
        t.conn_refused();
        t.request_begin();
        assert_eq!(t.requests_inflight(), 1);
        t.request_end(Opcode::Put, 1_000);
        assert_eq!(t.requests_inflight(), 0);
        assert_eq!(t.requests_total(), 1);
        assert_eq!(t.latency(Opcode::Put).count(), 1);
        assert_eq!(t.latency(Opcode::Get).count(), 0);
        t.backpressure_event();
        assert_eq!(t.backpressure_events(), 1);
        assert!(t
            .render_prometheus()
            .contains("miodb_server_backpressure_events_total 1"));
    }

    #[test]
    fn render_includes_gauges_and_summaries() {
        let t = ServiceTelemetry::new();
        t.conn_opened();
        t.request_begin();
        t.request_end(Opcode::Get, 5_000);
        let text = t.render_prometheus();
        assert!(text.contains("miodb_server_active_connections 1"));
        assert!(text.contains("miodb_server_requests_inflight 0"));
        assert!(text.contains("miodb_server_request_latency_seconds{op=\"get\""));
        // Opcodes with no samples are omitted.
        assert!(!text.contains("op=\"batch\""));
    }

    #[test]
    fn requests_are_counted_by_path_and_both_paths_render() {
        let t = ServiceTelemetry::new();
        for _ in 0..3 {
            t.request_served(ServePath::Shard);
        }
        assert_eq!(t.requests_on(ServePath::Shard), 3);
        assert_eq!(t.requests_on(ServePath::Worker), 0);
        let text = t.render_prometheus();
        assert!(text.contains("miodb_server_requests_total{path=\"shard\"} 3"));
        assert!(text.contains("miodb_server_requests_total{path=\"worker\"} 0"));
    }

    /// Parses the exposition text line-by-line: every sampled opcode must
    /// carry the full quantile set including p99.9, and the trace-buffer
    /// overflow counter must always be present (zero when intact).
    #[test]
    fn exposition_has_p999_per_opcode_and_dropped_spans_counter() {
        let t = ServiceTelemetry::new();
        for op in [Opcode::Get, Opcode::Put, Opcode::Scan] {
            for i in 0..1000u64 {
                t.request_begin();
                t.request_end(op, 1_000 + i * 37);
            }
        }
        let text = t.render_prometheus();
        for op in ["get", "put", "scan"] {
            for q in ["0.5", "0.9", "0.99", "0.999"] {
                let needle =
                    format!("miodb_server_request_latency_seconds{{op=\"{op}\",quantile=\"{q}\"}}");
                let line = text
                    .lines()
                    .find(|l| l.starts_with(&needle))
                    .unwrap_or_else(|| panic!("missing series `{needle}` in:\n{text}"));
                let value: f64 = line[needle.len()..].trim().parse().unwrap();
                assert!(value > 0.0, "non-positive quantile on `{line}`");
            }
        }
        let dropped = text
            .lines()
            .find(|l| l.starts_with("miodb_server_dropped_spans_total"))
            .expect("dropped_spans_total series missing");
        let value: f64 = dropped
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("numeric dropped_spans value");
        assert!(value >= 0.0);
    }
}
