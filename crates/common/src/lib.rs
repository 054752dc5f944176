//! Common types shared across the MioDB workspace.
//!
//! This crate defines the vocabulary used by every other crate in the
//! reproduction of *"Revisiting Log-Structured Merging for KV Stores in
//! Hybrid Memory Systems"* (ASPLOS'23):
//!
//! - [`error`]: the workspace-wide [`error::Error`] type,
//! - [`types`]: keys, values, sequence numbers and operation kinds,
//! - [`histogram`]: the log-bucketed latency histogram, recorded lock-free
//!   from any number of threads, with percentiles and interval diffs,
//! - [`stats`]: the one table declaring every engine counter (stalls,
//!   flushing, write amplification) and everything generated from it,
//! - [`ring`]: the bounded lock-free MPMC ring backing the span trace,
//! - [`trace`]: end-to-end request spans with critical-path attribution,
//! - [`fault`]: the deterministic seed-driven fault-injection registry
//!   wired through pmem, WAL, engine and network layers,
//! - [`telemetry`]: per-engine telemetry (op histograms, level metrics)
//!   and the one guard that reports a timed background interval to the
//!   counters, the level and its trace span,
//! - [`metrics`]: the one registry every layer registers its families
//!   into, rendered as Prometheus text,
//! - [`proto`]: the length-prefixed CRC-protected network wire protocol
//!   spoken by `miodb-server` and `miodb-client`,
//! - [`repl`]: the replication seam ([`repl::ReplicationSink`]) between
//!   the commit pipeline and the WAL-shipping replicator,
//! - [`service`]: connection gauges and per-opcode request histograms for
//!   the network service layer,
//! - [`engine`]: the [`engine::KvEngine`] trait implemented by
//!   MioDB and every baseline so that workloads can drive them uniformly.

pub mod crc32;
pub mod engine;
pub mod error;
pub mod fault;
pub mod histogram;
pub mod metrics;
pub mod proto;
pub mod repl;
pub mod ring;
pub mod service;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod types;

pub use engine::{DramBytes, EngineReport, KvEngine, ScanEntry};
pub use error::{Error, Result};
pub use fault::{FaultAction, FaultPoint, FaultPolicy};
pub use histogram::Histogram;
pub use metrics::MetricsRegistry;
pub use proto::{Opcode, Request, Response};
pub use repl::{majority, AckLevel, ReplicationSink, Role, RoleState};
pub use ring::MpmcRing;
pub use service::{ServePath, ServiceTelemetry};
pub use stats::Stats;
pub use telemetry::{CompactionKind, EngineTelemetry, Interval, LevelMetrics, StallKind, Timed};
pub use trace::{SpanKind, SpanLayer, SpanRecord, TraceCtx};
pub use types::{OpKind, SequenceNumber, MAX_SEQUENCE_NUMBER};
