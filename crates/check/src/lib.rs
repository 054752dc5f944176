//! Linearizability and crash-durability verification for MioDB.
//!
//! PRs 2–4 gave the workspace a concurrent commit queue, a sharded
//! network layer and deterministic fault injection; this crate adds the
//! machinery that *proves* the histories those components serve are
//! correct, instead of stress that merely fails to crash:
//!
//! - [`history`]: lock-free-hot-path recording of invoke/return windows
//!   and outcomes ([`history::RecordingEngine`] for in-process engines,
//!   [`history::ProcessLog`] client hooks for the wire protocol), with
//!   `Error::MaybeApplied` captured as an explicitly ambiguous outcome;
//! - [`linearize`]: a per-key Wing–Gong linearizability checker for
//!   register semantics (put/get/delete), treating ambiguous outcomes as
//!   "may or may not have occurred" with effect window `[invoke, ∞)`;
//! - [`durable`]: the durable-prefix oracle for crash tests — every
//!   acknowledged write survives recovery, every unacknowledged write is
//!   fully present or fully absent;
//! - [`monotonic`]: an O(1)-per-operation monotonic-read checker for
//!   storms too long to record, one per client thread;
//! - [`stress`]: a seeded interleaving driver that composes with the
//!   `miodb_common::fault` registry and feeds histories to the checker;
//! - [`shim`]: a reference engine plus deliberately broken engines
//!   (lost acknowledged write, stale read) that the mutation tests use to
//!   prove the checker rejects real consistency bugs.
//!
//! See DESIGN.md §11 for the verification methodology.

#![deny(missing_docs)]

pub mod durable;
pub mod history;
pub mod linearize;
pub mod monotonic;
pub mod shim;
pub mod stress;

pub use durable::{DurabilityViolation, DurableOracle, WriteToken};
pub use history::{
    History, HistoryRecorder, Observed, OpAction, ProcessLog, RecordedOp, RecordingEngine,
};
pub use linearize::{
    check_history, check_history_with, CheckOptions, CheckStats, Verdict, Violation,
};
pub use monotonic::{MonotonicReads, StaleRead};
pub use shim::{BrokenEngine, Bug, MapEngine};
pub use stress::{run_stress, StressSpec};
