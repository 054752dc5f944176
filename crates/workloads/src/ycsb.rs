//! YCSB core workloads (paper §5.2).
//!
//! - **Load**: insert the whole record set.
//! - **A**: 50% reads / 50% updates, zipfian.
//! - **B**: 95% reads / 5% updates, zipfian.
//! - **C**: 100% reads, zipfian.
//! - **D**: 95% reads of recent records / 5% inserts, latest distribution.
//! - **E**: 95% scans / 5% inserts, zipfian start keys.
//! - **F**: 50% reads / 50% read-modify-writes, zipfian.
//!
//! The zipfian skew is the YCSB default θ = 0.99 (the paper's "99%
//! skewness").

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use miodb_common::{Histogram, KvEngine, Result};

use crate::keygen::{KeyGen, ValueGen};
use crate::zipfian::{IndexDistribution, Latest, ScrambledZipfian, Uniform};

/// Which YCSB workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// Insert-only load phase.
    Load,
    /// 50/50 read/update, zipfian.
    A,
    /// 95/5 read/update, zipfian.
    B,
    /// Read-only, zipfian.
    C,
    /// 95/5 read/insert, latest.
    D,
    /// 95/5 scan/insert, zipfian.
    E,
    /// 50/50 read/read-modify-write, zipfian.
    F,
}

impl std::fmt::Display for YcsbWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            YcsbWorkload::Load => "Load",
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        };
        f.write_str(s)
    }
}

/// YCSB run parameters.
#[derive(Debug, Clone)]
pub struct YcsbSpec {
    /// Records preloaded before the run phase.
    pub records: u64,
    /// Operations in the run phase (ignored by `Load`).
    pub operations: u64,
    /// Value size in bytes.
    pub value_len: usize,
    /// Client threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record every operation's latency in [`YcsbResult::timeline`]
    /// (Figure 8).
    pub record_timeline: bool,
    /// Maximum range-scan length for workload E.
    pub max_scan_len: usize,
}

impl Default for YcsbSpec {
    fn default() -> YcsbSpec {
        YcsbSpec {
            records: 10_000,
            operations: 10_000,
            value_len: 1024,
            threads: 1,
            seed: 42,
            record_timeline: false,
            max_scan_len: 100,
        }
    }
}

/// Result of one YCSB phase.
#[derive(Debug)]
pub struct YcsbResult {
    /// The workload run.
    pub workload: YcsbWorkload,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
    /// All-operation latency distribution.
    pub latency: Histogram,
    /// Read-only operation latencies.
    pub read_latency: Histogram,
    /// Mutating operation latencies.
    pub write_latency: Histogram,
    /// Per-operation latencies in issue order (thread 0 only), if
    /// requested.
    pub timeline: Vec<u64>,
}

impl YcsbResult {
    /// Throughput in thousands of operations per second. The denominator
    /// is the smaller of wall time and summed per-op latencies: the sum
    /// strips host-scheduler noise on a single client thread, while wall
    /// time is correct for overlapping threads (where the sum would
    /// double-count lock waits).
    pub fn kops(&self) -> f64 {
        let busy = self.latency.sum().min(self.elapsed_ns).max(1);
        self.ops as f64 / (busy as f64 / 1e9) / 1e3
    }
}

enum Op {
    Read,
    Update,
    Insert,
    Scan,
    ReadModifyWrite,
}

fn pick_op(workload: YcsbWorkload, roll: f64) -> Op {
    match workload {
        YcsbWorkload::Load => Op::Insert,
        YcsbWorkload::A => {
            if roll < 0.5 {
                Op::Read
            } else {
                Op::Update
            }
        }
        YcsbWorkload::B => {
            if roll < 0.95 {
                Op::Read
            } else {
                Op::Update
            }
        }
        YcsbWorkload::C => Op::Read,
        YcsbWorkload::D => {
            if roll < 0.95 {
                Op::Read
            } else {
                Op::Insert
            }
        }
        YcsbWorkload::E => {
            if roll < 0.95 {
                Op::Scan
            } else {
                Op::Insert
            }
        }
        YcsbWorkload::F => {
            if roll < 0.5 {
                Op::Read
            } else {
                Op::ReadModifyWrite
            }
        }
    }
}

/// Runs one YCSB phase against `engine`.
///
/// `Load` inserts `spec.records` keys; the other workloads assume a prior
/// load and execute `spec.operations` operations across `spec.threads`
/// client threads.
///
/// # Errors
///
/// Propagates the first engine error.
pub fn run_ycsb(
    engine: &dyn KvEngine,
    workload: YcsbWorkload,
    spec: &YcsbSpec,
) -> Result<YcsbResult> {
    let vg = ValueGen::new(spec.value_len);
    let insert_counter = AtomicU64::new(spec.records);
    let total_ops = if workload == YcsbWorkload::Load {
        spec.records
    } else {
        spec.operations
    };
    let threads = spec.threads.max(1);
    let per_thread = total_ops / threads as u64;

    struct ThreadOut {
        timeline: Vec<u64>,
        ops: u64,
        error: Option<miodb_common::Error>,
    }

    let mut result = YcsbResult {
        workload,
        ops: 0,
        elapsed_ns: 0,
        latency: Histogram::new(),
        read_latency: Histogram::new(),
        write_latency: Histogram::new(),
        timeline: Vec::new(),
    };
    let start = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let result = &result;
            let insert_counter = &insert_counter;
            let spec = spec.clone();
            let ops_here = if t == threads - 1 {
                total_ops - per_thread * (threads as u64 - 1)
            } else {
                per_thread
            };
            handles.push(s.spawn(move || {
                let mut out = ThreadOut {
                    timeline: Vec::new(),
                    ops: 0,
                    error: None,
                };
                let seed = spec.seed.wrapping_add(t as u64 * 0x9E37);
                let mut zipf = ScrambledZipfian::new(spec.records.max(1), seed);
                let mut latest = Latest::new(spec.records.max(1), seed ^ 0xABCD);
                let mut roll_rng = Uniform::new(1_000_000, seed ^ 0x1234);
                let mut key_buf = Vec::with_capacity(16);
                let mut val_buf = Vec::with_capacity(spec.value_len);
                let record_timeline = spec.record_timeline && t == 0;

                for i in 0..ops_here {
                    let roll = roll_rng.next_index() as f64 / 1_000_000.0;
                    let op = if workload == YcsbWorkload::Load {
                        Op::Insert
                    } else {
                        pick_op(workload, roll)
                    };
                    let t0 = Instant::now();
                    let r: Result<bool> = (|| match op {
                        Op::Read => {
                            let idx = if workload == YcsbWorkload::D {
                                latest.next_index()
                            } else {
                                zipf.next_index()
                            };
                            KeyGen::key_into(idx, &mut key_buf);
                            engine.get(&key_buf).map(|v| v.is_some())
                        }
                        Op::Update => {
                            let idx = zipf.next_index();
                            KeyGen::key_into(idx, &mut key_buf);
                            vg.value_into(idx ^ i, &mut val_buf);
                            engine.put(&key_buf, &val_buf).map(|()| false)
                        }
                        Op::Insert => {
                            let idx = if workload == YcsbWorkload::Load {
                                // Load phase: thread-partitioned key space.
                                t as u64 * per_thread + i
                            } else {
                                let idx = insert_counter.fetch_add(1, Ordering::Relaxed);
                                latest.set_max(idx + 1);
                                idx
                            };
                            KeyGen::key_into(idx, &mut key_buf);
                            vg.value_into(idx, &mut val_buf);
                            engine.put(&key_buf, &val_buf).map(|()| false)
                        }
                        Op::Scan => {
                            let idx = zipf.next_index();
                            KeyGen::key_into(idx, &mut key_buf);
                            let len = 1 + (roll_rng.next_index() as usize % spec.max_scan_len);
                            engine.scan(&key_buf, len).map(|v| !v.is_empty())
                        }
                        Op::ReadModifyWrite => {
                            let idx = zipf.next_index();
                            KeyGen::key_into(idx, &mut key_buf);
                            let _old = engine.get(&key_buf)?;
                            vg.value_into(idx ^ i ^ 0xF00D, &mut val_buf);
                            engine.put(&key_buf, &val_buf).map(|()| false)
                        }
                    })();
                    let lat = t0.elapsed().as_nanos() as u64;
                    match r {
                        Ok(_) => {}
                        Err(e) => {
                            out.error = Some(e);
                            return out;
                        }
                    }
                    result.latency.record(lat);
                    match op {
                        Op::Read | Op::Scan => result.read_latency.record(lat),
                        _ => result.write_latency.record(lat),
                    }
                    if record_timeline {
                        out.timeline.push(lat);
                    }
                    out.ops += 1;
                }
                out
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("ycsb thread"))
            .collect()
    });
    result.elapsed_ns = start.elapsed().as_nanos() as u64;
    for out in outs {
        if let Some(e) = out.error {
            return Err(e);
        }
        result.ops += out.ops;
        if !out.timeline.is_empty() {
            result.timeline = out.timeline;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::{EngineReport, ScanEntry};
    use parking_lot::Mutex;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct MapEngine {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
    }

    impl KvEngine for MapEngine {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.lock().get(key).cloned())
        }
        fn delete(&self, key: &[u8]) -> Result<()> {
            self.map.lock().remove(key);
            Ok(())
        }
        fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
            Ok(self
                .map
                .lock()
                .range(start.to_vec()..)
                .take(limit)
                .map(|(k, v)| ScanEntry {
                    key: k.clone(),
                    value: v.clone(),
                })
                .collect())
        }
        fn wait_idle(&self) -> Result<()> {
            Ok(())
        }
        fn report(&self) -> EngineReport {
            EngineReport::default()
        }
        fn name(&self) -> &str {
            "map"
        }
    }

    fn spec(records: u64, ops: u64) -> YcsbSpec {
        YcsbSpec {
            records,
            operations: ops,
            value_len: 64,
            threads: 2,
            seed: 7,
            record_timeline: false,
            max_scan_len: 10,
        }
    }

    #[test]
    fn load_inserts_all_records() {
        let e = MapEngine::default();
        let r = run_ycsb(&e, YcsbWorkload::Load, &spec(1000, 0)).unwrap();
        assert_eq!(r.ops, 1000);
        assert_eq!(e.map.lock().len(), 1000);
    }

    #[test]
    fn workload_a_mixes_reads_and_updates() {
        let e = MapEngine::default();
        run_ycsb(&e, YcsbWorkload::Load, &spec(500, 0)).unwrap();
        let r = run_ycsb(&e, YcsbWorkload::A, &spec(500, 2000)).unwrap();
        assert_eq!(r.ops, 2000);
        let reads = r.read_latency.count();
        let writes = r.write_latency.count();
        assert_eq!(reads + writes, 2000);
        assert!((reads as f64 - 1000.0).abs() < 200.0, "reads = {reads}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let e = MapEngine::default();
        run_ycsb(&e, YcsbWorkload::Load, &spec(500, 0)).unwrap();
        let before = e.map.lock().clone();
        let r = run_ycsb(&e, YcsbWorkload::C, &spec(500, 1000)).unwrap();
        assert_eq!(r.write_latency.count(), 0);
        assert_eq!(*e.map.lock(), before, "C must not mutate");
    }

    #[test]
    fn workload_d_inserts_grow_keyspace() {
        let e = MapEngine::default();
        run_ycsb(&e, YcsbWorkload::Load, &spec(500, 0)).unwrap();
        run_ycsb(&e, YcsbWorkload::D, &spec(500, 2000)).unwrap();
        assert!(e.map.lock().len() > 500, "D must insert new records");
    }

    #[test]
    fn workload_e_scans() {
        let e = MapEngine::default();
        run_ycsb(&e, YcsbWorkload::Load, &spec(500, 0)).unwrap();
        let r = run_ycsb(&e, YcsbWorkload::E, &spec(500, 500)).unwrap();
        assert!(r.read_latency.count() > 400, "E is scan-dominant");
    }

    #[test]
    fn timeline_recorded_when_requested() {
        let e = MapEngine::default();
        run_ycsb(&e, YcsbWorkload::Load, &spec(100, 0)).unwrap();
        let mut s = spec(100, 400);
        s.record_timeline = true;
        s.threads = 1;
        let r = run_ycsb(&e, YcsbWorkload::A, &s).unwrap();
        assert_eq!(r.timeline.len(), 400);
    }

    #[test]
    fn kops_positive() {
        let e = MapEngine::default();
        let r = run_ycsb(&e, YcsbWorkload::Load, &spec(200, 0)).unwrap();
        assert!(r.kops() > 0.0);
    }
}
