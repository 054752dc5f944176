//! `db_bench`-style micro-benchmarks (paper §5.1).

use std::time::Instant;

use miodb_common::{Histogram, KvEngine, Result};

use crate::keygen::{KeyGen, ValueGen};
use crate::zipfian::{IndexDistribution, Uniform};

/// Which micro-benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// Sequential inserts of `n` fresh keys.
    FillSeq,
    /// Random-order inserts of `n` fresh keys (a permutation, as in
    /// db_bench's `fillrandom`).
    FillRandom,
    /// Sequential reads of `n` existing keys.
    ReadSeq,
    /// Uniform random reads of `n` existing keys.
    ReadRandom,
    /// Uniform random overwrites of existing keys.
    Overwrite,
    /// Uniform random deletions of existing keys.
    DeleteRandom,
    /// Random range scans (`seekrandom` in db_bench): seek to a uniform
    /// key and read a short run.
    SeekRandom,
}

impl std::fmt::Display for BenchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BenchKind::FillSeq => "fillseq",
            BenchKind::FillRandom => "fillrandom",
            BenchKind::ReadSeq => "readseq",
            BenchKind::ReadRandom => "readrandom",
            BenchKind::Overwrite => "overwrite",
            BenchKind::DeleteRandom => "deleterandom",
            BenchKind::SeekRandom => "seekrandom",
        };
        f.write_str(s)
    }
}

/// Result of one micro-benchmark run.
#[derive(Debug)]
pub struct BenchResult {
    /// Benchmark kind.
    pub kind: BenchKind,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock time of the run in nanoseconds.
    pub elapsed_ns: u64,
    /// Per-operation latency distribution.
    pub latency: Histogram,
    /// Read operations that found a value (reads only).
    pub hits: u64,
}

impl BenchResult {
    /// Throughput denominator: the smaller of wall time and summed
    /// per-operation latencies. The sum strips host-scheduler noise from
    /// the simulator's background threads (wall > sum on a busy host);
    /// with overlapping client threads the sum double-counts lock waits
    /// (sum > wall), so the minimum is correct on both sides.
    fn busy_ns(&self) -> u64 {
        self.latency.sum().min(self.elapsed_ns).max(1)
    }

    /// Throughput in thousands of operations per second.
    pub fn kops(&self) -> f64 {
        self.ops as f64 / (self.busy_ns() as f64 / 1e9) / 1e3
    }

    /// Data throughput in MiB/s for `value_len`-byte values.
    pub fn mib_per_sec(&self, value_len: usize) -> f64 {
        let bytes = self.ops * (16 + value_len as u64);
        bytes as f64 / (self.busy_ns() as f64 / 1e9) / (1024.0 * 1024.0)
    }
}

/// A deterministic permutation of `[0, n)` used by `fillrandom` so every
/// key is written exactly once but in pseudorandom order: a 4-round
/// Feistel network over the enclosing power-of-four domain with
/// cycle-walking (each out-of-range output is re-permuted; the cycle
/// containing `i < n` always returns into range, so this terminates and
/// stays bijective). `seed` keys the round function, giving a different
/// reproducible insertion order per seed — the Feistel structure is a
/// bijection for any round function, so uniqueness is preserved.
fn permuted(i: u64, n: u64, seed: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let bits = 64 - (n - 1).leading_zeros();
    let half = bits.div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut x = i;
    loop {
        let mut l = (x >> half) & mask;
        let mut r = x & mask;
        for round in 0..4u64 {
            let f = r
                .wrapping_add(round)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let f = (f ^ (f >> 29)) & mask;
            let next_l = r;
            r = l ^ f;
            l = next_l;
        }
        x = (l << half) | r;
        if x < n {
            return x;
        }
    }
}

/// Runs one micro-benchmark of `n` operations with `value_len`-byte
/// values. Read benchmarks assume keys `[0, existing)` were loaded.
///
/// # Errors
///
/// Propagates the first engine error.
pub fn run_db_bench(
    engine: &dyn KvEngine,
    kind: BenchKind,
    n: u64,
    existing: u64,
    value_len: usize,
    seed: u64,
) -> Result<BenchResult> {
    let vg = ValueGen::new(value_len);
    let latency = Histogram::new();
    let mut hits = 0u64;
    let mut key_buf = Vec::with_capacity(16);
    let mut val_buf = Vec::with_capacity(value_len);
    let mut uniform = Uniform::new(existing.max(1), seed);

    let start = Instant::now();
    for i in 0..n {
        let t0 = Instant::now();
        match kind {
            BenchKind::FillSeq => {
                KeyGen::key_into(i, &mut key_buf);
                vg.value_into(i, &mut val_buf);
                engine.put(&key_buf, &val_buf)?;
            }
            BenchKind::FillRandom => {
                let k = permuted(i, n, seed);
                KeyGen::key_into(k, &mut key_buf);
                vg.value_into(k, &mut val_buf);
                engine.put(&key_buf, &val_buf)?;
            }
            BenchKind::ReadSeq => {
                KeyGen::key_into(i % existing.max(1), &mut key_buf);
                if engine.get(&key_buf)?.is_some() {
                    hits += 1;
                }
            }
            BenchKind::ReadRandom => {
                KeyGen::key_into(uniform.next_index(), &mut key_buf);
                if engine.get(&key_buf)?.is_some() {
                    hits += 1;
                }
            }
            BenchKind::Overwrite => {
                let k = uniform.next_index();
                KeyGen::key_into(k, &mut key_buf);
                vg.value_into(k ^ i, &mut val_buf);
                engine.put(&key_buf, &val_buf)?;
            }
            BenchKind::DeleteRandom => {
                KeyGen::key_into(uniform.next_index(), &mut key_buf);
                engine.delete(&key_buf)?;
            }
            BenchKind::SeekRandom => {
                KeyGen::key_into(uniform.next_index(), &mut key_buf);
                let run = engine.scan(&key_buf, 10)?;
                if !run.is_empty() {
                    hits += 1;
                }
            }
        }
        latency.record(t0.elapsed().as_nanos() as u64);
    }
    Ok(BenchResult {
        kind,
        ops: n,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        latency,
        hits,
    })
}

/// Multi-threaded `fillrandom`: `threads` writers insert `n` unique keys
/// concurrently (thread `t` takes permutation indices `i ≡ t mod threads`,
/// so the union is exactly the `fillrandom` keyset with no duplicates).
/// `elapsed_ns` is wall-clock across the whole storm, which is what
/// `busy_ns` picks for overlapping clients, so `kops()` reports aggregate
/// throughput. `seed` selects the insertion-order permutation, so a run
/// is fully reproducible from `(n, value_len, threads, seed)`.
///
/// # Errors
///
/// Propagates the first engine error from any writer thread.
pub fn run_fill_concurrent(
    engine: &dyn KvEngine,
    n: u64,
    value_len: usize,
    threads: usize,
    seed: u64,
) -> Result<BenchResult> {
    let threads = threads.max(1);
    let latency = Histogram::new();
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let latency = &latency;
                s.spawn(move || -> Result<()> {
                    let vg = ValueGen::new(value_len);
                    let mut key_buf = Vec::with_capacity(16);
                    let mut val_buf = Vec::with_capacity(value_len);
                    let mut i = t as u64;
                    while i < n {
                        let k = permuted(i, n, seed);
                        KeyGen::key_into(k, &mut key_buf);
                        vg.value_into(k, &mut val_buf);
                        let t0 = Instant::now();
                        engine.put(&key_buf, &val_buf)?;
                        latency.record(t0.elapsed().as_nanos() as u64);
                        i += threads as u64;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().unwrap())
    })?;
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    Ok(BenchResult {
        kind: BenchKind::FillRandom,
        ops: n,
        elapsed_ns,
        latency,
        hits: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::{EngineReport, ScanEntry};
    use parking_lot::Mutex;
    use std::collections::BTreeMap;

    /// Minimal in-memory engine for driver tests.
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

    #[test]
    fn fillrandom_writes_every_key_once() {
        let e = MapEngine::default();
        run_db_bench(&e, BenchKind::FillRandom, 500, 0, 32, 1).unwrap();
        assert_eq!(e.map.lock().len(), 500);
        for i in 0..500u64 {
            assert!(
                e.map.lock().contains_key(&KeyGen::key(i)),
                "key {i} missing"
            );
        }
    }

    #[test]
    fn readrandom_hits_loaded_keys() {
        let e = MapEngine::default();
        run_db_bench(&e, BenchKind::FillSeq, 100, 0, 16, 1).unwrap();
        let r = run_db_bench(&e, BenchKind::ReadRandom, 1000, 100, 16, 2).unwrap();
        assert_eq!(r.hits, 1000, "all reads must hit");
        assert!(r.kops() > 0.0);
    }

    #[test]
    fn overwrite_touches_only_existing_keys() {
        let e = MapEngine::default();
        run_db_bench(&e, BenchKind::FillSeq, 100, 0, 16, 1).unwrap();
        run_db_bench(&e, BenchKind::Overwrite, 300, 100, 16, 2).unwrap();
        assert_eq!(e.map.lock().len(), 100, "overwrites must not create keys");
    }

    #[test]
    fn deleterandom_removes_keys() {
        let e = MapEngine::default();
        run_db_bench(&e, BenchKind::FillSeq, 100, 0, 16, 1).unwrap();
        run_db_bench(&e, BenchKind::DeleteRandom, 500, 100, 16, 2).unwrap();
        assert!(e.map.lock().len() < 100, "some keys must be gone");
    }

    #[test]
    fn seekrandom_scans_runs() {
        let e = MapEngine::default();
        run_db_bench(&e, BenchKind::FillSeq, 200, 0, 16, 1).unwrap();
        let r = run_db_bench(&e, BenchKind::SeekRandom, 100, 200, 16, 3).unwrap();
        assert_eq!(r.hits, 100, "every seek inside the keyspace finds a run");
    }

    #[test]
    fn concurrent_fill_writes_every_key_once() {
        let e = MapEngine::default();
        let r = run_fill_concurrent(&e, 1000, 32, 4, 7).unwrap();
        assert_eq!(r.ops, 1000);
        assert_eq!(r.latency.count(), 1000);
        assert_eq!(
            e.map.lock().len(),
            1000,
            "threads must partition the keyset"
        );
        for i in 0..1000u64 {
            assert!(
                e.map.lock().contains_key(&KeyGen::key(i)),
                "key {i} missing"
            );
        }
    }

    #[test]
    fn permutation_is_bijective() {
        for seed in [0u64, 7, u64::MAX] {
            for n in [1u64, 2, 10, 100, 1000] {
                let mut seen = vec![false; n as usize];
                for i in 0..n {
                    let p = permuted(i, n, seed);
                    assert!(p < n);
                    assert!(!seen[p as usize], "collision at {i} (n={n}, seed={seed})");
                    seen[p as usize] = true;
                }
            }
        }
    }

    #[test]
    fn permutation_order_varies_with_seed() {
        let a: Vec<u64> = (0..64).map(|i| permuted(i, 64, 1)).collect();
        let b: Vec<u64> = (0..64).map(|i| permuted(i, 64, 2)).collect();
        assert_ne!(a, b, "different seeds must give different orders");
    }

    #[test]
    fn latency_histogram_populated() {
        let e = MapEngine::default();
        let r = run_db_bench(&e, BenchKind::FillSeq, 50, 0, 64, 1).unwrap();
        assert_eq!(r.latency.count(), 50);
        assert!(r.mib_per_sec(64) > 0.0);
    }
}
