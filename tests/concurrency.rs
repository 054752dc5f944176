//! Concurrency integration tests: lock-free readers and scanners racing
//! the writer and all background compaction threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use miodb::{KvEngine, MioDb, MioOptions};

#[test]
fn readers_never_miss_acknowledged_writes() {
    // The writer publishes a watermark after each put; readers may read any
    // key at or below the watermark and must find it (or a newer value).
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let watermark = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let n = 6_000u64;

    std::thread::scope(|s| {
        {
            let db = db.clone();
            let watermark = watermark.clone();
            let stop = stop.clone();
            s.spawn(move || {
                for i in 1..=n {
                    db.put(format!("key{i:08}").as_bytes(), format!("v{i}").as_bytes())
                        .unwrap();
                    watermark.store(i, Ordering::Release);
                }
                stop.store(true, Ordering::Release);
            });
        }
        for t in 0..3u64 {
            let db = db.clone();
            let watermark = watermark.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut x = 0x9E37 + t;
                let mut checked = 0u64;
                while !stop.load(Ordering::Acquire) || checked < 500 {
                    let hi = watermark.load(Ordering::Acquire);
                    if hi == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let i = 1 + (x % hi);
                    let got = db
                        .get(format!("key{i:08}").as_bytes())
                        .unwrap()
                        .unwrap_or_else(|| panic!("acknowledged key{i:08} invisible (hi={hi})"));
                    assert_eq!(got, format!("v{i}").as_bytes());
                    checked += 1;
                }
            });
        }
    });
}

#[test]
fn scans_race_compactions_without_losing_keys() {
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    // Preload a stable key set.
    for i in 0..1_000u32 {
        db.put(format!("stable{i:05}").as_bytes(), b"base").unwrap();
    }

    std::thread::scope(|s| {
        {
            // Churn writer on a disjoint key range keeps compactions busy.
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    i += 1;
                    db.put(format!("churn{:07}", i % 5_000).as_bytes(), &[7u8; 256])
                        .unwrap();
                }
            });
        }
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                let db = db.clone();
                s.spawn(move || {
                    for round in 0..30 {
                        let start = format!("stable{:05}", (round * 31) % 900);
                        let out = db.scan(start.as_bytes(), 50).unwrap();
                        // Every stable key in range must appear, in order.
                        let stable: Vec<&miodb::ScanEntry> = out
                            .iter()
                            .filter(|e| e.key.starts_with(b"stable"))
                            .collect();
                        for w in stable.windows(2) {
                            assert!(w[0].key < w[1].key, "scan order violated");
                        }
                        if let Some(first) = stable.first() {
                            assert!(first.key.as_slice() >= start.as_bytes());
                        }
                    }
                })
            })
            .collect();
        // Event-based stop: churn runs exactly as long as the scanners are
        // scanning, however fast or slow this machine is.
        for h in scanners {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });

    db.wait_idle().unwrap();
    for i in (0..1_000u32).step_by(83) {
        assert_eq!(
            db.get(format!("stable{i:05}").as_bytes()).unwrap().unwrap(),
            b"base"
        );
    }
}

/// Scans must pin the memory they iterate. Geometry that makes the flush
/// worker and the lazy-copy GC retire memory under nearly every scan: tiny
/// MemTables, two levels, drain on every bottom table, one writer
/// overwriting a small preloaded key set, two full-range scanners. Every
/// scan must return every key, and every entry is checked for shape, so
/// memory freed and re-used under an iterator (a use-after-free: SIGSEGV
/// in release, `pool access out of range` in debug) cannot pass as data.
///
/// Scans take no merge gate — they read each PMTable through its index —
/// so compactors keep pace with the unthrottled writer, and no elastic
/// buffer cap holds it back: nothing but the scans' own `Version`s pins
/// retired arenas.
#[test]
fn scans_survive_reclamation() {
    const KEYS: u64 = 2_000;
    const PUTS: u64 = 60_000;
    const SCAN_ROUNDS: usize = 120;
    const VALUE_LEN: usize = 64;
    let db = Arc::new(
        MioDb::open(MioOptions {
            memtable_bytes: 32 * 1024,
            wal_segment_bytes: 32 * 1024,
            elastic_levels: 2,
            lazy_copy_trigger: 1,
            // Overwrites grow the repository (old versions are bypassed,
            // not reclaimed).
            nvm_pool_bytes: 256 << 20,
            ..MioOptions::small_for_tests()
        })
        .unwrap(),
    );
    let put = |i: u64| {
        let fill = (i / KEYS % 251) as u8;
        db.put(format!("key{:06}", i % KEYS).as_bytes(), &[fill; VALUE_LEN])
            .unwrap();
    };
    // Preloaded, so no scanner finishes its rounds on an empty store.
    (0..KEYS).for_each(put);

    std::thread::scope(|s| {
        s.spawn(|| (KEYS..PUTS).for_each(put));
        for _ in 0..2 {
            let db = db.clone();
            s.spawn(move || {
                for round in 0..SCAN_ROUNDS {
                    let out = db.scan(b"", usize::MAX).unwrap();
                    assert_eq!(out.len() as u64, KEYS, "round {round}: keys lost");
                    for w in out.windows(2) {
                        assert!(w[0].key < w[1].key, "round {round}: order violated");
                    }
                    for e in &out {
                        let key = std::str::from_utf8(&e.key).unwrap_or("<not utf-8>");
                        let number = key.strip_prefix("key").and_then(|n| n.parse::<u64>().ok());
                        assert!(
                            key.len() == 9 && number.is_some_and(|n| n < KEYS),
                            "round {round}: malformed key {key:?}"
                        );
                        assert!(
                            e.value.len() == VALUE_LEN && e.value.iter().all(|&b| b == e.value[0]),
                            "round {round}: malformed value for {key}: {:?}",
                            e.value
                        );
                    }
                }
            });
        }
    });

    db.wait_idle().unwrap();
    assert_eq!(db.scan(b"", usize::MAX).unwrap().len() as u64, KEYS);
    // The bottom level drains every table it gets, so at most one flushed
    // MemTable (waiting in level 0 for a merge partner) is still buffered.
    assert!(
        db.elastic_buffer_bytes() <= 32 * 1024,
        "retired arenas not returned: {} bytes still counted",
        db.elastic_buffer_bytes()
    );
}

/// Every scan checked against a model while one writer drives real
/// flushes, zero-copy merges and lazy copies under two full-range scanners.
/// The writer gives each key versions 1, 2, … in turn — every fifth a
/// delete, the rest a put of a value naming key and version — and records
/// per key the version it started and the one it acknowledged. A scan
/// must return keys in order, each with a put version no older than the
/// one acknowledged before the scan began nor newer than the one started
/// after it ended; and a key it leaves out must have been deleted, or not
/// yet written, within that window. Merges must keep completing while the
/// scanners run: scans take no gate.
#[test]
fn scans_match_a_model_under_merges_and_lazy_copies() {
    use std::collections::BTreeMap;
    const KEYS: usize = 500;
    const ROUNDS: u64 = 60;
    let db = MioDb::open(MioOptions {
        memtable_bytes: 32 * 1024,
        wal_segment_bytes: 32 * 1024,
        elastic_levels: 3,
        lazy_copy_trigger: 2,
        nvm_pool_bytes: 256 << 20,
        ..MioOptions::small_for_tests()
    })
    .unwrap();
    let key = |k: usize| format!("key{k:05}").into_bytes();
    let is_delete = |v: u64| v.is_multiple_of(5);
    let started: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicBool::new(false);
    let merges_before = db.stats().zero_copy_compactions.load(Ordering::Relaxed);
    let mut merges_during = 0;

    std::thread::scope(|s| {
        s.spawn(|| {
            for v in 1..=ROUNDS {
                for k in 0..KEYS {
                    started[k].store(v, Ordering::SeqCst);
                    if is_delete(v) {
                        db.delete(&key(k)).unwrap();
                    } else {
                        db.put(&key(k), format!("{k}@{v}:{}", "x".repeat(40)).as_bytes())
                            .unwrap();
                    }
                    acked[k].store(v, Ordering::SeqCst);
                }
            }
            done.store(true, Ordering::Release);
        });
        let scanner = || {
            let mut scans = 0;
            while !done.load(Ordering::Acquire) || scans == 0 {
                let lo: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                let out = db.scan(b"", usize::MAX).unwrap();
                let hi: Vec<u64> = started.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                let mut model: BTreeMap<Vec<u8>, (u64, u64)> = BTreeMap::new();
                for k in 0..KEYS {
                    model.insert(key(k), (lo[k], hi[k]));
                }
                for w in out.windows(2) {
                    assert!(w[0].key < w[1].key, "scan {scans}: order violated");
                }
                let mut returned = out.iter().peekable();
                for (k, (name, &(lo, hi))) in model.iter().enumerate() {
                    let found = returned.next_if(|e| &e.key == name);
                    match found {
                        Some(e) => {
                            let value = std::str::from_utf8(&e.value).unwrap();
                            let (who, rest) = value.split_once('@').unwrap();
                            let v: u64 = rest.split_once(':').unwrap().0.parse().unwrap();
                            assert_eq!(who.parse::<usize>().unwrap(), k, "scan {scans}");
                            assert!(
                                (lo..=hi).contains(&v) && !is_delete(v),
                                "scan {scans}: key {k} at version {v}, window {lo}..={hi}"
                            );
                        }
                        None => assert!(
                            lo == 0 || (lo..=hi).any(is_delete),
                            "scan {scans}: key {k} missing, window {lo}..={hi}"
                        ),
                    }
                }
                assert!(
                    returned.next().is_none(),
                    "scan {scans}: a key never written"
                );
                scans += 1;
            }
            scans
        };
        let scanners = [s.spawn(scanner), s.spawn(scanner)];
        for h in scanners {
            assert!(h.join().unwrap() > 0);
        }
        merges_during = db.stats().zero_copy_compactions.load(Ordering::Relaxed) - merges_before;
    });
    assert!(merges_during > 0, "no zero-copy merge ran under the scans");
    db.wait_idle().unwrap();
    assert!(db.report().stats.copy_compactions > 0, "no lazy copy ran");
}

#[test]
fn concurrent_ycsb_a_on_miodb() {
    use miodb::workloads::{run_ycsb, YcsbSpec, YcsbWorkload};
    let db = MioDb::open(MioOptions::small_for_tests()).unwrap();
    let spec = YcsbSpec {
        records: 2_000,
        operations: 6_000,
        value_len: 256,
        threads: 4,
        seed: 3,
        record_timeline: false,
        max_scan_len: 20,
    };
    run_ycsb(&db, YcsbWorkload::Load, &spec).unwrap();
    let r = run_ycsb(&db, YcsbWorkload::A, &spec).unwrap();
    assert_eq!(r.ops, 6_000);
    assert!(r.latency.count() == 6_000);
    db.wait_idle().unwrap();
    assert!(db.get(b"k000000000000001").unwrap().is_some());
    let report = db.report();
    assert_eq!(
        report.stats.gets,
        r.read_latency.count() + 1,
        "one extra get above"
    );
}

#[test]
fn overlapping_overwrites_keep_newest_under_concurrency() {
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    // One writer hammers the same small key set (forces heavy multi-version
    // merging); readers verify monotonicity: values never go backwards.
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                for gen in 0..4_000u32 {
                    let key = format!("hot{:02}", gen % 16);
                    db.put(key.as_bytes(), format!("{gen:08}").as_bytes())
                        .unwrap();
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut floor = [0u32; 16];
                while !stop.load(Ordering::Acquire) {
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..16usize {
                        if let Some(v) = db.get(format!("hot{k:02}").as_bytes()).unwrap() {
                            let gen: u32 = std::str::from_utf8(&v).unwrap().parse().unwrap();
                            assert!(
                                gen >= floor[k],
                                "hot{k:02} went backwards: {gen} < {}",
                                floor[k]
                            );
                            floor[k] = gen;
                        }
                    }
                }
            });
        }
    });
}

/// One multi-writer storm: N writer threads push M unique keys each
/// through the write path (readers hammering concurrently); after the
/// storm every key is readable and the sequence space is dense — one
/// number per op, no gaps, no duplicates (`last_sequence == N*M`). The
/// `seed` salts keys and values so repeated runs exercise different
/// flush/compaction alignments. On a lost or wrong read the failure
/// message includes the engine's `debug_locate` dump for the key — which
/// structure actually holds it — so a recurrence is diagnosable from the
/// CI log alone.
fn multi_writer_storm(seed: u64) {
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let threads = 8u64;
    let per = 1200u64;
    let salt = seed % 997;
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..per {
                    let key = format!("s{salt:03}w{t:02}k{i:06}");
                    let val = format!("{t}:{i}:{salt}");
                    db.put(key.as_bytes(), val.as_bytes()).unwrap();
                }
            });
        }
        // Concurrent readers re-probe acknowledged keys while compactions
        // run — the interleaving that historically lost ~1/25 runs was a
        // reader racing a settled→merging table transition.
        for t in 0..threads.min(2) {
            let db = db.clone();
            s.spawn(move || {
                let mut x = seed | 1;
                for _ in 0..4_000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let rt = x % threads;
                    let ri = x % per;
                    let key = format!("s{salt:03}w{rt:02}k{ri:06}");
                    // A concurrent racer can only assert value integrity,
                    // not presence (the write may not have happened yet).
                    if let Some(got) = db.get(key.as_bytes()).unwrap() {
                        assert_eq!(
                            got,
                            format!("{rt}:{ri}:{salt}").as_bytes(),
                            "torn value for {key} (seed={seed}, reader={t})"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(
        db.last_sequence(),
        threads * per,
        "sequence numbers not dense (seed={seed})"
    );
    for t in 0..threads {
        for i in 0..per {
            let key = format!("s{salt:03}w{t:02}k{i:06}");
            let got = db.get(key.as_bytes()).unwrap().unwrap_or_else(|| {
                let located = db.debug_locate(key.as_bytes());
                panic!("{key} lost (seed={seed}); debug_locate: {located:?}")
            });
            assert_eq!(got, format!("{t}:{i}:{salt}").as_bytes(), "seed={seed}");
        }
    }
}

/// Formerly flaky at ~1/25 runs: `get` snapshotted a level's settled
/// tables once, and a compactor popping those tables into `merging`
/// mid-probe left the reader searching relinked lists without the mark
/// protocol. Fixed by the per-level structural version retry in `get`;
/// today every table of a level, a merging pair's included, answers
/// through its exact DRAM index, which no merge step can invalidate.
#[test]
fn multi_writer_stress() {
    multi_writer_storm(0);
}

/// Seeded single-test stress loop for the formerly flaky storm: set
/// `MIODB_STRESS_ROUNDS` (and optionally `MIODB_STRESS_SEED`) to rerun
/// the exact interleaving hunt in-process without rebuilding — e.g.
/// `MIODB_STRESS_ROUNDS=100 cargo test --release multi_writer_stress_seeded`
/// runs 100 storms. Defaults to 2 rounds so the suite stays fast.
#[test]
fn multi_writer_stress_seeded_loop() {
    let rounds: u64 = std::env::var("MIODB_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let seed0: u64 = std::env::var("MIODB_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    for r in 0..rounds {
        multi_writer_storm(seed0.wrapping_add(r));
        if rounds > 4 {
            eprintln!("stress round {}/{rounds} clean", r + 1);
        }
    }
}

/// Batches and single puts interleave across threads; group records keep
/// each batch's sequence numbers consecutive, and the overall space stays
/// dense.
#[test]
fn mixed_batches_and_puts_keep_sequences_dense() {
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let threads = 6u64;
    let rounds = 120u64;
    let batch_len = 8u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                for r in 0..rounds {
                    if t % 2 == 0 {
                        let mut batch = miodb::WriteBatch::new();
                        for j in 0..batch_len {
                            batch.put(
                                format!("b{t}r{r:04}j{j}").as_bytes(),
                                format!("{t}{r}{j}").as_bytes(),
                            );
                        }
                        db.write_batch(batch).unwrap();
                    } else {
                        for j in 0..batch_len {
                            db.put(
                                format!("p{t}r{r:04}j{j}").as_bytes(),
                                format!("{t}{r}{j}").as_bytes(),
                            )
                            .unwrap();
                        }
                    }
                }
            });
        }
    });
    assert_eq!(db.last_sequence(), threads * rounds * batch_len);
    for t in 0..threads {
        let prefix = if t % 2 == 0 { 'b' } else { 'p' };
        for r in 0..rounds {
            for j in 0..batch_len {
                let key = format!("{prefix}{t}r{r:04}j{j}");
                assert_eq!(
                    db.get(key.as_bytes()).unwrap().as_deref(),
                    Some(format!("{t}{r}{j}").as_bytes()),
                    "{key} wrong or missing"
                );
            }
        }
    }
}

/// The seeded stress mix (4 threads hammering 16 hot keys with put/get/
/// delete) must serve linearizable histories: every read explained by the
/// real-time order of acknowledged writes. This is the checker from
/// `miodb-check` running against the real engine — the mutation tests in
/// that crate prove the same checker rejects lost acks and stale reads.
#[test]
fn concurrent_histories_are_linearizable() {
    use miodb::check::{check_history, run_stress, StressSpec};
    for seed in [1u64, 2] {
        let db = MioDb::open(MioOptions::small_for_tests()).unwrap();
        let spec = StressSpec {
            threads: 4,
            ops_per_thread: 250,
            ..StressSpec::quick(seed)
        };
        let history = run_stress(&db, &spec);
        assert_eq!(history.len(), 4 * 250);
        let verdict = check_history(&history);
        assert!(verdict.is_linearizable(), "seed {seed}: {verdict}");
        db.close().unwrap();
    }
}

/// The recording wrapper is transparent: an unmodified workload driver
/// (YCSB A) runs against `RecordingEngine<MioDb>` and the recorded
/// history checks out linearizable.
#[test]
fn recorded_ycsb_history_is_linearizable() {
    use miodb::check::{check_history, RecordingEngine};
    use miodb::workloads::{run_ycsb, YcsbSpec, YcsbWorkload};
    let engine = RecordingEngine::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let spec = YcsbSpec {
        records: 300,
        operations: 2_000,
        value_len: 64,
        threads: 4,
        seed: 11,
        record_timeline: false,
        max_scan_len: 10,
    };
    run_ycsb(&engine, YcsbWorkload::Load, &spec).unwrap();
    run_ycsb(&engine, YcsbWorkload::A, &spec).unwrap();
    let history = engine.take_history();
    assert!(history.len() >= 2_300, "driver ops were not recorded");
    let verdict = check_history(&history);
    assert!(verdict.is_linearizable(), "{verdict}");
}

/// Snapshots taken mid-storm (while groups are in flight) must capture
/// every acknowledged write: acknowledgment happens only after the group's
/// WAL record is durable, and the snapshot quiesces on the writer mutex at
/// a group boundary. Simulates a crash by recovering the snapshot into a
/// fresh engine and checking all writes acknowledged before the snapshot
/// call.
#[test]
fn snapshot_mid_group_loses_no_acknowledged_write() {
    let opts = MioOptions::small_for_tests();
    let path = std::env::temp_dir().join(format!("miodb-midgroup-{}", std::process::id()));
    let db = Arc::new(MioDb::open(opts.clone()).unwrap());
    let threads = 4usize;
    let per = 2_000u64;
    let marks: Vec<Arc<AtomicU64>> = (0..threads).map(|_| Arc::new(AtomicU64::new(0))).collect();

    let mut floors = vec![0u64; threads];
    std::thread::scope(|s| {
        for (t, mark) in marks.iter().enumerate() {
            let db = db.clone();
            let mark = mark.clone();
            s.spawn(move || {
                for i in 1..=per {
                    db.put(
                        format!("c{t}k{i:06}").as_bytes(),
                        format!("{t}-{i}").as_bytes(),
                    )
                    .unwrap();
                    mark.store(i, Ordering::Release);
                }
            });
        }
        // Let the storm develop, then record what has been acknowledged
        // and snapshot while writers keep hammering.
        while marks.iter().any(|m| m.load(Ordering::Acquire) < per / 4) {
            std::thread::yield_now();
        }
        for (t, m) in marks.iter().enumerate() {
            floors[t] = m.load(Ordering::Acquire);
        }
        db.snapshot(&path).unwrap();
    });

    let pool = miodb::pmem::PmemPool::restore_from_file(
        &path,
        opts.nvm_device,
        Arc::new(miodb::Stats::new()),
    )
    .unwrap();
    let rdb = MioDb::recover(pool, opts).unwrap();
    for (t, &floor) in floors.iter().enumerate() {
        assert!(floor > 0);
        for i in 1..=floor {
            let key = format!("c{t}k{i:06}");
            let got = rdb.get(key.as_bytes()).unwrap().unwrap_or_else(|| {
                panic!("acknowledged {key} lost across snapshot (floor={floor})")
            });
            assert_eq!(got, format!("{t}-{i}").as_bytes());
        }
    }
    std::fs::remove_file(&path).ok();
}
