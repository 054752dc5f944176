//! Crash-consistency integration tests (paper §4.7): snapshot the NVM
//! pool at adversarial instants, restore into a fresh "process lifetime",
//! recover, and verify durability of everything written before the crash.

use std::sync::Arc;

use miodb::pmem::PmemPool;
use miodb::{KvEngine, MioDb, MioOptions, Stats};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("miodb-it-{}-{name}", std::process::id()))
}

fn value_for(i: u32) -> Vec<u8> {
    format!("value-{i}-{}", "x".repeat((i % 200) as usize)).into_bytes()
}

fn recover_from(path: &std::path::Path, opts: &MioOptions) -> MioDb {
    let pool = PmemPool::restore_from_file(path, opts.nvm_device, Arc::new(Stats::new())).unwrap();
    MioDb::recover(pool, opts.clone()).unwrap()
}

#[test]
fn crash_after_quiescence_loses_nothing() {
    let opts = MioOptions::small_for_tests();
    let path = tmp("quiet");
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..2_000u32 {
            db.put(format!("key{i:06}").as_bytes(), &value_for(i))
                .unwrap();
        }
        db.wait_idle().unwrap();
        db.snapshot(&path).unwrap();
    }
    let db = recover_from(&path, &opts);
    for i in 0..2_000u32 {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
            value_for(i),
            "key{i:06}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_mid_load_replays_wal() {
    let opts = MioOptions::small_for_tests();
    let path = tmp("midload");
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..3_000u32 {
            db.put(format!("key{i:06}").as_bytes(), &value_for(i))
                .unwrap();
        }
        // No wait_idle: flushes and merges are in full flight.
        db.snapshot(&path).unwrap();
    }
    let db = recover_from(&path, &opts);
    for i in (0..3_000u32).step_by(7) {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
            value_for(i),
            "key{i:06} lost in crash"
        );
    }
    // The recovered engine keeps compacting and accepting writes.
    for i in 3_000..3_500u32 {
        db.put(format!("key{i:06}").as_bytes(), &value_for(i))
            .unwrap();
    }
    db.wait_idle().unwrap();
    assert_eq!(db.get(b"key003400").unwrap().unwrap(), value_for(3_400));
    std::fs::remove_file(&path).ok();
}

#[test]
fn deletes_survive_crash() {
    let opts = MioOptions::small_for_tests();
    let path = tmp("deletes");
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..800u32 {
            db.put(format!("key{i:05}").as_bytes(), &value_for(i))
                .unwrap();
        }
        for i in (0..800u32).step_by(2) {
            db.delete(format!("key{i:05}").as_bytes()).unwrap();
        }
        db.snapshot(&path).unwrap();
    }
    let db = recover_from(&path, &opts);
    for i in 0..800u32 {
        let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
        if i % 2 == 0 {
            assert!(got.is_none(), "deleted key{i:05} resurrected");
        } else {
            assert_eq!(got.unwrap(), value_for(i), "key{i:05} lost");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_crashes_converge() {
    let opts = MioOptions::small_for_tests();
    let path = tmp("repeat");
    // Lifetime 1: initial data, crash mid-flight.
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..1_000u32 {
            db.put(format!("key{i:05}").as_bytes(), b"gen1").unwrap();
        }
        db.snapshot(&path).unwrap();
    }
    // Lifetimes 2..4: recover, overwrite a slice, crash again.
    for gen in 2..5u32 {
        let db = recover_from(&path, &opts);
        for i in (0..1_000u32).step_by(gen as usize) {
            db.put(
                format!("key{i:05}").as_bytes(),
                format!("gen{gen}").as_bytes(),
            )
            .unwrap();
        }
        db.snapshot(&path).unwrap();
    }
    // Final lifetime: every key must hold the newest generation that wrote
    // it.
    let db = recover_from(&path, &opts);
    for i in 0..1_000u32 {
        let got = db.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
        let expected = if i % 4 == 0 {
            "gen4"
        } else if i % 3 == 0 {
            "gen3"
        } else if i % 2 == 0 {
            "gen2"
        } else {
            "gen1"
        };
        assert_eq!(got, expected.as_bytes(), "key{i:05}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn scan_after_recovery_is_sorted_and_complete() {
    let opts = MioOptions::small_for_tests();
    let path = tmp("scan");
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..1_500u32 {
            db.put(format!("key{i:05}").as_bytes(), &value_for(i))
                .unwrap();
        }
        db.snapshot(&path).unwrap();
    }
    let db = recover_from(&path, &opts);
    let out = db.scan(b"key00500", 100).unwrap();
    assert_eq!(out.len(), 100);
    assert_eq!(out[0].key, b"key00500");
    for w in out.windows(2) {
        assert!(w[0].key < w[1].key);
    }
    std::fs::remove_file(&path).ok();
}

/// Bounded, fixed-seed tier-1 variant of `crash_fuzz --concurrent`: the
/// snapshot is taken from this thread while writer threads are mid-churn,
/// so it freezes the pool mid-flush / mid-merge. Quiesced base keys must
/// survive exactly; racing churn keys may be present or absent but never
/// torn.
#[test]
fn concurrent_snapshot_while_writers_run() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const WRITERS: u32 = 2;
    const CHURN_SLOTS: u64 = 300;
    let opts = MioOptions::small_for_tests();
    let path = tmp("concurrent");
    for seed in [3u64, 17] {
        let db = Arc::new(MioDb::open(opts.clone()).unwrap());
        for i in 0..600u32 {
            db.put(format!("base{i:05}").as_bytes(), b"base-value")
                .unwrap();
        }
        db.wait_idle().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let k = format!("churn{t:02}-{:05}", n % CHURN_SLOTS);
                        let v = format!("churnval-{t:02}-{n:08}");
                        db.put(k.as_bytes(), v.as_bytes()).unwrap();
                        n += 1;
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(2 + seed));
        db.snapshot(&path).unwrap();
        stop.store(true, Ordering::Release);
        for w in writers {
            w.join().unwrap();
        }
        db.close().unwrap();
        drop(db);

        let db = recover_from(&path, &opts);
        for i in 0..600u32 {
            assert_eq!(
                db.get(format!("base{i:05}").as_bytes()).unwrap().unwrap(),
                b"base-value",
                "seed {seed}: base{i:05} lost"
            );
        }
        for t in 0..WRITERS {
            for j in 0..CHURN_SLOTS {
                let k = format!("churn{t:02}-{j:05}");
                if let Some(v) = db.get(k.as_bytes()).unwrap() {
                    let prefix = format!("churnval-{t:02}-");
                    assert!(
                        v.starts_with(prefix.as_bytes()) && v.len() == prefix.len() + 8,
                        "seed {seed}: torn churn value for {k}"
                    );
                }
            }
        }
        db.put(b"post-recovery-probe", b"ok").unwrap();
        db.close().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn recovery_rejects_mismatched_level_count() {
    let opts = MioOptions::small_for_tests();
    let path = tmp("levels");
    {
        let db = MioDb::open(opts.clone()).unwrap();
        db.put(b"k", b"v").unwrap();
        db.snapshot(&path).unwrap();
    }
    let pool = PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new())).unwrap();
    let bad = MioOptions {
        elastic_levels: opts.elastic_levels + 2,
        ..opts.clone()
    };
    assert!(
        MioDb::recover(pool, bad).is_err(),
        "level mismatch must be rejected"
    );
    std::fs::remove_file(&path).ok();
}

/// Every CRC-32 the store writes is part of its format: WAL records and
/// manifest slots in the pool, frame trailers on the wire, the shard a key
/// routes to. These values come from the byte-at-a-time table loop the
/// crate used before its current kernels, so a pool or a peer from that
/// build still reads. The inputs reach both kernels: the key and the GET
/// frame go through slicing-by-16, the longer inputs through folding
/// where the CPU has it.
#[test]
fn checksums_match_the_stored_format() {
    use miodb::common::crc32::crc32;
    use miodb::common::proto::write_frame;
    use miodb::common::{OpKind, Request};

    let bytes =
        |n: usize, mul: usize| -> Vec<u8> { (0..n).map(|i| (i * mul + i / 251) as u8).collect() };
    let trailer = |b: &[u8]| u32::from_le_bytes(b[b.len() - 4..].try_into().unwrap());
    let frame = |req: Request| {
        let mut body = Vec::new();
        req.encode_body(&mut body);
        let mut frame = Vec::new();
        write_frame(&mut frame, req.opcode() as u8, 7, &body).unwrap();
        frame
    };
    let key = bytes(16, 31);

    let record = miodb::wal::encode_record(&key, &bytes(1024, 13), 42, OpKind::Put).unwrap();
    assert_eq!(record.len(), 1065);
    assert_eq!(
        u32::from_le_bytes(record[..4].try_into().unwrap()),
        0xF0D3_3858
    );

    let put = frame(Request::Put {
        key: key.clone(),
        value: bytes(256, 7),
    });
    assert_eq!((put.len(), trailer(&put)), (303, 0xF976_56A8));
    let get = frame(Request::Get { key: key.clone() });
    assert_eq!((get.len(), trailer(&get)), (43, 0x5D23_2C9C));

    assert_eq!(crc32(&key), 0xB8B4_11E5);
    assert_eq!(crc32(&bytes(7 * 1024, 5)), 0xDCD0_825F);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
