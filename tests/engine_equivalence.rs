//! Cross-engine equivalence: MioDB and every baseline must produce
//! identical results to a reference model under the same operation
//! sequence — puts, overwrites, deletes, point reads and scans.

use std::collections::BTreeMap;
use std::sync::Arc;

use miodb::baselines::{MatrixKv, MatrixKvOptions, NoveLsm, NoveLsmOptions};
use miodb::lsm::{LsmDb, LsmOptions};
use miodb::pmem::DeviceModel;
use miodb::{KvEngine, MioDb, MioOptions, Stats};

fn engines() -> Vec<Box<dyn KvEngine>> {
    let lsm = LsmOptions {
        table_bytes: 16 * 1024,
        level1_max_bytes: 64 * 1024,
        ..Default::default()
    };
    vec![
        Box::new(MioDb::open(MioOptions::small_for_tests()).unwrap()),
        Box::new(
            NoveLsm::open(
                NoveLsmOptions {
                    memtable_bytes: 32 * 1024,
                    nvm_memtable_bytes: 64 * 1024,
                    lsm: lsm.clone(),
                    table_device: DeviceModel::nvm_unthrottled(),
                    nvm_device: DeviceModel::nvm_unthrottled(),
                    nvm_pool_bytes: 64 << 20,
                    ..NoveLsmOptions::default()
                },
                Arc::new(Stats::new()),
            )
            .unwrap(),
        ),
        Box::new(
            NoveLsm::open(
                NoveLsmOptions {
                    memtable_bytes: 32 * 1024,
                    nvm_memtable_bytes: 64 * 1024,
                    no_sst: true,
                    lsm: lsm.clone(),
                    table_device: DeviceModel::nvm_unthrottled(),
                    nvm_device: DeviceModel::nvm_unthrottled(),
                    nvm_pool_bytes: 64 << 20,
                    name: "NoveLSM-NoSST".to_string(),
                },
                Arc::new(Stats::new()),
            )
            .unwrap(),
        ),
        Box::new(
            MatrixKv::open(
                MatrixKvOptions {
                    memtable_bytes: 32 * 1024,
                    container_bytes: 128 * 1024,
                    lsm: lsm.clone(),
                    table_device: DeviceModel::nvm_unthrottled(),
                    row_device: DeviceModel::nvm_unthrottled(),
                    ..MatrixKvOptions::default()
                },
                Arc::new(Stats::new()),
            )
            .unwrap(),
        ),
        Box::new(
            LsmDb::open(
                miodb::lsm::db::LsmDbOptions {
                    memtable_bytes: 32 * 1024,
                    lsm,
                    table_device: DeviceModel::nvm_unthrottled(),
                    wal_device: DeviceModel::nvm_unthrottled(),
                    name: "LevelDB".to_string(),
                },
                Arc::new(Stats::new()),
            )
            .unwrap(),
        ),
    ]
}

/// Deterministic pseudo-random op stream.
fn op_stream(n: usize) -> Vec<(u8, u32, u32)> {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let op = (state % 10) as u8; // 0..7 put, 8..9 delete
            let key = ((state >> 8) % 400) as u32;
            let vlen = 32 + ((state >> 24) % 700) as u32;
            (op, key, vlen)
        })
        .collect()
}

#[test]
fn all_engines_match_reference_model() {
    let ops = op_stream(6_000);
    for engine in engines() {
        let mut model: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for (i, &(op, key, vlen)) in ops.iter().enumerate() {
            let k = format!("key{key:06}");
            if op < 8 {
                let v = vec![(i % 251) as u8; vlen as usize];
                engine.put(k.as_bytes(), &v).unwrap();
                model.insert(key, v);
            } else {
                engine.delete(k.as_bytes()).unwrap();
                model.remove(&key);
            }
            // Interleave occasional reads mid-stream (during compactions).
            if i % 97 == 0 {
                let probe = (key + 13) % 400;
                let pk = format!("key{probe:06}");
                let got = engine.get(pk.as_bytes()).unwrap();
                assert_eq!(
                    got.as_ref(),
                    model.get(&probe),
                    "{}: mid-stream divergence at op {i} key {probe}",
                    engine.name()
                );
            }
        }
        engine.wait_idle().unwrap();
        // Full verification.
        for key in 0..400u32 {
            let k = format!("key{key:06}");
            let got = engine.get(k.as_bytes()).unwrap();
            assert_eq!(
                got.as_ref(),
                model.get(&key),
                "{}: key {key}",
                engine.name()
            );
        }
        // Scan equivalence over a window.
        let got = engine.scan(b"key000100", 50).unwrap();
        let expected: Vec<(String, Vec<u8>)> = model
            .range(100..)
            .take(50)
            .map(|(k, v)| (format!("key{k:06}"), v.clone()))
            .collect();
        assert_eq!(got.len(), expected.len(), "{}: scan length", engine.name());
        for (g, (ek, ev)) in got.iter().zip(&expected) {
            assert_eq!(&g.key, ek.as_bytes(), "{}: scan key order", engine.name());
            assert_eq!(&g.value, ev, "{}: scan value", engine.name());
        }
    }
}

/// Four threads hammering 16 hot keys must see linearizable histories on
/// every engine, while 2 KB values rotate the MemTable at least 20 times —
/// the rotation, flush thread and MemTable reads the baselines share.
#[test]
fn concurrent_histories_are_linearizable_on_every_engine() {
    use miodb::check::{check_history, run_stress, StressSpec};
    let spec = StressSpec {
        ops_per_thread: 600,
        value_len: 2048,
        ..StressSpec::quick(26)
    };
    for engine in engines() {
        let history = run_stress(engine.as_ref(), &spec);
        assert_eq!(history.len(), 4 * 600, "{}", engine.name());
        let verdict = check_history(&history);
        assert!(verdict.is_linearizable(), "{}: {verdict}", engine.name());
        engine.wait_idle().unwrap();
        let rotations = engine.report().stats.flush_count;
        assert!(
            rotations >= 20,
            "{}: only {rotations} MemTables flushed",
            engine.name()
        );
    }
}

#[test]
fn empty_and_missing_keys() {
    for engine in engines() {
        assert!(
            engine.get(b"never-written").unwrap().is_none(),
            "{}",
            engine.name()
        );
        assert!(
            engine.scan(b"", 10).unwrap().is_empty(),
            "{}",
            engine.name()
        );
        engine.delete(b"never-written").unwrap(); // deleting absent is fine
        assert!(
            engine.get(b"never-written").unwrap().is_none(),
            "{}",
            engine.name()
        );
    }
}

#[test]
fn large_values_round_trip() {
    for engine in engines() {
        let big = vec![0xA5u8; 300 * 1024];
        engine.put(b"jumbo", &big).unwrap();
        assert_eq!(
            engine.get(b"jumbo").unwrap().unwrap(),
            big,
            "{}",
            engine.name()
        );
        engine.wait_idle().unwrap();
        assert_eq!(
            engine.get(b"jumbo").unwrap().unwrap(),
            big,
            "{}",
            engine.name()
        );
    }
}
