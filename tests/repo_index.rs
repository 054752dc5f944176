//! The data repository's exact DRAM index: each lazy-copy run builds the
//! next index in DRAM from the last one and the run's own edits. After
//! every run, and on a pool restored from a snapshot, it must equal the
//! index walked from the repository in NVM and answer every lookup as that
//! level-0 walk does; an engine must answer from it before and after
//! recovery.

use std::collections::BTreeMap;
use std::sync::Arc;

use miodb::common::OpKind;
use miodb::core::table::{IndexHit, TableIndex};
use miodb::pmem::{DeviceModel, PmemPool};
use miodb::skiplist::iter::OwnedEntry;
use miodb::skiplist::GrowableSkipList;
use miodb::{KvEngine, MioDb, MioOptions, Stats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHUNK: usize = 64 * 1024;

/// One ascending run over keys `0..space`, as a drain delivers it: about
/// half the keys, one in four a tombstone, newer than every earlier run.
/// Against the runs before it, a run inserts, updates (the old node is
/// bypassed) and deletes (the node is unlinked).
fn run(rng: &mut StdRng, space: u32, seq: u64) -> Vec<OwnedEntry> {
    let mut out = Vec::new();
    for k in 0..space {
        let key = format!("key{k:05}").into_bytes();
        let (value, kind) = match rng.gen_range(0..8u32) {
            0..=3 => continue,
            4 => (Vec::new(), OpKind::Delete),
            _ => (format!("v{seq}-{k}").into_bytes(), OpKind::Put),
        };
        out.push(OwnedEntry {
            key,
            value,
            seq,
            kind,
        });
    }
    out
}

/// `index` is the walk of `repo`, and answers as that level-0 walk does
/// for every key of the key space, keys just after each, and keys beyond
/// both ends.
fn assert_index_is_the_walk(
    index: &TableIndex,
    repo: &GrowableSkipList,
    space: u32,
) -> TestCaseResult {
    let list = repo.list();
    prop_assert_eq!(index, &TableIndex::walk(&list));
    let walk: BTreeMap<Vec<u8>, IndexHit> = list
        .iter()
        .map(|e| {
            (
                e.key,
                IndexHit {
                    kind: e.kind,
                    value: e.value,
                },
            )
        })
        .collect();
    prop_assert_eq!(index.len(), walk.len());
    let mut probes: Vec<Vec<u8>> = (0..=space)
        .map(|k| format!("key{k:05}").into_bytes())
        .collect();
    for i in 0..probes.len() {
        let mut after = probes[i].clone();
        after.push(0);
        probes.push(after);
    }
    probes.extend([b"".to_vec(), b"z".to_vec()]);
    for key in &probes {
        prop_assert_eq!(
            index.get(&list, key),
            walk.get(key).cloned(),
            "key {:?}",
            key
        );
    }
    Ok(())
}

/// Runs `runs` lazy-copy runs into a fresh repository, each planned from
/// the index the last one left, building the next as the engine does;
/// checks it after each run, then on the repository rebuilt from a
/// snapshot of the pool.
fn check(seed: u64, runs: usize, space: u32) -> TestCaseResult {
    let pool = PmemPool::new(
        8 << 20,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap();
    let repo = GrowableSkipList::new(pool.clone(), CHUNK).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut index = TableIndex::default();
    for r in 0..runs as u64 {
        let mut edits = TableIndex::default();
        let records = run(&mut rng, space, 1 + r);
        repo.run(records, index.iter_from(&[]), |k, o| edits.record(k, o))
            .unwrap();
        index = index.edited(&edits);
        assert_index_is_the_walk(&index, &repo, space)?;
    }

    let path = std::env::temp_dir().join(format!(
        "miodb-repo-index-{}-{seed:x}-{runs}-{space}.snap",
        std::process::id()
    ));
    pool.snapshot_to_file(&path).unwrap();
    let restored = PmemPool::restore_from_file(
        &path,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    let (head, chunks, cursor, end) = repo.parts();
    let back = GrowableSkipList::from_parts(restored, head, CHUNK, chunks, cursor, end);
    assert_index_is_the_walk(&index, &back, space)
}

#[test]
fn index_of_an_empty_or_one_key_repository() {
    for space in [0, 1] {
        check(space as u64, 2, space).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dram_built_repository_index_equals_the_walk(
        seed in any::<u64>(),
        runs in 1usize..6,
        space in 2u32..600,
    ) {
        check(seed, runs, space)?;
    }
}

/// Every key's value, read through `d`, equals the model.
fn assert_reads_match(d: &MioDb, model: &BTreeMap<Vec<u8>, Vec<u8>>, space: u32) {
    for k in 0..space {
        let key = format!("key{k:06}").into_bytes();
        assert_eq!(d.get(&key).unwrap(), model.get(&key).cloned(), "{k}");
    }
}

#[test]
fn an_idle_engine_reads_its_repository_through_its_index() {
    const SPACE: u32 = 3000;
    let opts = MioOptions::small_for_tests();
    let d = MioDb::open(opts.clone()).unwrap();
    let mut model = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(9);
    for round in 0..4u32 {
        for k in 0..SPACE {
            let key = format!("key{k:06}").into_bytes();
            if rng.gen_range(0..8u32) == 0 {
                d.delete(&key).unwrap();
                model.remove(&key);
            } else {
                let value = vec![round as u8; 200];
                d.put(&key, &value).unwrap();
                model.insert(key, value);
            }
        }
    }
    d.wait_idle().unwrap();
    assert!(d.report().stats.copy_compactions >= 2, "lazy copy ran");
    assert!(
        d.report().dram_bytes.repo_index > 0,
        "the index is published"
    );
    assert_reads_match(&d, &model, SPACE);

    // Reopened, the repository's index is walked before the first read.
    d.close().unwrap();
    let pool = d.nvm_pool().clone();
    drop(d);
    let r = MioDb::recover(pool, opts).unwrap();
    assert!(r.report().dram_bytes.repo_index > 0, "the index is walked");
    assert_reads_match(&r, &model, SPACE);
}
