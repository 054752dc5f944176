//! The data repository's DRAM fences: rebuilt after each lazy-copy run,
//! they must answer every lookup exactly as a descent from the head does,
//! and an idle engine must serve its repository reads through them.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use miodb::common::OpKind;
use miodb::core::table::{Fences, FENCE_LEVEL};
use miodb::pmem::{DeviceModel, PmemPool};
use miodb::skiplist::GrowableSkipList;
use miodb::{KvEngine, MioDb, MioOptions, Stats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One ascending run over keys `0..space`, as a drain delivers it: about
/// half the keys, one in four a tombstone, newer than every earlier run.
/// Against the runs before it, a run inserts, updates (the old node is
/// bypassed) and deletes (the node is unlinked).
fn run(rng: &mut StdRng, space: u32, seq: u64) -> Vec<(Vec<u8>, Vec<u8>, u64, OpKind)> {
    let mut out = Vec::new();
    for k in 0..space {
        match rng.gen_range(0..8u32) {
            0..=3 => continue,
            4 => out.push((
                format!("key{k:05}").into_bytes(),
                Vec::new(),
                seq,
                OpKind::Delete,
            )),
            _ => {
                let value = format!("v{seq}-{k}").into_bytes();
                out.push((format!("key{k:05}").into_bytes(), value, seq, OpKind::Put));
            }
        }
    }
    out
}

/// `Fences::get` equals `GrowableSkipList::get` for every key of the key
/// space, every fence key, and keys just after each.
fn check(seed: u64, runs: usize, space: u32) -> TestCaseResult {
    let pool = PmemPool::new(
        8 << 20,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap();
    let repo = GrowableSkipList::new(pool, 64 * 1024).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for r in 0..runs as u64 {
        for (key, value, seq, kind) in run(&mut rng, space, 1 + r) {
            repo.apply(&key, &value, seq, kind).unwrap();
        }
        let list = repo.list();
        let fences = Fences::build(&list);
        let mut probes: Vec<Vec<u8>> = (0..=space)
            .map(|k| format!("key{k:05}").into_bytes())
            .collect();
        list.walk_level(FENCE_LEVEL, |k, _| probes.push(k.to_vec()));
        prop_assert_eq!(probes.len() as u32 - space - 1, fences.count() as u32);
        for i in 0..probes.len() {
            let mut after = probes[i].clone();
            after.push(0);
            probes.push(after);
        }
        probes.extend([b"".to_vec(), b"z".to_vec()]);
        for key in &probes {
            prop_assert_eq!(fences.get(&list, key), repo.get(key), "key {:?}", key);
        }
    }
    Ok(())
}

#[test]
fn fences_of_an_empty_or_one_key_repository() {
    for space in [0, 1] {
        check(space as u64, 2, space).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fenced_repository_get_equals_the_head_descent(
        seed in any::<u64>(),
        runs in 1usize..6,
        space in 2u32..600,
    ) {
        check(seed, runs, space)?;
    }
}

/// Every key's value, read through `d`, equals the model; none of the
/// reads falls back from the repository's fences.
fn assert_reads_match(d: &MioDb, model: &BTreeMap<Vec<u8>, Vec<u8>>, space: u32) {
    let fallbacks = d.stats().repo_index_fallbacks.load(Ordering::Relaxed);
    for k in 0..space {
        let key = format!("key{k:06}").into_bytes();
        assert_eq!(d.get(&key).unwrap(), model.get(&key).cloned(), "{k}");
    }
    assert_eq!(
        d.stats().repo_index_fallbacks.load(Ordering::Relaxed),
        fallbacks,
        "an idle engine reads its repository through the fences"
    );
}

#[test]
fn an_idle_engine_reads_its_repository_through_the_fences() {
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
    assert_reads_match(&d, &model, SPACE);

    // Reopened, the repository's fences are built before the first read.
    d.close().unwrap();
    let pool = d.nvm_pool().clone();
    drop(d);
    let r = MioDb::recover(pool, opts).unwrap();
    assert_reads_match(&r, &model, SPACE);
}
