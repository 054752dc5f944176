//! Property-based tests: the skip-list stack behaves like a reference
//! model (a `BTreeMap` keyed by key with the newest version winning) under
//! arbitrary operation sequences, flushes and merges.

use std::collections::BTreeMap;
use std::sync::Arc;

use miodb_common::{OpKind, Stats};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{
    flush::flush_and_swizzle, zero_copy_merge, GrowableSkipList, InsertionMark, MergeOutcome,
    SkipList, SkipListArena,
};
use proptest::prelude::*;

fn dram_pool() -> Arc<PmemPool> {
    PmemPool::new(64 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap()
}

fn nvm_pool() -> Arc<PmemPool> {
    PmemPool::new(
        64 << 20,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k % 512, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
    ]
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

/// Applies ops to a model map: value of Some(v) for puts, None for
/// tombstones.
fn apply_model(model: &mut BTreeMap<u16, Option<Vec<u8>>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                model.insert(*k, Some(v.clone()));
            }
            Op::Delete(k) => {
                model.insert(*k, None);
            }
        }
    }
}

/// The newest version of every key of a merged table, by a level-0 walk
/// (its towers are dead after the merge): `(value, kind, seq)`.
fn newest(list: &SkipList) -> BTreeMap<Vec<u8>, (Vec<u8>, OpKind, u64)> {
    let mut out = BTreeMap::new();
    for e in list.iter() {
        out.entry(e.key).or_insert((e.value, e.kind, e.seq));
    }
    out
}

/// Asserts that `list`'s newest versions are exactly `model`'s.
fn assert_matches(
    list: &SkipList,
    model: &BTreeMap<u16, Option<Vec<u8>>>,
) -> Result<(), TestCaseError> {
    let got = newest(list);
    prop_assert_eq!(got.len(), model.len());
    for (k, expected) in model {
        let (value, kind, _) = got.get(&key_bytes(*k)).expect("merged view lost a key");
        match expected {
            Some(v) => {
                prop_assert_eq!(*kind, OpKind::Put);
                prop_assert_eq!(value, v);
            }
            None => prop_assert_eq!(*kind, OpKind::Delete),
        }
    }
    Ok(())
}

fn fill_arena(pool: &Arc<PmemPool>, ops: &[Op], seq_base: u64) -> SkipListArena {
    let arena = SkipListArena::new(pool.clone(), 8 << 20).unwrap();
    for (i, op) in ops.iter().enumerate() {
        let seq = seq_base + i as u64 + 1;
        match op {
            Op::Put(k, v) => arena.insert(&key_bytes(*k), v, seq, OpKind::Put).unwrap(),
            Op::Delete(k) => arena
                .insert(&key_bytes(*k), b"", seq, OpKind::Delete)
                .unwrap(),
        }
    }
    arena
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An arena lookup always returns the newest version written.
    #[test]
    fn arena_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let pool = dram_pool();
        let arena = fill_arena(&pool, &ops, 0);
        let mut model = BTreeMap::new();
        apply_model(&mut model, &ops);
        for (k, expected) in &model {
            let got = arena.list().get(&key_bytes(*k));
            match expected {
                Some(v) => {
                    let r = got.expect("present in model");
                    prop_assert_eq!(r.kind, OpKind::Put);
                    prop_assert_eq!(&r.value, v);
                }
                None => {
                    let r = got.expect("tombstone must be stored");
                    prop_assert_eq!(r.kind, OpKind::Delete);
                }
            }
        }
    }

    /// Iteration yields keys in sorted order with versions newest-first.
    #[test]
    fn arena_iteration_sorted(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let pool = dram_pool();
        let arena = fill_arena(&pool, &ops, 0);
        let entries: Vec<_> = arena.list().iter().collect();
        prop_assert_eq!(entries.len(), ops.len());
        for w in entries.windows(2) {
            let ord = miodb_common::types::mv_cmp(&w[0].key, w[0].seq, &w[1].key, w[1].seq);
            prop_assert_eq!(ord, std::cmp::Ordering::Less, "entries out of order");
        }
    }

    /// One-piece flush + swizzle preserves every lookup.
    #[test]
    fn flush_preserves_lookups(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let dram = dram_pool();
        let nvm = nvm_pool();
        let arena = fill_arena(&dram, &ops, 0);
        let (list, _) = flush_and_swizzle(&arena, &nvm).unwrap();
        let mut model = BTreeMap::new();
        apply_model(&mut model, &ops);
        for (k, expected) in &model {
            let got = list.get(&key_bytes(*k)).expect("present after flush");
            match expected {
                Some(v) => prop_assert_eq!(&got.value, v),
                None => prop_assert_eq!(got.kind, OpKind::Delete),
            }
        }
        prop_assert_eq!(list.count_nodes(), ops.len());
    }

    /// Zero-copy merge of two flushed tables equals the model of "newer
    /// batch overwrites older batch".
    #[test]
    fn merge_matches_model(
        old_ops in proptest::collection::vec(op_strategy(), 1..120),
        new_ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let dram = dram_pool();
        let nvm = nvm_pool();
        let old_arena = fill_arena(&dram, &old_ops, 0);
        let new_arena = fill_arena(&dram, &new_ops, old_ops.len() as u64);
        let (old_list, _) = flush_and_swizzle(&old_arena, &nvm).unwrap();
        let (new_list, _) = flush_and_swizzle(&new_arena, &nvm).unwrap();

        let mark = InsertionMark::alloc(&nvm).unwrap();
        let out = zero_copy_merge(
            &nvm,
            new_list.head(),
            old_list.head(),
            &mark,
            miodb_skiplist::merge::MergeLimits::none(),
        );
        prop_assert!(matches!(out, MergeOutcome::Complete(_)));

        let mut model = BTreeMap::new();
        apply_model(&mut model, &old_ops);
        apply_model(&mut model, &new_ops);

        assert_matches(&old_list, &model)?;
        // No oldtable version of a key the newtable holds survives the
        // merge; older versions may (they are collapsed later, by
        // lazy-copy): the newtable's inside a run, the oldtable's of keys
        // the newtable lacks.
        let nodes = old_list.count_nodes();
        prop_assert!(nodes >= model.len());
        prop_assert!(nodes <= old_ops.len() + new_ops.len());
        let new_seq0 = old_ops.len() as u64;
        let new_keys: std::collections::BTreeSet<Vec<u8>> = new_ops
            .iter()
            .map(|op| match op {
                Op::Put(k, _) | Op::Delete(k) => key_bytes(*k),
            })
            .collect();
        for e in old_list.iter() {
            prop_assert!(
                e.seq > new_seq0 || !new_keys.contains(&e.key),
                "a superseded oldtable version survived"
            );
        }
        prop_assert!(new_list.is_empty());
    }

    /// A zero-copy merge abandoned at an arbitrary store (crash)
    /// and then resumed must converge to exactly the model state.
    #[test]
    fn merge_crash_resume_matches_model(
        old_ops in proptest::collection::vec(op_strategy(), 1..60),
        new_ops in proptest::collection::vec(op_strategy(), 1..60),
        crash_at in 1u64..400,
    ) {
        let dram = dram_pool();
        let nvm = nvm_pool();
        let old_arena = fill_arena(&dram, &old_ops, 0);
        let new_arena = fill_arena(&dram, &new_ops, old_ops.len() as u64);
        let (old_list, _) = flush_and_swizzle(&old_arena, &nvm).unwrap();
        let (new_list, _) = flush_and_swizzle(&new_arena, &nvm).unwrap();
        let mark = InsertionMark::alloc(&nvm).unwrap();

        let out = zero_copy_merge(
            &nvm,
            new_list.head(),
            old_list.head(),
            &mark,
            miodb_skiplist::merge::MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(crash_at),
            },
        );
        if !out.is_complete() {
            // "Restart" and resume with no limits.
            let out2 = zero_copy_merge(
                &nvm,
                new_list.head(),
                old_list.head(),
                &mark,
                miodb_skiplist::merge::MergeLimits::none(),
            );
            prop_assert!(matches!(out2, MergeOutcome::Complete(_)));
        }

        let mut model = BTreeMap::new();
        apply_model(&mut model, &old_ops);
        apply_model(&mut model, &new_ops);
        assert_matches(&old_list, &model)?;
        prop_assert!(new_list.is_empty());
        prop_assert!(mark.load().is_none());
    }

    /// The repository takes a versioned stream as lazy-copy runs — the
    /// stream cut into tables of `cut` ops, each drained as its newest op
    /// per key, in key order, planned against the repository's level-0
    /// walk — and ends up with exactly the live set of the model (no
    /// tombstones, one version per key).
    #[test]
    fn repository_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        cut in 1usize..24,
    ) {
        let nvm = nvm_pool();
        let repo = GrowableSkipList::new(nvm, 256 * 1024).unwrap();
        for (c, chunk) in ops.chunks(cut).enumerate() {
            let mut table = BTreeMap::new();
            for (i, op) in chunk.iter().enumerate() {
                let seq = (c * cut + i) as u64 + 1;
                let (k, value, kind) = match op {
                    Op::Put(k, v) => (k, v.clone(), OpKind::Put),
                    Op::Delete(k) => (k, Vec::new(), OpKind::Delete),
                };
                table.insert(key_bytes(*k), OwnedEntry { key: key_bytes(*k), value, seq, kind });
            }
            let mut stored = Vec::new();
            repo.list().walk_newest(|k, v| stored.push((k.to_vec(), v)));
            let stored = stored.iter().map(|(k, n)| (k.as_slice(), *n));
            repo.run(table.into_values(), stored, |_, _| {}).unwrap();
        }
        let mut model = BTreeMap::new();
        apply_model(&mut model, &ops);
        let live: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter_map(|(k, v)| v.as_ref().map(|v| (key_bytes(*k), v.clone())))
            .collect();
        let listed: Vec<(Vec<u8>, Vec<u8>)> = repo.list().iter().map(|e| (e.key, e.value)).collect();
        prop_assert_eq!(listed, live);
    }
}
