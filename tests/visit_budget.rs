//! Exact device-access budgets of the two background movers, and of a
//! point lookup through the exact DRAM index of a settled table or of the
//! data repository. These tests count modeled NVM bytes on an unthrottled
//! pool: a count repeats exactly where a timing does not.
//!
//! A zero-copy merge moves runs of newtable keys at level 0, planned from
//! the two tables' DRAM indexes: it reads no NVM, and writes exactly 32
//! bytes a run (three link words and the insertion mark) and 8 a merge
//! (the mark's clear). The walk-fed merge recovery runs instead reads each
//! input node at most once, and writes the same.
//!
//! A lazy-copy run is planned the same way, from the drained table's index
//! and the repository's: it searches nothing, reads only each record's
//! sequence number and value and a stored key's sequence number, and
//! writes exactly its towerless node and one link word an applied record.
//!
//! An indexed lookup searches the index in DRAM (free, like a bloom probe)
//! and finds where the value lives, so a hit reads exactly the value's
//! bytes — no node visit — and a tombstone hit and a miss read nothing.
//! That holds for a flushed table, a merged one, the two tables of a merge
//! in flight and the data repository. Building an index — a settled
//! table's from the flushed MemTable in DRAM or from the two indexes a
//! merge joins, the repository's from the last one and a lazy-copy run's
//! edits — reads no NVM at all.

use std::sync::Arc;

use miodb::common::OpKind;
use miodb::core::table::{IndexHit, TableIndex};
use miodb::pmem::{DeviceModel, PmemPool};
use miodb::skiplist::iter::OwnedEntry;
use miodb::skiplist::merge::MergeLimits;
use miodb::skiplist::{
    node_size_upper, one_piece_flush, swizzle, zero_copy_merge, GrowableSkipList, InsertionMark,
    RunMerge, SkipList, SkipListArena,
};
use miodb::Stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Modeled bytes of one node visit.
const VISIT: u64 = 32;
const KLEN: u64 = 16;
const VLEN: u64 = 8;
/// Bytes a lazy-copy run writes per applied record: its towerless node
/// (header, one link word, key and value) and one link store.
const APPLIED: u64 = 24 + 8 + KLEN + VLEN + 8;

fn key(k: u64) -> [u8; KLEN as usize] {
    let mut out = [0u8; KLEN as usize];
    out.copy_from_slice(format!("{k:016x}").as_bytes());
    out
}

fn pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(
        bytes,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap()
}

/// A table of `keys` built in `pool`.
fn table(pool: &Arc<PmemPool>, keys: &[u64], seq0: u64) -> SkipListArena {
    let cap = node_size_upper(0, 0) as usize + keys.len() * 80 + (64 << 10);
    let t = SkipListArena::new(pool.clone(), cap).unwrap();
    for (i, &k) in keys.iter().enumerate() {
        t.insert(&key(k), &[7u8; VLEN as usize], seq0 + i as u64, OpKind::Put)
            .unwrap();
    }
    t
}

/// The runs a merge of `new` keys into `old` keys moves: maximal
/// sequences of newtable keys with no oldtable key that survives (one the
/// newtable does not hold) between them.
fn runs_of(new: &[u64], old: &[u64]) -> u64 {
    let new: std::collections::BTreeSet<u64> = new.iter().copied().collect();
    let mut all: Vec<(u64, bool)> = new.iter().map(|&k| (k, true)).collect();
    all.extend(old.iter().filter(|k| !new.contains(k)).map(|&k| (k, false)));
    all.sort_unstable();
    all.dedup();
    let starts = all.windows(2).filter(|w| w[1].1 && !w[0].1).count();
    starts as u64 + u64::from(all.first().is_some_and(|f| f.1))
}

/// Merges a table of `new` into a table of `old`, fed from their DRAM
/// indexes as the engine merges. Asserts that it reads no NVM, and writes
/// exactly 32 bytes a run and 8 a merge. Returns the runs.
fn index_fed_merge(new: &[u64], old: &[u64]) -> u64 {
    let p = pool(((new.len() + old.len()) * 80 + (1 << 20)).next_power_of_two());
    let (old_t, new_t) = (table(&p, old, 1), table(&p, new, 1 << 32));
    let old_index = TableIndex::walk(&old_t.list());
    let new_index = TableIndex::walk(&new_t.list());
    let mark = InsertionMark::alloc(&p).unwrap();
    let before = p.stats().snapshot();
    let mut merge = RunMerge::new(
        &p,
        new_t.head(),
        old_t.head(),
        &mark,
        new_index.nodes(),
        old_index.nodes(),
    );
    let out = merge.run(MergeLimits::none());
    let io = p.stats().snapshot().diff(&before);
    let stats = out.stats();
    assert!(out.is_complete());
    assert_eq!(stats.moved, new_index.len() as u64);
    assert_eq!(stats.runs, runs_of(new, old));
    assert_eq!(io.nvm_bytes_read, 0, "an index-fed merge reads no NVM");
    assert_eq!(io.nvm_bytes_written, 32 * stats.runs + 8);
    assert_eq!(io.nvm_bytes_written, 8 * stats.stores);
    let merged = TableIndex::merged(&new_index, &old_index);
    assert_eq!(TableIndex::walk(&old_t.list()), merged);
    stats.runs
}

#[test]
fn an_index_fed_merge_reads_nothing_and_writes_32_bytes_a_run() {
    let mut r = StdRng::seed_from_u64(1);
    for side in [490usize, 31_000] {
        let new: Vec<u64> = (0..side).map(|_| r.next_u64()).collect();
        let old: Vec<u64> = (0..side).map(|_| r.next_u64()).collect();
        let runs = index_fed_merge(&new, &old);
        println!(
            "merge {side} + {side}: {runs} runs, {:.2} keys a run, {:.2} B a moved key",
            side as f64 / runs as f64,
            (32 * runs + 8) as f64 / side as f64
        );
    }
    // Full overlap: one run supersedes the whole oldtable.
    let keys: Vec<u64> = (0..4_000).map(|_| r.next_u64()).collect();
    assert_eq!(index_fed_merge(&keys, &keys), 1);
}

#[test]
fn a_merge_of_a_newtable_wholly_above_is_one_run() {
    let mut r = StdRng::seed_from_u64(2);
    let old: Vec<u64> = (0..4_000).map(|_| r.next_u64() >> 1).collect();
    let new: Vec<u64> = (0..4_000).map(|_| r.next_u64() | 1 << 63).collect();
    assert_eq!(index_fed_merge(&new, &old), 1);
}

#[test]
fn a_merge_of_a_small_table_into_a_large_one_moves_about_a_run_a_key() {
    // 490 keys spread over 31 000: nearly every key is a run of its own,
    // 32 B each, found with no NVM read.
    let mut r = StdRng::seed_from_u64(3);
    let new: Vec<u64> = (0..490).map(|_| r.next_u64()).collect();
    let old: Vec<u64> = (0..31_000).map(|_| r.next_u64()).collect();
    let runs = index_fed_merge(&new, &old);
    println!("merge 490 into 31000: {runs} runs");
    assert!(runs > 470, "{runs} runs");
}

#[test]
fn a_walk_fed_merge_reads_each_input_node_at_most_once() {
    // In-table duplicates on both sides. The walk-fed merge, recovery's,
    // writes what the index-fed one writes, and reads each node at most
    // once.
    let mut r = StdRng::seed_from_u64(5);
    let mut draw = || -> Vec<u64> { (0..4_000).map(|_| r.next_u64() % 6_000).collect() };
    let (new, old) = (draw(), draw());
    let p = pool(4 << 20);
    let (old_t, new_t) = (table(&p, &old, 1), table(&p, &new, 1 << 32));
    let nodes = (new_t.list().count_nodes() + old_t.list().count_nodes()) as u64;
    let mark = InsertionMark::alloc(&p).unwrap();
    let before = p.stats().snapshot();
    let out = zero_copy_merge(&p, new_t.head(), old_t.head(), &mark, MergeLimits::none());
    let io = p.stats().snapshot().diff(&before);
    let stats = out.stats();
    assert!(out.is_complete());
    assert_eq!(stats.runs, runs_of(&new, &old));
    assert_eq!(io.nvm_bytes_written, 32 * stats.runs + 8);
    assert!(
        io.nvm_bytes_read <= VISIT * nodes,
        "{} B read for {nodes} nodes",
        io.nvm_bytes_read
    );
    println!(
        "walk-fed merge: {:.3} visits per input node",
        io.nvm_bytes_read as f64 / (VISIT * nodes) as f64
    );
}

#[test]
fn lazy_copy_run_reads_few_nodes_per_applied_record() {
    // Seven flushed tables of 62 000 new keys, and from the second on
    // 6 200 stored keys rewritten, drained as seven lazy copies drain
    // them; the last lands in a repository of 372 000. Each run is planned
    // from the repository's index and reads its records through the
    // table's, so it visits no node: it reads each record's sequence
    // number and value and, for a stored key, the old node's sequence
    // number. It writes, per applied record, the node (header, one link
    // word, key and value) and one 8-byte link store.
    const RUN: usize = 62_000;
    const RUNS: usize = 7;
    let stats = Arc::new(Stats::new());
    let dram = PmemPool::new(48 << 20, DeviceModel::dram(), stats.clone()).unwrap();
    let nvm = PmemPool::new(192 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
    let repo = GrowableSkipList::new(nvm.clone(), 48 << 20).unwrap();
    let mut r = StdRng::seed_from_u64(4);
    let mut stored: Vec<u64> = Vec::new();
    let mut index = TableIndex::default();
    for run in 0..RUNS {
        let mut keys: Vec<u64> = (0..RUN).map(|_| r.next_u64()).collect();
        if !stored.is_empty() {
            keys.extend((0..RUN / 10).map(|_| stored[r.gen_range(0..stored.len())]));
        }
        keys.sort_unstable();
        keys.dedup();
        let (list, drained) = flushed(&dram, &nvm, &keys, (run as u64 + 1) << 32);
        let rewritten = keys
            .iter()
            .filter(|k| stored.binary_search(k).is_ok())
            .count() as u64;
        let before = nvm.stats().snapshot();
        let mut edits = TableIndex::default();
        let records = drained.iter_from(&[]).map(|(k, v)| list.entry_at(k, v));
        repo.run(records, index.iter_from(&[]), |k, o| edits.record(k, o))
            .unwrap();
        let io = nvm.stats().snapshot().diff(&before);
        index = index.edited(&edits);
        let n = keys.len() as u64;
        assert_eq!(
            io.nvm_bytes_read,
            n * (8 + VLEN) + 8 * rewritten,
            "run {run}: no node visit"
        );
        assert_eq!(io.nvm_bytes_written, n * APPLIED, "run {run}");
        stored.extend(&keys);
        stored.sort_unstable();
        stored.dedup();
        assert_eq!(index.len(), stored.len());
    }
    assert_eq!(index, TableIndex::walk(&repo.list()));
}

/// Modeled NVM bytes `lookup` reads per key of `keys`, each of which it
/// finds.
fn bytes_per_hit(p: &PmemPool, keys: &[u64], lookup: impl Fn(&[u8]) -> bool) -> f64 {
    let before = p.stats().snapshot();
    for &k in keys {
        assert!(lookup(&key(k)));
    }
    let io = p.stats().snapshot().diff(&before);
    io.nvm_bytes_read as f64 / keys.len() as f64
}

/// Modeled NVM bytes `lookup` reads over `keys`, each of which it misses.
fn bytes_per_miss(p: &PmemPool, keys: &[u64], lookup: impl Fn(&[u8]) -> Option<IndexHit>) -> u64 {
    let before = p.stats().snapshot();
    for &k in keys {
        assert!(lookup(&key(k)).is_none());
    }
    p.stats().snapshot().diff(&before).nvm_bytes_read
}

/// Whether `hit` is the put of a value of `VLEN` bytes.
fn is_value(hit: Option<IndexHit>) -> bool {
    hit.is_some_and(|h| h.kind == OpKind::Put && h.value.len() == VLEN as usize)
}

#[test]
fn a_repository_get_reads_one_node_and_a_miss_none() {
    // A repository like that of `lazy_copy_run_reads_few_nodes_per_applied_record`:
    // six sorted runs of 62 000 as `fill`'s drains deliver them, each run
    // updating a tenth of the stored keys and deleting another tenth, each
    // planned from the index and the index rebuilt after it as the lazy
    // worker rebuilds it. Present keys are even, absent odd. A hit reads
    // its value's bytes and nothing else — no node visit — and a miss and
    // a rebuild read nothing.
    const RUN: usize = 62_000;
    const RUNS: usize = 6;
    let p = pool(64 << 20);
    let repo = GrowableSkipList::new(p.clone(), 48 << 20).unwrap();
    let mut r = StdRng::seed_from_u64(6);
    let mut index = TableIndex::default();
    for run in 0..RUNS {
        let seq = 1 + run as u64;
        let mut entries: Vec<(u64, OpKind)> =
            (0..RUN).map(|_| (r.next_u64() & !1, OpKind::Put)).collect();
        if !index.is_empty() {
            let stored = index.keys().collect::<Vec<_>>();
            for i in 0..RUN / 5 {
                let k = stored[r.gen_range(0..stored.len())];
                let k = u64::from_str_radix(std::str::from_utf8(k).unwrap(), 16).unwrap();
                let kind = [OpKind::Put, OpKind::Delete][i % 2];
                entries.push((k, kind));
            }
        }
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.dedup_by_key(|&mut (k, _)| k);
        let records = entries.iter().map(|&(k, kind)| OwnedEntry {
            key: key(k).to_vec(),
            value: vec![7u8; VLEN as usize],
            seq,
            kind,
        });
        let mut edits = TableIndex::default();
        repo.run(records, index.iter_from(&[]), |k, o| edits.record(k, o))
            .unwrap();
        let before = p.stats().snapshot();
        index = index.edited(&edits);
        let io = p.stats().snapshot().diff(&before);
        assert_eq!(io.nvm_bytes_read, 0, "run {run}: the rebuild reads no NVM");
    }
    let list = repo.list();
    assert_eq!(index, TableIndex::walk(&list));
    let stored: Vec<u64> = list
        .iter()
        .map(|e| u64::from_str_radix(std::str::from_utf8(&e.key).unwrap(), 16).unwrap())
        .collect();
    let probes: Vec<u64> = (0..2_000)
        .map(|_| stored[r.gen_range(0..stored.len())])
        .collect();
    let hit = bytes_per_hit(&p, &probes, |k| is_value(index.get(&list, k)));
    assert_eq!(hit, VLEN as f64, "a repository hit reads its value only");
    let absent: Vec<u64> = (0..2_000).map(|_| r.next_u64() | 1).collect();
    assert_eq!(bytes_per_miss(&p, &absent, |k| index.get(&list, k)), 0);
}

/// A table of `keys` flushed as the engine flushes one: inserted into a
/// MemTable arena in `dram`, copied into `nvm` in one piece and swizzled,
/// and indexed from the MemTable. Asserts that the index read no NVM.
fn flushed(
    dram: &Arc<PmemPool>,
    nvm: &Arc<PmemPool>,
    keys: &[u64],
    seq0: u64,
) -> (SkipList, TableIndex) {
    let mem = table(dram, keys, seq0);
    let copy = one_piece_flush(&mem, nvm).unwrap();
    swizzle(nvm, &copy);
    let before = nvm.stats().snapshot();
    let index = TableIndex::flushed(&mem.list(), copy.delta);
    assert_eq!(nvm.stats().snapshot().diff(&before).nvm_bytes_read, 0);
    (SkipList::from_raw(nvm.clone(), copy.head), index)
}

#[test]
fn an_indexed_get_reads_one_node_and_an_indexed_miss_none() {
    // Two tables the size of the deepest of the `read` workload, flushed,
    // read as a merging pair half way through their merge, and merged, as
    // the engine does; present keys are even, absent odd. Every hit reads
    // its value's bytes and nothing else — no node visit — and every miss
    // and every index build reads nothing.
    const N: usize = 31_000;
    let stats = Arc::new(Stats::new());
    let dram = PmemPool::new(16 << 20, DeviceModel::dram(), stats.clone()).unwrap();
    let nvm = PmemPool::new(16 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
    let mut r = StdRng::seed_from_u64(7);
    let mut draw = || -> Vec<u64> { (0..N).map(|_| r.next_u64() & !1).collect() };
    let (old_keys, new_keys) = (draw(), draw());
    let (old_list, old_index) = flushed(&dram, &nvm, &old_keys, 1);
    let (new_list, new_index) = flushed(&dram, &nvm, &new_keys, 1 << 32);
    let absent: Vec<u64> = (0..2_000).map(|_| r.next_u64() | 1).collect();

    let probes: Vec<u64> = (0..2_000).map(|_| old_keys[r.gen_range(0..N)]).collect();
    let hit = bytes_per_hit(&nvm, &probes, |k| is_value(old_index.get(&old_list, k)));
    assert_eq!(hit, VLEN as f64, "a flushed table's indexed hit");
    assert_eq!(
        bytes_per_miss(&nvm, &absent, |k| old_index.get(&old_list, k)),
        0
    );

    // The merging pair, paused after half the newtable moved: a GET probes
    // the newtable's index, then the oldtable's.
    let pair = |k: &[u8]| {
        new_index
            .get(&new_list, k)
            .or_else(|| old_index.get(&old_list, k))
    };
    let mark = InsertionMark::alloc(&nvm).unwrap();
    let mut merge = RunMerge::new(
        &nvm,
        new_list.head(),
        old_list.head(),
        &mark,
        new_index.nodes(),
        old_index.nodes(),
    );
    let part = MergeLimits {
        max_steps: Some(N / 4),
        abandon_after_link_writes: None,
    };
    let out = merge.run(part);
    assert!(!out.is_complete() && out.stats().moved > 0);
    let probes: Vec<u64> = (0..2_000)
        .map(|i| [&old_keys, &new_keys][i % 2][r.gen_range(0..N)])
        .collect();
    let hit = bytes_per_hit(&nvm, &probes, |k| is_value(pair(k)));
    assert_eq!(hit, VLEN as f64, "a merging pair's indexed hit");
    assert_eq!(bytes_per_miss(&nvm, &absent, pair), 0);

    assert!(merge.run(MergeLimits::none()).is_complete());
    let before = nvm.stats().snapshot();
    let merged = TableIndex::merged(&new_index, &old_index);
    assert_eq!(nvm.stats().snapshot().diff(&before).nvm_bytes_read, 0);
    assert_eq!(merged.len(), 2 * N);

    let hit = bytes_per_hit(&nvm, &probes, |k| is_value(merged.get(&old_list, k)));
    assert_eq!(hit, VLEN as f64, "a merged table's indexed hit");
    assert_eq!(
        bytes_per_miss(&nvm, &absent, |k| merged.get(&old_list, k)),
        0
    );
}

#[test]
fn an_indexed_tombstone_hit_reads_nothing() {
    // A flushed table of tombstones over puts: the index answers each key
    // with its tombstone, from DRAM alone.
    let stats = Arc::new(Stats::new());
    let dram = PmemPool::new(4 << 20, DeviceModel::dram(), stats.clone()).unwrap();
    let nvm = PmemPool::new(4 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
    let mem = SkipListArena::new(dram, 1 << 20).unwrap();
    for k in 0..1_000u64 {
        mem.insert(&key(k), &[7u8; VLEN as usize], 1, OpKind::Put)
            .unwrap();
        mem.insert(&key(k), &[], 2, OpKind::Delete).unwrap();
    }
    let copy = one_piece_flush(&mem, &nvm).unwrap();
    swizzle(&nvm, &copy);
    let index = TableIndex::flushed(&mem.list(), copy.delta);
    let list = SkipList::from_raw(nvm.clone(), copy.head);
    let keys: Vec<u64> = (0..1_000).collect();
    let tombstone = |k: &[u8]| {
        index
            .get(&list, k)
            .is_some_and(|h| h.kind == OpKind::Delete)
    };
    assert_eq!(bytes_per_hit(&nvm, &keys, tombstone), 0.0);
}
