//! Monotonic reads under `mixed`'s shape: two client threads, 50/50
//! get/update over a zipfian (θ = 0.99) key space, on MemTables small
//! enough that flushes, zero-copy merges and lazy copies run under the
//! readers the whole time. Each thread checks every GET with its own
//! `miodb_check::MonotonicReads`: no key is ever read older than a version
//! that thread had acknowledged or read.

use std::sync::atomic::Ordering;

use miodb::{KvEngine, MioDb, MioOptions};
use miodb_check::MonotonicReads;
use miodb_workloads::zipfian::{IndexDistribution, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: u64 = 2;
const RANKS: u64 = 1000;
const OPS: u64 = 60_000;
const VALUE: usize = 120;

/// Key `rank` of writer `owner`: each key has one writer, so its versions
/// ascend in the order their puts are acknowledged.
fn key(rank: u64, owner: u64) -> Vec<u8> {
    format!("user{rank:08}.{owner}").into_bytes()
}

fn value(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v
}

#[test]
fn reads_never_go_back_under_flushes_merges_and_lazy_copies() {
    let db = MioDb::open(MioOptions {
        memtable_bytes: 32 << 10,
        ..MioOptions::small_for_tests()
    })
    .unwrap();
    for rank in 0..RANKS {
        for owner in 0..THREADS {
            db.put(&key(rank, owner), &value(1)).unwrap();
        }
    }
    let merges = || db.stats().zero_copy_compactions.load(Ordering::Relaxed);
    let drains = || db.stats().copy_compactions.load(Ordering::Relaxed);
    let (merges0, drains0) = (merges(), drains());
    std::thread::scope(|s| {
        for me in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                let mut keys = Zipfian::new(RANKS, 7 + me);
                let mut rng = StdRng::seed_from_u64(100 + me);
                let mut check = MonotonicReads::new();
                // The preload was acknowledged before this thread began.
                for rank in 0..RANKS {
                    for owner in 0..THREADS {
                        check.acked((rank, owner), 1);
                    }
                }
                let mut version = 1;
                for _ in 0..OPS {
                    let rank = keys.next_index();
                    if rng.gen_bool(0.5) {
                        version += 1;
                        db.put(&key(rank, me), &value(version)).unwrap();
                        check.acked((rank, me), version);
                    } else {
                        let owner = rng.gen_range(0..THREADS);
                        let got = db.get(&key(rank, owner)).unwrap();
                        let read = got.map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()));
                        if let Err(stale) = check.read((rank, owner), read) {
                            panic!("thread {me}: {stale}");
                        }
                    }
                }
            });
        }
    });
    let (merges, drains) = (merges() - merges0, drains() - drains0);
    assert!(
        merges > 0 && drains > 0,
        "{merges} merges, {drains} lazy copies under the readers"
    );
}
