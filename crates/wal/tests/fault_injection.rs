//! WAL fault-point tests.
//!
//! These live in their own integration binary (not `src/lib.rs` unit tests)
//! because arming a point is process-global: every test here takes
//! [`fault::exclusive`], so they serialize among themselves and never race
//! the unit tests' un-instrumented appends.

use std::sync::Arc;

use miodb_common::fault::{self, points, FaultPolicy};
use miodb_common::{Error, OpKind, Stats};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_wal::{GroupOp, WriteAheadLog};

fn pool() -> Arc<PmemPool> {
    PmemPool::new(
        8 << 20,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap()
}

#[test]
fn pre_crc_fault_leaves_log_clean() {
    let _g = fault::exclusive();
    let p = pool();
    let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
    wal.append(b"before", b"v", 1, OpKind::Put).unwrap();
    fault::arm(points::WAL_APPEND_PRE_CRC, FaultPolicy::FailOnce(1));
    let err = wal.append(b"lost", b"v", 2, OpKind::Put).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "typed error, got {err}");
    // Nothing reached the log, so the next append lands right after the
    // first record and replay sees a clean two-record log.
    wal.append(b"after", b"v", 3, OpKind::Put).unwrap();
    let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].key, b"before");
    assert_eq!(records[1].key, b"after");
    assert_eq!(fault::triggered(points::WAL_APPEND_PRE_CRC), 1);
}

#[test]
fn torn_fault_poisons_log_and_replay_keeps_acknowledged_prefix() {
    let _g = fault::exclusive();
    let p = pool();
    let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
    wal.append(b"acked1", b"v", 1, OpKind::Put).unwrap();
    wal.append(b"acked2", b"v", 2, OpKind::Put).unwrap();
    fault::arm(points::WAL_APPEND_TORN, FaultPolicy::TornWrite);
    let err = wal.append(b"torn", b"victim", 3, OpKind::Put).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "typed error, got {err}");
    assert!(wal.poisoned());
    // The tear is one-shot, but the log stays poisoned: appending past a
    // torn record would silently lose the new write at replay.
    let err = wal.append(b"after", b"v", 4, OpKind::Put).unwrap_err();
    assert!(matches!(err, Error::Io(_)));
    fault::disarm_all();
    assert!(wal.append(b"still-poisoned", b"v", 5, OpKind::Put).is_err());
    // Replay yields exactly the acknowledged prefix — unacknowledged
    // writes are absent, acknowledged ones all present.
    let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].key, b"acked1");
    assert_eq!(records[1].key, b"acked2");
}

#[test]
fn torn_group_append_loses_whole_group_only() {
    let _g = fault::exclusive();
    let p = pool();
    let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
    let put = |key: &'static [u8]| GroupOp {
        key,
        value: b"v",
        kind: OpKind::Put,
    };
    wal.append_group(&[put(b"a1"), put(b"a2")], 1).unwrap();
    fault::arm(points::WAL_APPEND_TORN, FaultPolicy::TornWrite);
    assert!(wal.append_group(&[put(b"b1"), put(b"b2")], 3).is_err());
    fault::disarm_all();
    let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
    let keys: Vec<&[u8]> = records.iter().map(|r| r.key.as_slice()).collect();
    assert_eq!(keys, vec![b"a1".as_slice(), b"a2".as_slice()]);
}

#[test]
fn alloc_fault_surfaces_as_pool_exhausted() {
    let _g = fault::exclusive();
    let p = pool();
    // Small segments force a segment allocation quickly.
    let wal = WriteAheadLog::new(p.clone(), 4096).unwrap();
    fault::arm(points::PMEM_ALLOC, FaultPolicy::FailNth(1));
    let value = vec![7u8; 3000];
    let mut saw_exhausted = false;
    for i in 0..4u64 {
        match wal.append(b"k", &value, i, OpKind::Put) {
            Ok(()) => {}
            Err(Error::PoolExhausted { .. }) => {
                saw_exhausted = true;
                break;
            }
            Err(e) => panic!("expected PoolExhausted, got {e}"),
        }
    }
    assert!(saw_exhausted, "segment growth should hit the alloc fault");
    fault::disarm_all();
    // The log is not poisoned by an alloc failure: appends resume.
    wal.append(b"resume", b"v", 99, OpKind::Put).unwrap();
    let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
    assert_eq!(records.last().unwrap().key, b"resume");
}
