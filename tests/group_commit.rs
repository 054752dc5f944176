//! The one write protocol: group formation under contention, leader
//! abort, and accounting on failed commits.
//!
//! Benchmark traffic almost never forms a multi-member group (< 0.1 % of
//! commits), so these tests force one: a replication sink blocks the
//! first commit inside the writer-mutex critical section until the other
//! writers are provably parked on the commit queue.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use miodb::common::fault::{self, points, FaultPolicy};
use miodb::common::ReplicationSink;
use miodb::{Error, KvEngine, MioDb, MioOptions, Result, WriteBatch};

/// A sink whose next `publish` (called under the writer mutex) reports in
/// and then blocks until released, holding every other writer off the
/// mutex for exactly as long as the test wants.
struct Gate {
    armed: AtomicBool,
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl ReplicationSink for Gate {
    fn publish(&self, _bytes: &[u8], _seq_first: u64, _seq_last: u64) {
        if self.armed.swap(false, Ordering::AcqRel) {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }

    fn wait_committed(&self, _seq_last: u64) -> Result<()> {
        Ok(())
    }
}

/// Parks `writers` single-op puts (`{tag}w{i}`) on the commit queue behind
/// a holder commit (`{tag}holder`) that is stopped inside the critical
/// section, runs `before_release` while all of them are queued, then lets
/// the holder go. The writer mutex is taken before a group is sealed, so
/// the queued writers commit as exactly one group. Returns each queued
/// writer's result.
fn commit_one_group(
    db: &Arc<MioDb>,
    tag: &str,
    writers: u64,
    before_release: impl FnOnce(),
) -> Vec<Result<()>> {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    db.set_commit_sink(Some(Arc::new(Gate {
        armed: AtomicBool::new(true),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    })));
    let results = std::thread::scope(|s| {
        let holder = s.spawn(|| db.put(format!("{tag}holder").as_bytes(), b"h"));
        entered_rx.recv().unwrap();
        let handles: Vec<_> = (0..writers)
            .map(|i| s.spawn(move || db.put(format!("{tag}w{i}").as_bytes(), b"v")))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.telemetry().unwrap().commit_queue_depth() < writers {
            assert!(Instant::now() < deadline, "writers never queued");
            std::thread::yield_now();
        }
        before_release();
        release_tx.send(()).unwrap();
        holder.join().unwrap().unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    db.set_commit_sink(None);
    results
}

#[test]
fn queued_writers_commit_as_one_group_with_dense_sequences() {
    let _g = fault::exclusive();
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let writers = 8u64;
    let results = commit_one_group(&db, "g", writers, || {});
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    let groups = db.telemetry().unwrap().write_group_size.snapshot();
    assert_eq!(groups.count(), 2, "holder + one sealed group");
    assert_eq!(groups.max(), writers, "every queued writer rode one group");
    assert_eq!(db.last_sequence(), 1 + writers);
    for i in 0..writers {
        assert_eq!(
            db.get(format!("gw{i}").as_bytes()).unwrap().as_deref(),
            Some(&b"v"[..])
        );
    }
    db.close().unwrap();
}

#[test]
fn leader_abort_fails_every_member_and_the_next_group_commits() {
    let _g = fault::exclusive();
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let writers = 6u64;
    // The holder's append is already through when the fault is armed, so
    // the first hit is the group's one WAL append.
    let results = commit_one_group(&db, "a", writers, || {
        fault::arm(points::WAL_APPEND_PRE_CRC, FaultPolicy::FailOnce(1));
    });
    fault::disarm_all();
    for r in &results {
        let err = r.as_ref().expect_err("member of an aborted group acked");
        assert!(
            matches!(err, Error::Io(_) | Error::Background(_)),
            "untyped abort: {err}"
        );
    }
    for i in 0..writers {
        assert_eq!(db.get(format!("aw{i}").as_bytes()).unwrap(), None);
    }
    assert_eq!(db.last_sequence(), 1, "aborted group consumed sequences");
    assert_eq!(db.telemetry().unwrap().write_group_size.count(), 1);

    let results = commit_one_group(&db, "b", writers, || {});
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    assert_eq!(db.last_sequence(), 1 + 1 + writers);
    assert_eq!(
        db.telemetry().unwrap().write_group_size.snapshot().max(),
        writers
    );
    for i in 0..writers {
        assert!(db.get(format!("bw{i}").as_bytes()).unwrap().is_some());
    }
    db.close().unwrap();
}

/// A commit whose WAL append fails logged nothing, so it must count
/// nothing: no user bytes, no group-size sample, no sequence numbers.
#[test]
fn failed_commits_leave_accounting_untouched() {
    let _g = fault::exclusive();
    let db = MioDb::open(MioOptions::small_for_tests()).unwrap();
    db.put(b"before", b"1").unwrap();
    let observe = || {
        (
            db.stats().snapshot().user_bytes_written,
            db.telemetry().unwrap().write_group_size.count(),
            db.last_sequence(),
        )
    };
    let baseline = observe();
    assert_eq!(baseline, (7, 1, 1));

    fault::arm(points::WAL_APPEND_PRE_CRC, FaultPolicy::FailOnce(1));
    db.put(b"doomed", b"put").unwrap_err();
    assert_eq!(observe(), baseline, "failed put was accounted");

    fault::arm(points::WAL_APPEND_PRE_CRC, FaultPolicy::FailOnce(1));
    let mut batch = WriteBatch::new();
    batch.put(b"doomed-a", b"batch").put(b"doomed-b", b"batch");
    db.write_batch(batch).unwrap_err();
    fault::disarm_all();
    assert_eq!(observe(), baseline, "failed batch was accounted");
    assert_eq!(db.get(b"doomed").unwrap(), None);
    assert_eq!(db.get(b"doomed-a").unwrap(), None);

    // The next commit takes the sequence number the failures did not.
    db.put(b"after", b"22").unwrap();
    assert_eq!(observe(), (7 + 7, 2, 2));
    db.close().unwrap();
}
