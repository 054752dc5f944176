//! WAL-shipping replication end to end: semi-sync visibility on the
//! follower, async convergence, NotLeader redirects and replica reads,
//! snapshot catch-up past log truncation, and kill-the-leader failover
//! under injected connection drops and apply stalls — verified with the
//! per-key linearizability checker over the merged leader+follower
//! history and the durable-prefix oracle (zero acked writes lost).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use miodb::check::{DurableOracle, History, HistoryRecorder};
use miodb::common::fault::{self, points, FaultPolicy};
use miodb::common::proto::{self, FrameDecoder, Opcode, ReplBatch, Request, Response};
use miodb::common::{AckLevel, Error, ReplicationSink};
use miodb::repl::{
    bootstrap_from_leader, engine_snapshot_bytes, vote_rpc, Follower, FollowerOptions,
    FollowerState, Replicator, ReplicatorOptions,
};
use miodb::{
    KvClient, KvEngine, KvServer, MioDb, MioOptions, ReplConfig, RoleState, ServerOptions,
};

fn test_opts(name: &str) -> MioOptions {
    MioOptions {
        name: format!("MioDB-{name}"),
        ..MioOptions::small_for_tests()
    }
}

/// Leader side: engine + replicator (installed as the commit sink) +
/// replicated server with snapshot serving.
fn start_leader(
    name: &str,
    ack: AckLevel,
    retain_bytes: usize,
) -> (KvServer, Arc<MioDb>, Arc<Replicator>) {
    let db = Arc::new(MioDb::open(test_opts(name)).unwrap());
    let replicator = Replicator::new(ReplicatorOptions {
        ack_level: ack,
        semi_sync_timeout: Duration::from_secs(10),
        retain_bytes,
        group_size: 2,
    });
    db.set_commit_sink(Some(replicator.clone() as Arc<dyn ReplicationSink>));
    let snap_db = Arc::clone(&db);
    let server = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(
            Some(Arc::clone(&replicator)),
            Some(Box::new(move || engine_snapshot_bytes(&snap_db))),
            Arc::new(RoleState::new_leader(1)),
            "",
        ),
    )
    .unwrap();
    (server, db, replicator)
}

/// Follower side: fresh engine + apply loop + read-only server that
/// redirects mutations to the leader.
fn start_follower(
    name: &str,
    leader_addr: SocketAddr,
    fopts: FollowerOptions,
) -> (KvServer, Arc<MioDb>, Follower) {
    let db = Arc::new(MioDb::open(test_opts(name)).unwrap());
    let follower = Follower::start(Arc::clone(&db), &leader_addr.to_string(), fopts).unwrap();
    let server = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(
            None,
            None,
            Arc::new(RoleState::new_follower(1, &leader_addr.to_string())),
            "",
        ),
    )
    .unwrap();
    (server, db, follower)
}

/// Waits until the leader has at least one live subscriber (semi-sync
/// writes would otherwise burn their full ack timeout).
fn wait_subscribed(replicator: &Replicator) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while replicator.subscriber_count() == 0 {
        assert!(Instant::now() < deadline, "follower never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn semi_sync_ack_means_follower_visible() {
    let _g = fault::exclusive();
    let (leader, _ldb, replicator) = start_leader("ss-leader", AckLevel::SemiSync, 64 << 20);
    let (fsrv, fdb, follower) = start_follower(
        "ss-follower",
        leader.local_addr(),
        FollowerOptions::default(),
    );
    wait_subscribed(&replicator);

    let mut c = KvClient::connect(leader.local_addr()).unwrap();
    for i in 0..50u32 {
        c.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    // The semi-sync contract: an acked write is already applied on the
    // follower — no settling sleep, read it back immediately.
    let mut fc = KvClient::connect(fsrv.local_addr()).unwrap();
    for i in 0..50u32 {
        assert_eq!(
            fc.get(format!("k{i:03}").as_bytes()).unwrap().as_deref(),
            Some(format!("v{i}").as_bytes()),
            "acked write k{i:03} must be visible on the follower"
        );
    }
    assert!(replicator.max_acked() >= 50);
    assert!(replicator.lag_histogram().count() > 0, "lag was measured");

    follower.stop();
    fsrv.shutdown();
    leader.shutdown();
    fdb.close().unwrap();
}

#[test]
fn async_replication_converges_without_blocking_writers() {
    let _g = fault::exclusive();
    let (leader, _ldb, replicator) = start_leader("as-leader", AckLevel::Async, 64 << 20);
    let (fsrv, fdb, follower) = start_follower(
        "as-follower",
        leader.local_addr(),
        FollowerOptions::default(),
    );

    // Async writers never wait for the follower — even before it
    // subscribes.
    let mut c = KvClient::connect(leader.local_addr()).unwrap();
    let started = Instant::now();
    for i in 0..100u32 {
        c.put(format!("a{i:03}").as_bytes(), b"v").unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "async writes must not block on replication"
    );
    // ... but the follower converges.
    let deadline = Instant::now() + Duration::from_secs(10);
    while replicator.max_acked() < 100 {
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(fdb.get(b"a099").unwrap().as_deref(), Some(&b"v"[..]));

    follower.stop();
    fsrv.shutdown();
    leader.shutdown();
    fdb.close().unwrap();
}

#[test]
fn follower_redirects_mutations_and_serves_replica_reads() {
    let _g = fault::exclusive();
    let (leader, _ldb, replicator) = start_leader("rd-leader", AckLevel::SemiSync, 64 << 20);
    let (fsrv, fdb, follower) = start_follower(
        "rd-follower",
        leader.local_addr(),
        FollowerOptions::default(),
    );
    wait_subscribed(&replicator);

    // A client pointed at the follower: its PUT is refused with a typed
    // NotLeader hint and transparently re-dialed to the leader.
    let mut c = KvClient::connect(fsrv.local_addr()).unwrap();
    c.put(b"routed", b"through-redirect").unwrap();
    assert!(c.counters().redirects >= 1, "redirect must be counted");
    // The write went to the leader and replicated back; a fresh client on
    // the follower serves it as a replica read.
    let mut reader = KvClient::connect(fsrv.local_addr()).unwrap();
    assert_eq!(
        reader.get(b"routed").unwrap().as_deref(),
        Some(&b"through-redirect"[..])
    );

    follower.stop();
    fsrv.shutdown();
    leader.shutdown();
    fdb.close().unwrap();
}

#[test]
fn truncated_log_forces_snapshot_catch_up() {
    let _g = fault::exclusive();
    // Tiny retention: the log truncates long before a cold follower shows
    // up, so streaming from offset 0 is impossible.
    let (leader, ldb, replicator) = start_leader("sn-leader", AckLevel::Async, 1024);
    for i in 0..200u32 {
        ldb.put(format!("s{i:03}").as_bytes(), &[0u8; 64]).unwrap();
    }
    let (start, _last) = replicator.log().bounds();
    assert!(start > 1, "retention must have truncated the log front");

    // Cold catch-up: snapshot fetch + restore + recover, then stream the
    // tail from the recovered offset.
    let fdb = Arc::new(
        bootstrap_from_leader(&leader.local_addr().to_string(), test_opts("sn-follower")).unwrap(),
    );
    assert!(
        fdb.last_sequence() > 0,
        "bootstrap must recover the snapshot's WAL tail"
    );
    let follower = Follower::start(
        Arc::clone(&fdb),
        &leader.local_addr().to_string(),
        FollowerOptions::default(),
    )
    .unwrap();
    wait_subscribed(&replicator);
    // Writes after the snapshot still flow through the stream.
    ldb.put(b"post-snapshot", b"streamed").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if fdb.get(b"post-snapshot").unwrap().as_deref() == Some(&b"streamed"[..]) {
            break;
        }
        assert!(Instant::now() < deadline, "tail never streamed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // And the pre-snapshot data arrived via the image.
    assert_eq!(fdb.get(b"s000").unwrap().as_deref(), Some(&[0u8; 64][..]));

    follower.stop();
    leader.shutdown();
    ldb.close().unwrap();
}

/// The headline failover test: writers hammer a semi-sync leader while
/// injected faults drop the replication stream, stall the follower's
/// apply loop and stall server requests; the leader is then killed, the
/// follower drains and promotes, and clients continue against it.
///
/// Two oracles close the loop:
/// - every write the leader *acked* is present on the promoted follower
///   (durable-prefix: semi-sync acks are replication promises);
/// - the merged leader-phase + follower-phase history is per-key
///   linearizable (ambiguous `MaybeApplied` writes may surface late or
///   never — both are legal).
#[test]
fn kill_the_leader_failover_preserves_acked_writes() {
    let _g = fault::exclusive();
    let (leader, _ldb, replicator) = start_leader("ko-leader", AckLevel::SemiSync, 64 << 20);
    // Fast reconnects: the chaos schedule drops the stream often, and the
    // test's point is surviving the drops, not waiting out the backoff.
    let (fsrv, fdb, follower) = start_follower(
        "ko-follower",
        leader.local_addr(),
        FollowerOptions {
            read_timeout: Duration::from_millis(50),
            reconnect_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            // The chaos schedule starves the stream for long stretches on
            // purpose; leader-death detection is exercised elsewhere.
            leader_dead_timeout: Duration::from_secs(30),
        },
    );
    wait_subscribed(&replicator);

    // Chaos while the leader is alive: the subscriber stream drops ~1/4
    // of its send iterations (forcing resubscribes mid-workload), the
    // follower's apply loop stalls, and server requests stall.
    fault::arm(
        points::REPL_STREAM_DROP,
        FaultPolicy::FailProbability {
            num: 1,
            den: 4,
            seed: 7,
        },
    );
    fault::arm(
        points::REPL_APPLY_STALL,
        FaultPolicy::Latency(Duration::from_millis(2)),
    );
    fault::arm(
        points::SERVER_REQUEST_STALL,
        FaultPolicy::Latency(Duration::from_millis(1)),
    );

    let oracle = DurableOracle::new();
    let recorder = HistoryRecorder::new();
    let leader_addr = leader.local_addr();
    let phase1: Vec<History> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|w| {
                let mut log = recorder.log();
                let oracle = &oracle;
                s.spawn(move || {
                    let mut c = KvClient::connect(leader_addr).unwrap();
                    for i in 0..40u32 {
                        let value = format!("w{w}-i{i}").into_bytes();
                        if i % 2 == 0 {
                            // Shared keyspace: real cross-writer contention,
                            // checked by the linearizability pass. The
                            // durable oracle skips these — its floor model
                            // assumes a single writer per key.
                            let key = format!("fk{}", i % 8).into_bytes();
                            let _ = log.client_put(&mut c, &key, &value);
                        } else {
                            // Private keyspace: single writer per key,
                            // exactly the durable-prefix contract.
                            let key = format!("w{w}k{}", i % 8).into_bytes();
                            let token = oracle.begin_put(&key, &value);
                            if log.client_put(&mut c, &key, &value).is_ok() {
                                oracle.ack(token);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        vec![recorder.take_history()]
    });

    // Kill the leader. Everything acked before this instant must survive
    // the promotion.
    let crash_ns = oracle.now_ns();
    leader.shutdown();

    // Failover: drain whatever the dying leader still had in flight, then
    // lead.
    let applied = follower.promote();
    assert!(applied > 0, "follower applied nothing before promotion");
    fsrv.promote_to_leader();
    assert!(fsrv.is_leader());
    fault::disarm_all();

    // Durable-prefix oracle: zero acked writes lost across promotion.
    oracle
        .verify_engine(fdb.as_ref(), crash_ns)
        .unwrap_or_else(|v| panic!("acked write lost in failover: {v:?}"));

    // Phase 2: clients work against the promoted follower (old clients
    // discover it via the NotLeader redirect in practice; here we dial it
    // directly since the old leader is gone).
    let recorder2 = HistoryRecorder::new();
    let mut log2 = recorder2.log();
    let mut c = KvClient::connect(fsrv.local_addr()).unwrap();
    for i in 0..8u32 {
        let key = format!("fk{i}").into_bytes();
        let _ = log2.client_get(&mut c, &key).unwrap();
        let value = format!("post-{i}").into_bytes();
        log2.client_put(&mut c, &key, &value).unwrap();
        assert_eq!(
            log2.client_get(&mut c, &key).unwrap().as_deref(),
            Some(value.as_slice())
        );
    }
    let phase2 = recorder2.take_history();

    // Merged cross-role history is per-key linearizable.
    let mut phases = phase1;
    phases.push(phase2);
    let merged = History::merge_sequential(phases);
    let verdict = miodb::check::check_history(&merged);
    assert!(
        verdict.is_linearizable(),
        "merged leader+follower history not linearizable: {verdict:?}"
    );

    fsrv.shutdown();
    fdb.close().unwrap();
}

/// A hard apply failure (not just a stall) must never ack: the follower
/// drops the session before applying, reconnects and re-applies, so
/// semi-sync writers just see higher latency, never a lost ack.
#[test]
fn apply_failure_retries_without_losing_acks() {
    let _g = fault::exclusive();
    let (leader, ldb, replicator) = start_leader("af-leader", AckLevel::SemiSync, 64 << 20);
    let (fsrv, fdb, follower) = start_follower(
        "af-follower",
        leader.local_addr(),
        FollowerOptions::default(),
    );
    wait_subscribed(&replicator);

    fault::arm(points::REPL_APPLY_STALL, FaultPolicy::FailOnce(1));
    ldb.put(b"retried", b"survives").unwrap();
    fault::disarm_all();
    assert_eq!(
        fdb.get(b"retried").unwrap().as_deref(),
        Some(&b"survives"[..])
    );

    follower.stop();
    fsrv.shutdown();
    leader.shutdown();
    fdb.close().unwrap();
}

/// Semi-sync with no follower at all: the writer blocks for the ack
/// timeout and surfaces `MaybeApplied` — locally durable, replication
/// unknown — rather than pretending the write is replicated.
#[test]
fn semi_sync_without_follower_is_maybe_applied() {
    let _g = fault::exclusive();
    let db = Arc::new(MioDb::open(test_opts("lonely-leader")).unwrap());
    let replicator = Replicator::new(ReplicatorOptions {
        ack_level: AckLevel::SemiSync,
        semi_sync_timeout: Duration::from_millis(50),
        retain_bytes: 1 << 20,
        group_size: 2,
    });
    db.set_commit_sink(Some(replicator as Arc<dyn ReplicationSink>));
    let err = db.put(b"k", b"v").unwrap_err();
    assert!(matches!(err, Error::MaybeApplied(_)), "got {err}");
    // The write is locally durable regardless.
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    db.set_commit_sink(None);
    db.close().unwrap();
}

/// The record is encoded once and the same bytes are logged and
/// published, so the published stream *is* the commit history: under
/// concurrent puts and batches it decodes to exactly the acknowledged
/// operations with sequence numbers `1..=last_sequence` in publish order,
/// and a crash-recovered copy of the leader (which replays the WAL's
/// copy of those bytes) holds the same key → value map.
#[test]
fn published_stream_is_exactly_the_acknowledged_writes() {
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    use miodb::common::OpKind;
    use miodb::wal::decode_record_bytes;

    #[derive(Default)]
    struct Capture(Mutex<Vec<(Vec<u8>, u64, u64)>>);
    impl ReplicationSink for Capture {
        fn publish(&self, bytes: &[u8], seq_first: u64, seq_last: u64) {
            self.0
                .lock()
                .unwrap()
                .push((bytes.to_vec(), seq_first, seq_last));
        }
        fn wait_committed(&self, _seq_last: u64) -> miodb::Result<()> {
            Ok(())
        }
    }

    let _g = fault::exclusive();
    let opts = test_opts("capture");
    let db = Arc::new(MioDb::open(opts.clone()).unwrap());
    let sink = Arc::new(Capture::default());
    db.set_commit_sink(Some(sink.clone() as Arc<dyn ReplicationSink>));

    // Each thread overwrites and deletes within its own 40 keys, so the
    // final map depends on commit order; returns the ops it was acked.
    type Op = (Vec<u8>, Vec<u8>, OpKind);
    let mut acked: Vec<Op> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let db = &db;
                s.spawn(move || {
                    let mut mine: Vec<Op> = Vec::new();
                    for r in 0..300u32 {
                        let key = |i: u32| format!("t{t}k{:02}", i % 40).into_bytes();
                        let val = format!("{t}:{r}").into_bytes();
                        if (t + r) % 3 == 0 {
                            let mut batch = miodb::WriteBatch::new();
                            batch.put(&key(r), &val).delete(&key(r + 7));
                            batch.put(&key(r + 13), &val);
                            db.write_batch(batch).unwrap();
                            mine.push((key(r), val.clone(), OpKind::Put));
                            mine.push((key(r + 7), Vec::new(), OpKind::Delete));
                            mine.push((key(r + 13), val, OpKind::Put));
                        } else {
                            db.put(&key(r), &val).unwrap();
                            mine.push((key(r), val, OpKind::Put));
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    db.set_commit_sink(None);

    let published = std::mem::take(&mut *sink.0.lock().unwrap());
    let mut stream = Vec::new();
    let mut next = 1u64;
    for (bytes, seq_first, seq_last) in &published {
        assert_eq!(*seq_first, next, "publish ranges must be dense");
        next = seq_last + 1;
        stream.extend_from_slice(bytes);
    }
    assert_eq!(next - 1, db.last_sequence());
    let records = decode_record_bytes(&stream).unwrap();
    let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (1..=db.last_sequence()).collect::<Vec<_>>());

    let mut shipped: Vec<Op> = records
        .iter()
        .map(|r| (r.key.clone(), r.value.clone(), r.kind))
        .collect();
    shipped.sort();
    acked.sort();
    assert_eq!(shipped, acked, "published ops != acknowledged ops");

    let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    for r in &records {
        let value = (r.kind == OpKind::Put).then(|| r.value.clone());
        model.insert(r.key.clone(), value);
    }
    let path = std::env::temp_dir().join(format!("miodb-capture-{}", std::process::id()));
    db.snapshot(&path).unwrap();
    let pool = miodb::pmem::PmemPool::restore_from_file(
        &path,
        opts.nvm_device,
        Arc::new(miodb::Stats::new()),
    )
    .unwrap();
    let recovered = MioDb::recover(pool, opts).unwrap();
    assert_eq!(recovered.last_sequence(), db.last_sequence());
    for (key, value) in &model {
        assert_eq!(&db.get(key).unwrap(), value, "leader disagrees");
        assert_eq!(
            &recovered.get(key).unwrap(),
            value,
            "recovered copy disagrees"
        );
    }
    std::fs::remove_file(&path).ok();
    recovered.close().unwrap();
    db.close().unwrap();
}

// ----- peers that stall half-way through a frame ------------------------
//
// Each call under test runs on its own thread behind a channel watchdog,
// so one that never returns fails its test instead of hanging the suite.

/// Writes `(id, request opcode, response)` frames to `conn`, except that
/// only the first half of the last one goes out: the peer then stalls
/// mid-frame.
fn send_all_but_half_of_last(conn: &mut TcpStream, frames: &[(u32, Opcode, Response)]) {
    let mut wire = Vec::new();
    let mut last_start = 0;
    for (id, op, resp) in frames {
        last_start = wire.len();
        proto::write_response(&mut wire, *id, *op, resp).unwrap();
    }
    let sent = last_start + (wire.len() - last_start) / 2;
    conn.write_all(&wire[..sent]).unwrap();
}

/// A leader that stalls half-way through a `ReplRecords` frame is as dead
/// as a silent one: the follower reaches `LeaderDead` within its
/// `leader_dead_timeout` (the half frame's bytes counting as the last
/// sign of life), and `stop` returns.
#[test]
fn follower_declares_a_leader_stalled_mid_frame_dead() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = mpsc::channel::<()>();
    let fake_leader = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let sub = FrameDecoder::new().read_frame(&mut conn).unwrap().unwrap();
        let hello = Response::ReplSubscribed {
            log_start: 0,
            last: 0,
            epoch: 1,
        };
        let records = Response::ReplRecords {
            epoch: 1,
            batches: vec![ReplBatch {
                seq_first: 1,
                seq_last: 1,
                bytes: vec![0; 4096],
            }],
        };
        send_all_but_half_of_last(
            &mut conn,
            &[
                (sub.id, Opcode::ReplSubscribe, hello),
                (0, Opcode::ReplRecords, records),
            ],
        );
        let _ = held.recv();
    });

    let db = Arc::new(MioDb::open(test_opts("stalled-leader-follower")).unwrap());
    let dead_after = Duration::from_millis(500);
    let fopts = FollowerOptions {
        read_timeout: Duration::from_millis(50),
        leader_dead_timeout: dead_after,
        ..FollowerOptions::default()
    };
    let started = Instant::now();
    let follower = Follower::start(Arc::clone(&db), &addr.to_string(), fopts).unwrap();
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        while !follower.state().is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (state, at) = (follower.state(), started.elapsed());
        follower.stop();
        done.send((state, at)).unwrap();
    });
    let (state, at) = watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("follower never gave up on a leader stalled mid-frame");
    assert_eq!(state, FollowerState::LeaderDead);
    assert!(
        at < dead_after + Duration::from_secs(2),
        "declared dead after {at:?}"
    );
    release.send(()).unwrap();
    fake_leader.join().unwrap();
    db.close().unwrap();
}

/// A slow but live leader: a frame whose bytes arrive steadily, yet over
/// longer than `leader_dead_timeout`, keeps the leader alive, because
/// every byte counts as a sign of life. The follower takes the whole frame
/// and acks it.
#[test]
fn follower_counts_bytes_of_a_slow_frame_as_leader_liveness() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (acked, watchdog) = mpsc::channel();
    let (release, held) = mpsc::channel::<()>();
    let fake_leader = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut decoder = FrameDecoder::new();
        let sub = decoder.read_frame(&mut conn).unwrap().unwrap();
        let hello = Response::ReplSubscribed {
            log_start: 0,
            last: 0,
            epoch: 1,
        };
        let mut wire = Vec::new();
        proto::write_response(&mut wire, sub.id, Opcode::ReplSubscribe, &hello).unwrap();
        conn.write_all(&wire).unwrap();
        // A heartbeat, one byte per 40 ms: ≈ 1.4 s for the frame.
        let heartbeat = Response::ReplRecords {
            epoch: 1,
            batches: Vec::new(),
        };
        let mut wire = Vec::new();
        proto::write_response(&mut wire, 0, Opcode::ReplRecords, &heartbeat).unwrap();
        let sent = wire.iter().all(|b| {
            std::thread::sleep(Duration::from_millis(40));
            conn.write_all(std::slice::from_ref(b)).is_ok()
        });
        let ack = decoder.read_frame(&mut conn);
        acked
            .send(sent && matches!(ack, Ok(Some(f)) if f.opcode == Opcode::ReplAck as u8))
            .unwrap();
        let _ = held.recv();
    });

    let db = Arc::new(MioDb::open(test_opts("slow-leader-follower")).unwrap());
    let fopts = FollowerOptions {
        read_timeout: Duration::from_millis(20),
        leader_dead_timeout: Duration::from_millis(300),
        ..FollowerOptions::default()
    };
    let follower = Follower::start(Arc::clone(&db), &addr.to_string(), fopts).unwrap();
    let ok = watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("fake leader never finished its slow frame");
    assert!(ok, "follower dropped a slow leader mid-frame");
    follower.stop();
    release.send(()).unwrap();
    fake_leader.join().unwrap();
    db.close().unwrap();
}

/// A replicated leader's shutdown returns while a subscriber holds half of
/// a `ReplAck` frame: the stream's ack reader stops at its read timeout
/// mid-frame instead of waiting for the rest forever.
#[test]
fn leader_shutdown_returns_while_a_subscriber_holds_half_an_ack() {
    let _g = fault::exclusive();
    let (leader, _ldb, replicator) = start_leader("half-ack-leader", AckLevel::Async, 64 << 20);
    let mut conn = TcpStream::connect(leader.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut wire = Vec::new();
    proto::write_request(&mut wire, 1, &Request::ReplSubscribe { from: 0, epoch: 1 }).unwrap();
    conn.write_all(&wire).unwrap();
    let hello = FrameDecoder::new().read_frame(&mut conn).unwrap().unwrap();
    assert!(matches!(
        Response::decode(hello.opcode, &hello.body).unwrap(),
        Response::ReplSubscribed { .. }
    ));
    wait_subscribed(&replicator);
    let mut ack = Vec::new();
    proto::write_request(
        &mut ack,
        0,
        &Request::ReplAck {
            offset: 0,
            epoch: 1,
        },
    )
    .unwrap();
    conn.write_all(&ack[..ack.len() / 2]).unwrap();

    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        leader.shutdown();
        done.send(()).unwrap();
    });
    watchdog
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown never returned past a subscriber's half-sent ack");
    drop(conn);
}

/// `vote_rpc` against a peer that answers with half of a vote frame gives
/// up within three times its timeout.
#[test]
fn vote_rpc_gives_up_on_a_peer_stalled_mid_frame() {
    let _g = fault::exclusive();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let req = FrameDecoder::new().read_frame(&mut conn).unwrap().unwrap();
        let vote = Response::Vote {
            granted: true,
            epoch: 2,
            last_seq: 0,
            leader_live: false,
            leader_hint: String::new(),
        };
        send_all_but_half_of_last(&mut conn, &[(req.id, Opcode::ReplVote, vote)]);
        let _ = held.recv();
    });

    let timeout = Duration::from_millis(200);
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let started = Instant::now();
        let got = vote_rpc(&addr.to_string(), 2, 0, "127.0.0.1:1", timeout);
        done.send((got.map(|s| s.granted), started.elapsed()))
            .unwrap();
    });
    let (got, waited) = watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("vote_rpc never gave up on a half-sent vote");
    assert!(got.is_err(), "{got:?}");
    assert!(waited < 3 * timeout, "vote_rpc took {waited:?}");
    release.send(()).unwrap();
    peer.join().unwrap();
}
