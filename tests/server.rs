//! Integration tests for the sharded network service layer: wire round
//! trips, cross-shard scan merging, visibility of delete/re-put through
//! the server path, durability of acknowledged writes across a simulated
//! server kill, the clean-shutdown guarantee that no acknowledged write
//! relies on WAL replay, and which thread runs a frame: the shard that
//! decoded it, or the worker pool — with responses in request order
//! either way.

mod support;

use std::sync::Arc;

use miodb::pmem::PmemPool;
use miodb::{KvClient, KvEngine, KvServer, MioDb, MioOptions, ServerOptions, ShardRouter, Stats};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("miodb-srv-{}-{name}", std::process::id()))
}

fn test_opts() -> MioOptions {
    MioOptions {
        name: "MioDB-test".to_string(),
        ..MioOptions::small_for_tests()
    }
}

/// Starts a server over `shards` MioDB instances; returns both handles
/// (the router stays accessible for snapshots and close).
fn start_server(shards: usize) -> (KvServer, Arc<ShardRouter<MioDb>>) {
    let router = Arc::new(ShardRouter::open_miodb(&test_opts(), shards).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )
    .unwrap();
    (server, router)
}

fn recover_shard(path: &std::path::Path, opts: &MioOptions) -> MioDb {
    let pool = PmemPool::restore_from_file(path, opts.nvm_device, Arc::new(Stats::new())).unwrap();
    MioDb::recover(pool, opts.clone()).unwrap()
}

#[test]
fn round_trip_and_stats_over_wire() {
    let (server, router) = start_server(2);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    c.put(b"alpha", b"1").unwrap();
    c.put(b"beta", b"2").unwrap();
    assert_eq!(c.get(b"alpha").unwrap().unwrap(), b"1");
    assert_eq!(c.get(b"missing").unwrap(), None);
    c.delete(b"alpha").unwrap();
    assert_eq!(c.get(b"alpha").unwrap(), None);
    c.batch(vec![
        (b"gamma".to_vec(), b"3".to_vec(), miodb::common::OpKind::Put),
        (b"beta".to_vec(), Vec::new(), miodb::common::OpKind::Delete),
    ])
    .unwrap();
    assert_eq!(c.get(b"gamma").unwrap().unwrap(), b"3");
    assert_eq!(c.get(b"beta").unwrap(), None);
    // STATS carries both engine and service families in one scrape, and
    // the router contributes the families a single engine would: merged
    // op latencies, summed per-level gauges and compaction counters.
    let stats = c.stats().unwrap();
    support::assert_well_formed_scrape(&stats);
    for family in [
        "miodb_server_active_connections",
        "miodb_server_request_latency_seconds",
        "miodb_op_latency_seconds",
        "miodb_level_bytes",
        "miodb_compactions_total",
    ] {
        assert!(
            stats.contains(&format!("# TYPE {family} ")),
            "missing family {family} in:\n{stats}"
        );
    }
    // Two puts and a batch put over two shards, counted once each.
    assert!(
        stats.contains("miodb_op_latency_seconds_count{op=\"put\"} 3"),
        "{stats}"
    );
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();

    // A plain (unsharded) engine behind the same server scrapes as well.
    let db = Arc::new(MioDb::open(test_opts()).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )
    .unwrap();
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    c.put(b"alpha", b"1").unwrap();
    let stats = c.stats().unwrap();
    support::assert_well_formed_scrape(&stats);
    assert!(stats.contains("miodb_op_latency_seconds_count{op=\"put\"} 1"));
    c.close().unwrap();
    server.shutdown();
    db.close().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (server, router) = start_server(2);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    let puts: Vec<miodb::common::Request> = (0..100u32)
        .map(|i| miodb::common::Request::Put {
            key: format!("pipe{i:03}").into_bytes(),
            value: format!("v{i}").into_bytes(),
        })
        .collect();
    for resp in c.pipeline(&puts).unwrap() {
        assert_eq!(resp, miodb::common::Response::Ok);
    }
    let gets: Vec<miodb::common::Request> = (0..100u32)
        .map(|i| miodb::common::Request::Get {
            key: format!("pipe{i:03}").into_bytes(),
        })
        .collect();
    let resps = c.pipeline(&gets).unwrap();
    for (i, resp) in resps.iter().enumerate() {
        assert_eq!(
            *resp,
            miodb::common::Response::Value(Some(format!("v{i}").into_bytes())),
            "response {i} out of order"
        );
    }
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

#[test]
fn cross_shard_scan_merges_in_global_order() {
    let (server, router) = start_server(4);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..400u32 {
        c.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    // Keys hash across all four shards; the scan must come back globally
    // sorted and complete regardless.
    {
        let hit: std::collections::HashSet<usize> = (0..400u32)
            .map(|i| router.shard_of(format!("key{i:05}").as_bytes()))
            .collect();
        assert_eq!(hit.len(), 4, "keys must spread across all shards");
    }
    let out = c.scan(b"key00100", 150).unwrap();
    assert_eq!(out.len(), 150);
    for (j, e) in out.iter().enumerate() {
        assert_eq!(e.key, format!("key{:05}", 100 + j).into_bytes());
        assert_eq!(e.value, format!("v{}", 100 + j).into_bytes());
    }
    // Tail scan past the end of the keyspace.
    let tail = c.scan(b"key00390", 100).unwrap();
    assert_eq!(tail.len(), 10);
    assert_eq!(tail.last().unwrap().key, b"key00399");
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

#[test]
fn delete_then_reput_is_visible_through_server() {
    let (server, router) = start_server(3);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    c.put(b"churn", b"first").unwrap();
    c.delete(b"churn").unwrap();
    assert_eq!(c.get(b"churn").unwrap(), None, "tombstone must hide value");
    let scan = c.scan(b"churn", 1).unwrap();
    assert!(
        scan.is_empty() || scan[0].key != b"churn",
        "deleted key must not surface in scans"
    );
    c.put(b"churn", b"second").unwrap();
    assert_eq!(
        c.get(b"churn").unwrap().unwrap(),
        b"second",
        "re-put after delete must be visible"
    );
    let scan = c.scan(b"churn", 1).unwrap();
    assert_eq!(scan.len(), 1);
    assert_eq!(scan[0].key, b"churn");
    assert_eq!(scan[0].value, b"second");
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

#[test]
fn connection_limit_refuses_with_error_frame() {
    let router = Arc::new(ShardRouter::open_miodb(&test_opts(), 1).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn KvEngine>,
        ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let mut c1 = KvClient::connect(server.local_addr()).unwrap();
    c1.put(b"k", b"v").unwrap(); // guarantees c1 is accepted and counted
    let mut c2 = KvClient::connect(server.local_addr()).unwrap();
    let err = c2.get(b"k").expect_err("second connection must be refused");
    assert!(
        err.to_string().contains("connection limit"),
        "unexpected refusal error: {err}"
    );
    assert_eq!(server.telemetry().active_connections(), 1);
    c1.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

/// A frame with an opcode the server does not know gets a typed `Err`
/// response naming the opcode — and the connection stays open, so a
/// client with a newer protocol revision degrades per-request instead of
/// being dropped mid-pipeline.
#[test]
fn unknown_opcode_answers_err_and_keeps_connection() {
    use miodb::common::proto::{self, write_frame, FrameDecoder, Request, Response};
    use std::io::{BufWriter, Write};
    use std::net::TcpStream;

    let router = Arc::new(ShardRouter::open_miodb(&test_opts(), 1).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )
    .unwrap();
    router.put(b"still", b"served").unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut writer = BufWriter::new(&stream);

    // 0x60 is no opcode this protocol revision knows.
    write_frame(&mut writer, 0x60, 1, b"whatever").unwrap();
    writer.flush().unwrap();
    let frame = decoder
        .read_frame(&mut &stream)
        .unwrap()
        .expect("typed reply, not a hangup");
    match Response::decode(frame.opcode, &frame.body).unwrap() {
        Response::Err(msg) => assert!(
            msg.contains("unsupported opcode") && msg.contains("0x60"),
            "error must name the opcode: {msg}"
        ),
        other => panic!("expected Err response, got {other:?}"),
    }

    // The same connection still serves valid requests.
    proto::write_request(
        &mut writer,
        2,
        &Request::Get {
            key: b"still".to_vec(),
        },
    )
    .unwrap();
    writer.flush().unwrap();
    let frame = decoder
        .read_frame(&mut &stream)
        .unwrap()
        .expect("connection must stay open");
    assert_eq!(frame.id, 2);
    match Response::decode(frame.opcode, &frame.body).unwrap() {
        Response::Value(v) => assert_eq!(v.as_deref(), Some(&b"served"[..])),
        other => panic!("expected value, got {other:?}"),
    }
    server.shutdown();
    router.close().unwrap();
}

/// A server that stalls half-way through a response frame: `recv` gives
/// up at its read timeout with `Error::Io`, counts the timeout, and the
/// next operation reconnects. The call runs on its own thread behind a
/// watchdog, so a `recv` that never returns fails the test instead of
/// hanging the suite.
#[test]
fn recv_times_out_on_a_half_sent_response_and_reconnects() {
    use miodb::common::proto::{self, FrameDecoder, Opcode, Request, Response};
    use miodb::{ClientOptions, Error};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = mpsc::channel::<()>();
    // The first connection gets half of its answer and then silence, its
    // socket held open; the second gets a whole answer.
    let peer = std::thread::spawn(move || {
        let mut open = Vec::new();
        for (i, conn) in listener.incoming().take(2).enumerate() {
            let mut conn = conn.unwrap();
            let req = FrameDecoder::new().read_frame(&mut conn).unwrap().unwrap();
            let mut wire = Vec::new();
            let resp = Response::Value(Some(b"v".to_vec()));
            proto::write_response(&mut wire, req.id, Opcode::Get, &resp).unwrap();
            let sent = if i == 0 { wire.len() / 2 } else { wire.len() };
            conn.write_all(&wire[..sent]).unwrap();
            open.push(conn);
        }
        let _ = held.recv();
    });

    let timeout = Duration::from_millis(200);
    let opts = ClientOptions {
        read_timeout: Some(timeout),
        ..ClientOptions::default()
    };
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let mut c = KvClient::connect_with(addr, opts).unwrap();
        c.send(&Request::Get { key: b"k".to_vec() }).unwrap();
        c.flush().unwrap();
        let started = Instant::now();
        let recv = c.recv().map(|_| ());
        let waited = started.elapsed();
        let after_recv = (c.counters(), c.is_connected());
        let next = c.get(b"k");
        done.send((recv, waited, after_recv, next, c.counters()))
            .unwrap();
    });
    let (recv, waited, (counters, connected), next, end) = watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("recv never gave up on a half-sent frame");
    assert!(matches!(recv, Err(Error::Io(_))), "{recv:?}");
    assert!(waited < 3 * timeout, "recv took {waited:?}");
    assert_eq!(counters.timeouts, 1);
    assert!(!connected, "a timed-out connection must be dropped");
    assert_eq!(next.unwrap().as_deref(), Some(&b"v"[..]));
    assert_eq!(end.reconnects, 1);
    release.send(()).unwrap();
    peer.join().unwrap();
}

/// Kill the server mid-load: every write the client saw acknowledged must
/// survive into a recovered engine. The "kill" is the repo's crash idiom —
/// snapshot each shard's NVM pool with flushes still in flight (no
/// `wait_idle`, no close) and recover from the copies; acknowledged writes
/// land via WAL replay when their MemTables never flushed.
#[test]
fn killed_server_loses_no_acknowledged_writes() {
    const SHARDS: usize = 2;
    const KEYS: u32 = 2_000;
    let opts = test_opts();
    let (server, router) = start_server(SHARDS);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..KEYS {
        // Each put is acknowledged before the next is sent.
        c.put(format!("ack{i:06}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let paths: Vec<_> = (0..SHARDS).map(|s| tmp(&format!("kill{s}"))).collect();
    for (s, path) in paths.iter().enumerate() {
        router.shards()[s].snapshot(path).unwrap();
    }
    drop(c);
    server.shutdown();
    drop(router); // the "killed" process is gone

    let recovered: Vec<MioDb> = paths
        .iter()
        .enumerate()
        .map(|(s, p)| recover_shard(p, &opts.shard(s, SHARDS)))
        .collect();
    let replayed: u64 = recovered.iter().map(MioDb::recovered_wal_records).sum();
    let router = ShardRouter::new(recovered);
    for i in 0..KEYS {
        assert_eq!(
            router
                .get(format!("ack{i:06}").as_bytes())
                .unwrap()
                .as_deref(),
            Some(format!("v{i}").as_bytes()),
            "acknowledged key ack{i:06} lost in server kill (WAL replayed {replayed} records)"
        );
    }
    router.close().unwrap();
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// Clean shutdown is the opposite guarantee: after `close()` drains the
/// commit queue and flushes MemTables, recovery must replay **zero** WAL
/// records — durability of a clean exit never depends on the log.
#[test]
fn clean_close_needs_no_wal_replay() {
    const SHARDS: usize = 2;
    let opts = test_opts();
    let (server, router) = start_server(SHARDS);

    // Concurrent connections so writes actually form commit groups.
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            s.spawn(move || {
                let mut c = KvClient::connect(addr).unwrap();
                for i in 0..300u32 {
                    c.put(
                        format!("clean-{t}-{i:04}").as_bytes(),
                        format!("v{t}-{i}").as_bytes(),
                    )
                    .unwrap();
                }
                c.close().unwrap();
            });
        }
    });
    server.shutdown();
    router.close().unwrap();

    let paths: Vec<_> = (0..SHARDS).map(|s| tmp(&format!("clean{s}"))).collect();
    for (s, path) in paths.iter().enumerate() {
        router.shards()[s].snapshot(path).unwrap();
    }
    let recovered: Vec<MioDb> = paths
        .iter()
        .enumerate()
        .map(|(s, p)| recover_shard(p, &opts.shard(s, SHARDS)))
        .collect();
    for db in &recovered {
        assert_eq!(
            db.recovered_wal_records(),
            0,
            "clean close must not leave WAL records to replay"
        );
    }
    let recovered = ShardRouter::new(recovered);
    for t in 0..4u32 {
        for i in 0..300u32 {
            assert_eq!(
                recovered
                    .get(format!("clean-{t}-{i:04}").as_bytes())
                    .unwrap()
                    .as_deref(),
                Some(format!("v{t}-{i}").as_bytes()),
                "clean-{t}-{i:04} lost across clean shutdown"
            );
        }
    }
    recovered.close().unwrap();
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// Graceful shutdown drains in-flight pipelined requests: responses for
/// everything already sent arrive before the connection closes.
/// Histories recorded *through the wire protocol* are linearizable: four
/// client connections hammer a sharded server over a hot keyspace, every
/// invoke/return window and outcome is logged via the `miodb-check`
/// client hooks, and the per-key Wing–Gong checker validates the result.
/// Client-side `MaybeApplied` outcomes (none expected here, but the hook
/// handles them) are treated as ambiguous.
#[test]
fn wire_histories_are_linearizable() {
    use miodb::check::{check_history, HistoryRecorder};
    let (server, router) = start_server(2);
    let addr = server.local_addr();
    let recorder = HistoryRecorder::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let mut log = recorder.log();
            s.spawn(move || {
                let mut c = KvClient::connect(addr).unwrap();
                let mut x = 0x5DEECE66D ^ (t + 1);
                for i in 0..120u64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = format!("wire{:02}", x % 16);
                    match (x >> 33) % 10 {
                        0..=3 => {
                            let value = format!("t{t}-i{i}");
                            log.client_put(&mut c, key.as_bytes(), value.as_bytes())
                                .unwrap();
                        }
                        4..=7 => {
                            log.client_get(&mut c, key.as_bytes()).unwrap();
                        }
                        _ => {
                            log.client_delete(&mut c, key.as_bytes()).unwrap();
                        }
                    }
                }
                c.close().unwrap();
            });
        }
    });
    let history = recorder.take_history();
    assert_eq!(history.len(), 4 * 120);
    let verdict = check_history(&history);
    assert!(verdict.is_linearizable(), "{verdict}");
    server.shutdown();
    router.close().unwrap();
}

/// The wire-protocol linearizability contract holds at connection-sweep
/// scale: one thousand live connections to the event-driven server, each
/// issuing recorded operations over a shared keyspace from a pool of
/// driver threads (the test holds both ends of every socket, hence the
/// fd-limit raise). The recorded history — real invoke/return windows and
/// observed outcomes for every connection — must check linearizable.
#[test]
fn wire_histories_linearizable_at_1000_connections() {
    use miodb::check::{check_history, HistoryRecorder};
    const CONNS: usize = 1000;
    const DRIVERS: usize = 16;
    const OPS_PER_CONN: u64 = 12;
    let achieved = miodb::server::raise_nofile_limit(2 * CONNS as u64 + 512);
    assert!(
        achieved >= 2 * CONNS as u64 + 256,
        "fd limit too low for a 1000-connection test: {achieved}"
    );
    let router = Arc::new(ShardRouter::open_miodb(&test_opts(), 2).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn KvEngine>,
        ServerOptions {
            max_connections: CONNS + 16,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let recorder = HistoryRecorder::new();
    std::thread::scope(|s| {
        for d in 0..DRIVERS {
            let lo = CONNS * d / DRIVERS;
            let hi = CONNS * (d + 1) / DRIVERS;
            // One log (= one checker process) per connection: ops on one
            // connection are sequential, ops across connections overlap.
            let mut logs: Vec<_> = (lo..hi).map(|_| recorder.log()).collect();
            s.spawn(move || {
                let mut conns: Vec<KvClient> =
                    (lo..hi).map(|_| KvClient::connect(addr).unwrap()).collect();
                for i in 0..OPS_PER_CONN {
                    for (j, c) in conns.iter_mut().enumerate() {
                        let log = &mut logs[j];
                        let mut x = 0x9E37_79B9_7F4A_7C15u64
                            ^ ((lo + j) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
                            ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                        x ^= x >> 33;
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = format!("sw{:03}", x % 192);
                        match (x >> 33) % 10 {
                            0..=3 => {
                                let value = format!("c{}-i{i}", lo + j);
                                log.client_put(c, key.as_bytes(), value.as_bytes()).unwrap();
                            }
                            4..=8 => {
                                log.client_get(c, key.as_bytes()).unwrap();
                            }
                            _ => {
                                log.client_delete(c, key.as_bytes()).unwrap();
                            }
                        }
                    }
                }
                for c in conns {
                    c.close().unwrap();
                }
            });
        }
    });
    let history = recorder.take_history();
    assert_eq!(history.len(), CONNS * OPS_PER_CONN as usize);
    let verdict = check_history(&history);
    assert!(verdict.is_linearizable(), "{verdict}");
    server.shutdown();
    router.close().unwrap();
}

#[test]
fn shutdown_drains_inflight_pipeline() {
    let (server, router) = start_server(2);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    // One round trip first: `connect` returns at TCP-handshake time, and
    // the drain guarantee covers *accepted* connections.
    c.put(b"warmup", b"w").unwrap();
    let reqs: Vec<miodb::common::Request> = (0..200u32)
        .map(|i| miodb::common::Request::Put {
            key: format!("drain{i:04}").into_bytes(),
            value: vec![b'd'; 64],
        })
        .collect();
    for req in &reqs {
        c.send(req).unwrap();
    }
    c.flush().unwrap();
    server.shutdown(); // returns only after handlers drained + responded
    let mut acked = 0;
    for _ in &reqs {
        match c.recv() {
            Ok((_, miodb::common::Response::Ok)) => acked += 1,
            Ok((_, other)) => panic!("unexpected response {other:?}"),
            Err(_) => break, // connection closed after drain
        }
    }
    assert_eq!(acked, reqs.len(), "all pipelined requests must be answered");
    router.close().unwrap();
}

// ----- run to completion on the shard: classification and order -------

/// Round-robin assignment spreads accepted connections over at most this
/// many event-loop shards (`cpu_count().clamp(1, 4)`).
const MAX_SHARDS: usize = 4;

/// One connection pipelines `Get, Put, Scan, Get, Stats, Delete, Get`
/// over and over: gets and writes run on the shard, scans and stats on a
/// worker, and the connection switches between the two at every
/// scan/stats frame. Responses come back in request order with the
/// contents the sequential execution implies.
#[test]
fn frames_switching_between_shard_and_worker_answer_in_order() {
    use miodb::common::{Request, Response, ScanEntry, ServePath};
    let (server, router) = start_server(2);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    // Small pipelines first (each starts on an unowned connection), then
    // one long one that also crosses the inline budget.
    for (batch, rounds) in [(0u32, 1u32), (1, 3), (2, 5), (3, 40)] {
        let mut reqs = Vec::new();
        let mut expected = Vec::new();
        for r in 0..rounds {
            let key = format!("mix{batch}-{r:03}").into_bytes();
            let value = format!("v{batch}-{r}").into_bytes();
            reqs.extend([
                Request::Get { key: key.clone() },
                Request::Put {
                    key: key.clone(),
                    value: value.clone(),
                },
                Request::Scan {
                    start: key.clone(),
                    limit: 1,
                },
                Request::Get { key: key.clone() },
                Request::Stats,
                Request::Delete { key: key.clone() },
                Request::Get { key: key.clone() },
            ]);
            expected.extend([
                Some(Response::Value(None)),
                Some(Response::Ok),
                // Earlier keys are deleted, later ones not yet written.
                Some(Response::Entries(vec![ScanEntry {
                    key,
                    value: value.clone(),
                }])),
                Some(Response::Value(Some(value))),
                None, // a scrape
                Some(Response::Ok),
                Some(Response::Value(None)),
            ]);
        }
        let ids: Vec<u32> = reqs.iter().map(|r| c.send(r).unwrap()).collect();
        c.flush().unwrap();
        for (i, (id, want)) in ids.iter().zip(&expected).enumerate() {
            let (got, resp) = c.recv().unwrap();
            assert_eq!(got, *id, "batch {batch}, response {i} out of order");
            match (want, resp) {
                (Some(want), resp) => assert_eq!(&resp, want, "batch {batch}, response {i}"),
                (None, Response::Stats(text)) => {
                    assert!(text.contains("miodb_server_requests_total"));
                }
                (None, other) => panic!("batch {batch}, response {i}: want stats, got {other:?}"),
            }
        }
    }
    let t = server.telemetry();
    assert!(t.requests_on(ServePath::Shard) > 0, "no frame ran inline");
    assert!(
        t.requests_on(ServePath::Worker) > 0,
        "no frame ran on a worker"
    );
    assert_eq!(
        t.requests_on(ServePath::Shard) + t.requests_on(ServePath::Worker),
        7 * (1 + 3 + 5 + 40)
    );
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

/// A semi-sync leader with no follower: a `Put` must wait out the whole
/// `semi_sync_timeout` for an ack that never comes, so it runs on a
/// worker. Meanwhile gets on more connections than there are shards —
/// at least one shares the put's shard — answer at once.
#[test]
fn sync_replicated_put_waits_on_a_worker_while_gets_answer() {
    use miodb::common::{AckLevel, ReplicationSink, Response, ServePath};
    use miodb::repl::{Replicator, ReplicatorOptions};
    use miodb::{ReplConfig, RoleState};
    use std::time::{Duration, Instant};
    const TIMEOUT: Duration = Duration::from_millis(1500);
    let db = Arc::new(MioDb::open(test_opts()).unwrap());
    db.put(b"seed", b"s").unwrap();
    let replicator = Replicator::new(ReplicatorOptions {
        ack_level: AckLevel::SemiSync,
        semi_sync_timeout: TIMEOUT,
        retain_bytes: 1 << 20,
        group_size: 2,
    });
    db.set_commit_sink(Some(Arc::clone(&replicator) as Arc<dyn ReplicationSink>));
    let server = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(
            Some(Arc::clone(&replicator)),
            None,
            Arc::new(RoleState::new_leader(1)),
            "",
        ),
    )
    .unwrap();
    // Accepted one after another, so consecutive shards: the writer plus
    // MAX_SHARDS + 1 readers put a reader on the writer's shard.
    let mut writer = KvClient::connect(server.local_addr()).unwrap();
    assert_eq!(writer.get(b"seed").unwrap().as_deref(), Some(&b"s"[..]));
    let mut readers: Vec<KvClient> = (0..=MAX_SHARDS)
        .map(|_| {
            let mut r = KvClient::connect(server.local_addr()).unwrap();
            assert_eq!(r.get(b"seed").unwrap().as_deref(), Some(&b"s"[..]));
            r
        })
        .collect();

    let sent = Instant::now();
    writer
        .send(&miodb::common::Request::Put {
            key: b"waits".to_vec(),
            value: b"w".to_vec(),
        })
        .unwrap();
    writer.flush().unwrap();
    while server.telemetry().requests_inflight() == 0 {
        assert!(sent.elapsed() < TIMEOUT, "the put never started executing");
        std::thread::sleep(Duration::from_millis(1));
    }
    for (i, r) in readers.iter_mut().enumerate() {
        // Best of three, so a preempted test thread cannot fail it; a
        // blocked shard would make all three wait out the put.
        let fastest = (0..3)
            .map(|_| {
                let t = Instant::now();
                assert_eq!(r.get(b"seed").unwrap().as_deref(), Some(&b"s"[..]));
                t.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < Duration::from_millis(50),
            "reader {i} took {fastest:?} while a sync-replicated put waited"
        );
    }
    assert!(
        sent.elapsed() < TIMEOUT,
        "the readers were not served while the put waited"
    );
    let (_, resp) = writer.recv().unwrap();
    assert!(
        sent.elapsed() >= TIMEOUT,
        "the put answered before its ack timeout"
    );
    match resp {
        Response::Err(msg) => assert!(msg.contains("may be applied"), "{msg}"),
        other => panic!("expected the ack timeout, got {other:?}"),
    }
    let t = server.telemetry();
    assert_eq!(
        t.requests_on(ServePath::Worker),
        1,
        "the put ran on a worker"
    );
    assert_eq!(
        t.requests_on(ServePath::Shard),
        1 + 4 * (MAX_SHARDS as u64 + 1)
    );
    writer.close().unwrap();
    for r in readers {
        r.close().unwrap();
    }
    server.shutdown();
    db.set_commit_sink(None);
    db.close().unwrap();
}

/// On a plain server every get and put runs on the shard that decoded
/// it: the worker pool serves none of them.
#[test]
fn plain_server_runs_gets_and_puts_on_the_shard() {
    use miodb::common::ServePath;
    let (server, router) = start_server(2);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    const N: u64 = 100;
    for i in 0..N {
        c.put(format!("plain{i:03}").as_bytes(), b"v").unwrap();
    }
    for i in 0..N {
        assert!(c.get(format!("plain{i:03}").as_bytes()).unwrap().is_some());
    }
    let t = server.telemetry();
    assert_eq!(t.requests_on(ServePath::Shard), 2 * N);
    assert_eq!(t.requests_on(ServePath::Worker), 0);
    // The scrape runs on a worker and is counted once it has rendered.
    let stats = c.stats().unwrap();
    support::assert_well_formed_scrape(&stats);
    assert!(stats.contains(&format!(
        "miodb_server_requests_total{{path=\"shard\"}} {}",
        2 * N
    )));
    assert!(stats.contains("miodb_server_requests_total{path=\"worker\"} 0"));
    assert_eq!(t.requests_on(ServePath::Worker), 1);
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

// ----- run to completion on the shard: edge cases ----------------------

/// Writes `reqs` (ids 1, 2, …) on a raw socket in one write and reads
/// their `(id, response)` pairs back, skipping backpressure advisories.
fn raw_round(
    stream: &std::net::TcpStream,
    reqs: &[miodb::common::Request],
) -> Vec<(u32, miodb::common::Response)> {
    use miodb::common::proto::{self, FrameDecoder, OP_BACKPRESSURE, RESPONSE_BIT};
    use std::io::Write;
    let mut wire = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        proto::write_request(&mut wire, i as u32 + 1, req).unwrap();
    }
    (&*stream).write_all(&wire).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    while out.len() < reqs.len() {
        let frame = decoder
            .read_frame(&mut &*stream)
            .unwrap()
            .expect("response, not EOF");
        if frame.opcode & !RESPONSE_BIT != OP_BACKPRESSURE {
            let resp = miodb::common::Response::decode(frame.opcode, &frame.body).unwrap();
            out.push((frame.id, resp));
        }
    }
    out
}

/// Frames written the moment the socket connects — before the shard has
/// registered it — are answered without the client sending anything
/// more.
#[test]
fn frames_sent_before_registration_are_answered() {
    use miodb::common::{Request, Response};
    let (server, router) = start_server(2);
    for round in 0..20u32 {
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let key = format!("early{round}").into_bytes();
        let resps = raw_round(
            &stream,
            &[
                Request::Put {
                    key: key.clone(),
                    value: b"e".to_vec(),
                },
                Request::Get { key },
                Request::Get {
                    key: b"never-written".to_vec(),
                },
            ],
        );
        assert_eq!(
            resps,
            vec![
                (1, Response::Ok),
                (2, Response::Value(Some(b"e".to_vec()))),
                (3, Response::Value(None)),
            ],
            "round {round}"
        );
    }
    server.shutdown();
    router.close().unwrap();
}

/// A burst of gets far past the per-round inline budget arrives in one
/// read: the shard runs the first frames, hands the rest of the queue to
/// the pool, and every response still comes back in request order.
#[test]
fn burst_past_the_inline_budget_keeps_its_order() {
    use miodb::common::{Request, Response, ServePath};
    let (server, router) = start_server(2);
    for i in 0..100u32 {
        router
            .put(
                format!("burst{i:03}").as_bytes(),
                format!("b{i}").as_bytes(),
            )
            .unwrap();
    }
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let reqs: Vec<Request> = (0..320u32)
        .map(|i| Request::Get {
            key: format!("burst{:03}", i % 100).into_bytes(),
        })
        .collect();
    for (i, (id, resp)) in raw_round(&stream, &reqs).into_iter().enumerate() {
        assert_eq!(id, i as u32 + 1, "response {i} out of order");
        assert_eq!(
            resp,
            Response::Value(Some(format!("b{}", i % 100).into_bytes())),
            "response {i}"
        );
    }
    let t = server.telemetry();
    assert_eq!(
        t.requests_on(ServePath::Shard) + t.requests_on(ServePath::Worker),
        320
    );
    assert!(
        t.requests_on(ServePath::Worker) > 0,
        "320 frames never crossed the inline budget"
    );
    server.shutdown();
    router.close().unwrap();
}

/// Shutdown drains a pipeline that mixes inline frames with handed-off
/// ones: everything already sent is answered, in order, before the close.
#[test]
fn shutdown_drains_inline_and_handed_off_frames() {
    use miodb::common::{Request, Response};
    let (server, router) = start_server(2);
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    c.put(b"warmup", b"w").unwrap();
    let reqs: Vec<Request> = (0..300u32)
        .map(|i| {
            let key = format!("sd{:04}", i / 3).into_bytes();
            match i % 3 {
                0 => Request::Put {
                    key,
                    value: vec![b'd'; 64],
                },
                1 if i % 30 == 1 => Request::Scan {
                    start: key,
                    limit: 1,
                },
                _ => Request::Get { key },
            }
        })
        .collect();
    let ids: Vec<u32> = reqs.iter().map(|r| c.send(r).unwrap()).collect();
    c.flush().unwrap();
    server.shutdown(); // returns only after every connection drained
    for (i, (req, id)) in reqs.iter().zip(&ids).enumerate() {
        let (got, resp) = c.recv().unwrap();
        assert_eq!(got, *id, "response {i} out of order");
        match (req, resp) {
            (Request::Put { .. }, Response::Ok) => {}
            (Request::Get { .. }, Response::Value(Some(v))) => assert_eq!(v, vec![b'd'; 64]),
            (Request::Scan { start, .. }, Response::Entries(e)) => assert_eq!(&e[0].key, start),
            (req, resp) => panic!("response {i}: {resp:?} to {req:?}"),
        }
    }
    router.close().unwrap();
}
