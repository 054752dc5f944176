//! Backpressure and slow-reader tests for the event-driven service layer:
//! a client that stops reading must receive an in-band backpressure
//! advisory, the server's per-connection memory must stay bounded, and
//! other connections must keep making progress (fairness) while one is
//! stalled.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb::common::proto;
use miodb::common::{KvEngine, Request};
use miodb::{KvClient, KvServer, MioDb, MioOptions, ServerOptions, ShardRouter};

fn test_opts() -> MioOptions {
    MioOptions {
        name: "MioDB-bp-test".to_string(),
        ..MioOptions::small_for_tests()
    }
}

/// A server with deliberately tiny per-connection caps so the tests
/// trigger backpressure with kilobytes instead of megabytes.
fn start_small_server() -> (KvServer, Arc<ShardRouter<MioDb>>) {
    let router = Arc::new(ShardRouter::open_miodb(&test_opts(), 1).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn KvEngine>,
        ServerOptions {
            max_queued_requests: 8,
            max_conn_buffer_bytes: 64 * 1024,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    (server, router)
}

/// A pipelining client that stops reading sees the in-band backpressure
/// advisory once it finally drains, every response still arrives in
/// order, and the server telemetry records the event.
#[test]
fn stopped_reader_receives_backpressure_advisory() {
    let (server, router) = start_small_server();
    // Seed a 1 KiB value so each pipelined GET response is substantial
    // enough to blow through the 64 KiB output cap quickly.
    let mut seeder = KvClient::connect(server.local_addr()).unwrap();
    let big = vec![b'v'; 1024];
    seeder.put(b"big", &big).unwrap();
    seeder.close().unwrap();

    let mut c = KvClient::connect(server.local_addr()).unwrap();
    let n = 1_000u32;
    for _ in 0..n {
        c.send(&Request::Get {
            key: b"big".to_vec(),
        })
        .unwrap();
    }
    c.flush().unwrap();
    // Stay stopped long enough for the server to fill the connection's
    // request queue and output buffer and pause reads.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        server.telemetry().backpressure_events() >= 1,
        "server never recorded a backpressure event for a stopped reader"
    );
    for i in 0..n {
        let (_, resp) = c.recv().unwrap();
        match resp {
            miodb::common::Response::Value(Some(v)) => assert_eq!(v, big, "response {i}"),
            other => panic!("response {i}: unexpected {other:?}"),
        }
    }
    assert!(
        c.counters().backpressure >= 1,
        "client never saw the in-band backpressure advisory"
    );
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}

/// With a reader that never drains, the bytes the server will accept from
/// and buffer for that connection are bounded: writes from the client
/// eventually hit `WouldBlock` (kernel buffers + the server's paused read
/// loop) instead of being swallowed forever.
#[test]
fn server_memory_stays_bounded_for_a_reader_that_never_drains() {
    let (server, router) = start_small_server();
    let mut seeder = KvClient::connect(server.local_addr()).unwrap();
    seeder.put(b"big", &vec![b'v'; 4096]).unwrap();
    seeder.close().unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nonblocking(true).unwrap();
    let mut stream = stream;
    // One encoded GET frame, repeated.
    let mut frame = Vec::new();
    proto::write_request(
        &mut frame,
        1,
        &Request::Get {
            key: b"big".to_vec(),
        },
    )
    .unwrap();
    let mut accepted = 0usize;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut consecutive_blocks = 0u32;
    while Instant::now() < deadline {
        match stream.write(&frame) {
            Ok(n) => {
                accepted += n;
                consecutive_blocks = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                consecutive_blocks += 1;
                // The server has paused this connection and the kernel
                // buffers are full: the write side is properly stalled.
                if consecutive_blocks > 20 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("unexpected socket error: {e}"),
        }
        // Far beyond any bounded pipeline: caps (8 queued requests,
        // 64 KiB responses) plus kernel socket buffers are a few MiB at
        // most. Accepting this much means the server kept reading.
        assert!(
            accepted < 64 << 20,
            "server swallowed {accepted} bytes from a reader that never drains"
        );
    }
    assert!(
        consecutive_blocks > 20,
        "writes to a stalled connection never hit WouldBlock (accepted {accepted} bytes)"
    );
    assert!(
        server.telemetry().backpressure_events() >= 1,
        "stall never registered as a backpressure event"
    );
    drop(stream);
    server.shutdown();
    router.close().unwrap();
}

/// Fairness: while one connection is wedged behind a full output buffer,
/// other connections on the same shard keep completing requests.
#[test]
fn other_connections_progress_while_one_reader_is_stalled() {
    let (server, router) = start_small_server();
    let mut seeder = KvClient::connect(server.local_addr()).unwrap();
    seeder.put(b"big", &vec![b'v'; 4096]).unwrap();
    seeder.close().unwrap();

    // The stalled connection: pipelines GETs and never reads.
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Vec::new();
    proto::write_request(
        &mut frame,
        1,
        &Request::Get {
            key: b"big".to_vec(),
        },
    )
    .unwrap();
    let burst: Vec<u8> = frame.repeat(64);
    stalled.write_all(&burst).unwrap();
    stalled.flush().unwrap();

    // Give the server time to wedge the stalled connection.
    std::thread::sleep(Duration::from_millis(200));

    // A healthy connection must complete a full workload promptly.
    let mut healthy = KvClient::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    for i in 0..200u32 {
        let key = format!("fair{i:04}");
        healthy.put(key.as_bytes(), b"x").unwrap();
        assert_eq!(
            healthy.get(key.as_bytes()).unwrap().as_deref(),
            Some(b"x".as_ref()),
            "healthy connection starved at op {i}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "healthy connection took {:?} behind a stalled peer",
        started.elapsed()
    );
    healthy.close().unwrap();
    drop(stalled);
    server.shutdown();
    router.close().unwrap();
}

/// A pipelining client whose gets run inline on the shard and which then
/// stops draining parks its connection at `max_conn_buffer_bytes`; once it
/// reads again the connection resumes, every response arrives in request
/// order, and the connection keeps serving.
#[test]
fn stalled_inline_connection_parks_and_resumes() {
    use miodb::common::ServePath;
    let (server, router) = start_small_server();
    for i in 0..10u32 {
        router
            .put(
                format!("big{i}").as_bytes(),
                &vec![b'0' + i as u8; 16 << 10],
            )
            .unwrap();
    }
    let mut c = KvClient::connect(server.local_addr()).unwrap();
    let n = 1500u32;
    let ids: Vec<u32> = (0..n)
        .map(|i| {
            c.send(&Request::Get {
                key: format!("big{}", i % 10).into_bytes(),
            })
            .unwrap()
        })
        .collect();
    c.flush().unwrap();
    // 24 MiB of responses against a 64 KiB cap and the kernel's socket
    // buffers: the connection parks.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        server.telemetry().backpressure_events() >= 1,
        "never parked"
    );
    assert!(
        server.telemetry().requests_on(ServePath::Shard) > 0,
        "no get ran inline"
    );
    assert!(
        server.telemetry().requests_on(ServePath::Shard)
            + server.telemetry().requests_on(ServePath::Worker)
            < u64::from(n),
        "a parked connection executed its whole pipeline"
    );
    for (i, id) in ids.iter().enumerate() {
        let (got, resp) = c.recv().unwrap();
        assert_eq!(got, *id, "response {i} out of order");
        match resp {
            miodb::common::Response::Value(Some(v)) => {
                assert_eq!(v, vec![b'0' + (i % 10) as u8; 16 << 10], "response {i}");
            }
            other => panic!("response {i}: unexpected {other:?}"),
        }
    }
    assert!(c.counters().backpressure >= 1);
    c.put(b"after", b"resumed").unwrap();
    assert_eq!(c.get(b"after").unwrap().as_deref(), Some(&b"resumed"[..]));
    c.close().unwrap();
    server.shutdown();
    router.close().unwrap();
}
