//! An idle server's accept thread sleeps in its readiness wait: it wakes
//! for a connection or for shutdown, never on a timer. The thread's
//! voluntary context switches, read from `/proc/self/task/*/status`, are
//! the count of its wake-ups. Alone in its test binary, so the one
//! `miodb-accept` thread of the process is this test's.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_check::MapEngine;
use miodb_client::KvClient;
use miodb_server::{KvServer, ServerOptions};

/// The task directories of this process's accept threads.
fn accept_threads() -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|t| t.unwrap().path())
        .filter(|t| {
            std::fs::read_to_string(t.join("comm")).is_ok_and(|c| c.trim_end() == "miodb-accept")
        })
        .collect()
}

/// The task's voluntary context switches so far.
fn voluntary_switches(task: &std::path::Path) -> u64 {
    let status = std::fs::read_to_string(task.join("status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn an_idle_servers_accept_thread_stays_asleep() {
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::new(MapEngine::new()),
        ServerOptions::default(),
    )
    .unwrap();
    // Served once, so the accept thread is past its setup and waiting.
    let mut client = KvClient::connect(server.local_addr()).unwrap();
    client.put(b"k", b"v").unwrap();
    let threads = accept_threads();
    assert_eq!(threads.len(), 1, "one accept thread: {threads:?}");
    let task = &threads[0];

    std::thread::sleep(Duration::from_millis(100));
    let before = voluntary_switches(task);
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(task) - before;
    println!("idle accept thread: {woke} wake-ups in 1 s");
    // Polling every millisecond woke it about 1 000 times a second.
    assert!(woke <= 2, "the idle accept thread woke {woke} times in 1 s");

    // Still accepting, and stopped promptly by shutdown.
    let mut second = KvClient::connect(server.local_addr()).unwrap();
    assert_eq!(second.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    drop((client, second));
    let stop = Instant::now();
    server.shutdown();
    assert!(
        stop.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        stop.elapsed()
    );
    assert!(accept_threads().is_empty(), "the accept thread was joined");
}
