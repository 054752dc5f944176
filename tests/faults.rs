//! Fault-matrix integration harness (DESIGN.md §10): arm each registered
//! fault point against a live engine (and the network service layer) and
//! assert the robustness contract — every injected failure surfaces as a
//! **typed error or full recovery**: no panics, no loss of acknowledged
//! writes, and the server keeps serving unaffected connections.
//!
//! Fault points are process-global, so every test here takes
//! [`fault::exclusive`] first: the guard serializes fault tests against each
//! other and disarms everything on drop (even mid-panic). That is also why
//! these tests live in their own integration-test binary — arming a point
//! in a shared binary would inject failures into unrelated concurrent tests.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb::common::fault::{self, FaultPolicy};
use miodb::pmem::PmemPool;
use miodb::{
    ClientOptions, Error, KvClient, KvEngine, KvServer, MioDb, MioOptions, ServerOptions, Stats,
};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("miodb-fault-{}-{name}", std::process::id()))
}

/// Options small enough that a few hundred writes exercise flushes,
/// zero-copy merges *and* the lazy-copy drain into the repository.
fn busy_opts() -> MioOptions {
    MioOptions {
        lazy_copy_trigger: 1,
        ..MioOptions::small_for_tests()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}-{}", "v".repeat(96)).into_bytes()
}

/// Full key-space check against the shadow model: every acknowledged write
/// must be readable with exactly the acknowledged value.
fn verify_model(db: &MioDb, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    for (k, v) in model {
        assert_eq!(
            db.get(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "acknowledged key {} lost or wrong",
            String::from_utf8_lossy(k)
        );
    }
}

/// Writes `n` keys, recording acknowledged writes in the shadow model and
/// failed writes (typed errors are acceptable while a fault is armed) in a
/// separate list for the absent-or-exact check.
fn load(db: &MioDb, n: u32, model: &mut BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut failed = Vec::new();
    for i in 0..n {
        let (k, v) = (key(i), value(i));
        match db.put(&k, &v) {
            Ok(()) => {
                model.insert(k, v);
            }
            Err(e) => {
                // The contract while a fault is armed: a *typed* error, never
                // a panic. The write is unacknowledged, so afterwards the key
                // may hold either outcome.
                assert!(!e.to_string().is_empty());
                failed.push((k, v));
            }
        }
    }
    failed
}

#[test]
fn flush_fault_is_retried_without_data_loss() {
    let _g = fault::exclusive();
    fault::arm(fault::points::ENGINE_FLUSH, FaultPolicy::FailOnce(1));
    let db = MioDb::open(busy_opts()).unwrap();
    let mut model = BTreeMap::new();
    let failed = load(&db, 1_500, &mut model);
    assert!(
        failed.is_empty(),
        "foreground writes must not see the fault"
    );
    db.wait_idle().unwrap();
    assert!(
        fault::triggered(fault::points::ENGINE_FLUSH) >= 1,
        "workload never reached the flush fault point"
    );
    assert_eq!(
        db.background_error(),
        None,
        "one injected flush failure must be absorbed by retry"
    );
    verify_model(&db, &model);
    db.close().unwrap();
}

#[test]
fn compaction_fault_is_retried_without_data_loss() {
    let _g = fault::exclusive();
    fault::arm(fault::points::ENGINE_COMPACTION, FaultPolicy::FailOnce(1));
    let db = MioDb::open(busy_opts()).unwrap();
    let mut model = BTreeMap::new();
    let failed = load(&db, 3_000, &mut model);
    assert!(failed.is_empty());
    db.wait_idle().unwrap();
    assert!(
        fault::triggered(fault::points::ENGINE_COMPACTION) >= 1,
        "workload never triggered a zero-copy merge"
    );
    assert_eq!(db.background_error(), None);
    verify_model(&db, &model);
    db.close().unwrap();
}

#[test]
fn lazy_copy_fault_is_retried_without_data_loss() {
    let _g = fault::exclusive();
    fault::arm(fault::points::ENGINE_LAZY, FaultPolicy::FailOnce(1));
    let db = MioDb::open(busy_opts()).unwrap();
    let mut model = BTreeMap::new();
    // Enough volume to cascade merges down to the bottom buffer level,
    // whose drain into the repository is the lazy-copy under test.
    for i in 0..4_000u32 {
        let (k, v) = (key(i), vec![42u8; 256]);
        db.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    db.wait_idle().unwrap();
    assert!(
        fault::triggered(fault::points::ENGINE_LAZY) >= 1,
        "workload never reached the lazy-copy drain"
    );
    assert_eq!(db.background_error(), None);
    verify_model(&db, &model);
    db.close().unwrap();
}

/// Background work that gives up still ends its interval: a lazy-copy
/// drain that fails past its retry budget must not leave its level's
/// pending-compactions gauge raised, must not count as a completed
/// compaction, and must still close its trace span.
#[test]
fn failed_background_work_closes_its_interval() {
    use miodb::common::trace::{self, SpanKind};
    use std::sync::atomic::Ordering;

    let _g = fault::exclusive();
    let _x = trace::exclusive();
    // Background spans only: no request context, no implicit roots.
    trace::enable(1 << 16, 1, false);
    fault::arm(fault::points::ENGINE_LAZY, FaultPolicy::FailNth(1));
    let db = MioDb::open(busy_opts()).unwrap();
    // Write until the bottom buffer level drains and the drain gives up.
    // Puts are refused once the error is set; until then they feed it.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut i = 0u32;
    while db.background_error().is_none() {
        assert!(
            Instant::now() < deadline,
            "the lazy-copy drain never failed"
        );
        let _ = db.put(&key(i), &[42u8; 256]);
        i += 1;
    }
    assert!(fault::triggered(fault::points::ENGINE_LAZY) >= 1);
    // Joins the workers, so whatever else was in flight has ended too.
    let _ = db.close();
    let spans = trace::drain();

    let t = db.telemetry().unwrap();
    for (level, m) in t.levels().iter().enumerate() {
        assert_eq!(
            m.pending_compactions.load(Ordering::Relaxed),
            0,
            "level {level} still reports a running compaction"
        );
    }
    // Every lazy-copy attempt fails, so none may count as done.
    assert_eq!(
        db.report().stats.copy_compactions,
        0,
        "the abandoned lazy copy was counted as a completed compaction"
    );
    // A span reaches the ring only when it closes; a lazy copy's `arg`
    // carries kind code 2 in its high half.
    assert_eq!(trace::dropped_spans(), 0, "span ring overflowed");
    let lazy_copies: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Compaction && s.arg >> 32 == 2)
        .collect();
    assert!(
        !lazy_copies.is_empty(),
        "the abandoned lazy copy left no closed span"
    );
    assert!(lazy_copies.iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn alloc_faults_surface_typed_errors_and_engine_recovers() {
    let _g = fault::exclusive();
    fault::arm(
        fault::points::PMEM_ALLOC,
        FaultPolicy::FailProbability {
            num: 1,
            den: 40,
            seed: 0xA110C,
        },
    );
    let db = MioDb::open(busy_opts()).unwrap();
    let mut model = BTreeMap::new();
    let failed = load(&db, 2_000, &mut model);
    assert!(fault::hits(fault::points::PMEM_ALLOC) >= 1);
    fault::disarm(fault::points::PMEM_ALLOC);
    db.wait_idle().unwrap();
    assert_eq!(
        db.background_error(),
        None,
        "probabilistic alloc faults must be absorbed by background retries"
    );
    verify_model(&db, &model);
    // An unacknowledged write may hold either outcome, but never a torn one.
    for (k, v) in &failed {
        match db.get(k).unwrap() {
            None => {}
            Some(got) => assert_eq!(&got, v, "failed write half-applied"),
        }
    }
    // The engine is fully writable again once the fault is gone.
    db.put(b"post-fault-probe", b"ok").unwrap();
    assert_eq!(
        db.get(b"post-fault-probe").unwrap().as_deref(),
        Some(&b"ok"[..])
    );
    db.close().unwrap();
}

#[test]
fn wal_pre_crc_fault_is_a_transient_typed_error() {
    let _g = fault::exclusive();
    let db = MioDb::open(MioOptions::small_for_tests()).unwrap();
    db.put(b"before", b"1").unwrap();
    fault::arm(fault::points::WAL_APPEND_PRE_CRC, FaultPolicy::FailOnce(1));
    let err = db.put(b"doomed", b"2").unwrap_err();
    assert!(
        !matches!(err, Error::Background(_)),
        "transient WAL fault must not degrade the engine: {err}"
    );
    // Nothing reached the log, so the tail stays clean and the very next
    // write succeeds without rotation.
    db.put(b"after", b"3").unwrap();
    assert_eq!(db.get(b"before").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"after").unwrap().as_deref(), Some(&b"3"[..]));
    assert_eq!(db.get(b"doomed").unwrap(), None, "failed write applied");
    db.close().unwrap();
}

#[test]
fn torn_wal_tail_recovery_keeps_every_acknowledged_write() {
    let _g = fault::exclusive();
    let opts = MioOptions::small_for_tests();
    let path = tmp("torn-tail");
    let mut model = BTreeMap::new();
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..300u32 {
            let (k, v) = (key(i), value(i));
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        db.wait_idle().unwrap();
        fault::arm(fault::points::WAL_APPEND_TORN, FaultPolicy::TornWrite);
        let mut torn = None;
        for i in 1_000..1_200u32 {
            let (k, v) = (key(i), value(i));
            match db.put(&k, &v) {
                Ok(()) => {
                    model.insert(k, v);
                }
                Err(e) => {
                    torn = Some((k, e));
                    break;
                }
            }
        }
        let (torn_key, torn_err) = torn.expect("torn-write fault never fired");
        assert!(!torn_err.to_string().is_empty());
        // The log tail is poisoned: accepting more appends past the tear
        // would silently lose them at replay, so they must fail instead.
        let poisoned = db.put(b"zz-after-torn", b"x");
        assert!(poisoned.is_err(), "append past a torn tail must be refused");
        // Crash now. Replay must stop at the tear and keep the prefix.
        db.snapshot(&path).unwrap();
        drop(torn_key);
    }
    let pool = PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new())).unwrap();
    let db = MioDb::recover(pool, opts.clone()).unwrap();
    verify_model(&db, &model);
    assert_eq!(db.get(&key(1_200)).unwrap(), None);
    // Recovery rebuilt a clean log: the engine accepts writes again.
    db.put(b"post-recovery", b"alive").unwrap();
    assert_eq!(
        db.get(b"post-recovery").unwrap().as_deref(),
        Some(&b"alive"[..])
    );
    db.close().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_and_restore_faults_are_typed_and_retry_recovers() {
    let _g = fault::exclusive();
    let opts = MioOptions::small_for_tests();
    let path = tmp("snap-fault");
    let db = MioDb::open(opts.clone()).unwrap();
    let mut model = BTreeMap::new();
    let failed = load(&db, 500, &mut model);
    assert!(failed.is_empty());
    db.wait_idle().unwrap();

    // Torn persist: typed I/O error, and the half-written file must be
    // rejected — not silently restored — by a later lifetime.
    fault::arm(
        fault::points::PMEM_SNAPSHOT_PERSIST,
        FaultPolicy::FailOnce(1),
    );
    assert!(db.snapshot(&path).is_err(), "torn persist must be reported");
    assert!(
        PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new())).is_err(),
        "half-written snapshot must not restore"
    );
    // One-shot fault consumed: the retry persists the full image.
    db.snapshot(&path).unwrap();
    db.close().unwrap();

    // Restore-time corruption: typed error first, clean recovery second.
    fault::arm(fault::points::PMEM_RESTORE, FaultPolicy::FailOnce(1));
    let err = PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new()));
    assert!(matches!(err, Err(Error::Corruption(_))), "got {err:?}");
    let pool = PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new())).unwrap();
    let db = MioDb::recover(pool, opts).unwrap();
    verify_model(&db, &model);
    db.close().unwrap();
    std::fs::remove_file(&path).ok();
}

/// The matrix: seeds × engine-reachable fault points, probabilistic
/// injection under a live workload. For every combination the engine must
/// end healthy (no sticky background error), hold every acknowledged write,
/// and keep serving.
#[test]
fn fault_matrix_sweep() {
    let _g = fault::exclusive();
    let points = [
        fault::points::ENGINE_FLUSH,
        fault::points::ENGINE_COMPACTION,
        fault::points::ENGINE_LAZY,
        fault::points::WAL_APPEND_PRE_CRC,
        fault::points::PMEM_ALLOC,
    ];
    for seed in [11u64, 23, 47] {
        for point in points {
            fault::arm(
                point,
                FaultPolicy::FailProbability {
                    num: 1,
                    den: 48,
                    seed,
                },
            );
            let db = MioDb::open(busy_opts()).unwrap();
            let mut model = BTreeMap::new();
            let failed = load(&db, 800, &mut model);
            let (hits, triggered) = (fault::hits(point), fault::triggered(point));
            fault::disarm(point);
            db.wait_idle().unwrap();
            assert_eq!(
                db.background_error(),
                None,
                "[seed {seed}] {point}: engine degraded"
            );
            verify_model(&db, &model);
            for (k, v) in &failed {
                match db.get(k).unwrap() {
                    None => {}
                    Some(got) => assert_eq!(&got, v, "[seed {seed}] {point}: half-applied write"),
                }
            }
            db.put(b"matrix-probe", b"ok").unwrap();
            db.close().unwrap();
            println!(
                "matrix seed={seed} point={point}: hits={hits} triggered={triggered} \
                 acked={} failed={}",
                model.len(),
                failed.len()
            );
        }
    }
}

/// The linearizability matrix (ISSUE 5 acceptance): 8 seeds × the
/// engine-reachable fault points, with the seeded stress driver recording
/// every outcome and the Wing–Gong checker validating the history. Writes
/// failed by an injected fault are recorded as ambiguous ("may or may not
/// have occurred"); everything acknowledged must be explained by a single
/// linearization order per key.
#[test]
fn lincheck_matrix_under_faults() {
    use miodb::check::{check_history, run_stress, StressSpec};
    let _g = fault::exclusive();
    let points = [
        fault::points::ENGINE_FLUSH,
        fault::points::ENGINE_COMPACTION,
        fault::points::ENGINE_LAZY,
        fault::points::WAL_APPEND_PRE_CRC,
        fault::points::PMEM_ALLOC,
    ];
    for seed in 0..8u64 {
        for point in points {
            // Open before arming: the matrix targets steady-state operation,
            // and an alloc fault during open is a typed open error, which the
            // dedicated open/recover fault tests already cover.
            let db = MioDb::open(busy_opts()).unwrap();
            fault::arm(
                point,
                FaultPolicy::FailProbability {
                    num: 1,
                    den: 64,
                    seed: seed.wrapping_mul(0x9E37_79B9) + 1,
                },
            );
            let spec = StressSpec {
                threads: 3,
                ops_per_thread: 120,
                key_space: 12,
                ..StressSpec::quick(seed)
            };
            let history = run_stress(&db, &spec);
            fault::disarm(point);
            let verdict = check_history(&history);
            assert!(
                verdict.is_linearizable(),
                "[seed {seed}] {point}: {verdict}"
            );
            db.close().ok();
        }
    }
}

fn fast_client(addr: std::net::SocketAddr) -> KvClient {
    KvClient::connect_with(
        addr,
        ClientOptions {
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            max_retries: 4,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            max_redirects: 4,
        },
    )
    .unwrap()
}

#[test]
fn server_drop_yields_maybe_applied_and_server_keeps_serving() {
    let _g = fault::exclusive();
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut victim = fast_client(addr);
    let mut bystander = fast_client(addr);
    victim.put(b"warm-a", b"1").unwrap();
    bystander.put(b"warm-b", b"2").unwrap();

    // Drop exactly the next served frame — the victim's in-flight PUT.
    fault::arm(fault::points::SERVER_CONN_DROP, FaultPolicy::FailOnce(1));
    let err = victim.put(b"ambiguous-key", b"v1").unwrap_err();
    assert!(
        matches!(err, Error::MaybeApplied(_)),
        "a dropped in-flight mutation must be ambiguous, got {err}"
    );
    assert_eq!(victim.counters().ambiguous, 1);

    // The server never went down: the bystander's connection is untouched.
    assert_eq!(
        bystander.get(b"warm-b").unwrap().as_deref(),
        Some(&b"2"[..])
    );

    // The victim recovers mid-workload via backoff reconnect, resolves the
    // ambiguity by reading back, and resumes its writes.
    let read_back = victim.get(b"ambiguous-key").unwrap();
    assert!(victim.counters().reconnects >= 1, "no reconnect recorded");
    if read_back.is_none() {
        victim.put(b"ambiguous-key", b"v1").unwrap();
    }
    assert_eq!(
        victim.get(b"ambiguous-key").unwrap().as_deref(),
        Some(&b"v1"[..])
    );
    for i in 0..50u32 {
        victim.put(&key(i), b"post-drop").unwrap();
        assert_eq!(
            bystander.get(&key(i)).unwrap().as_deref(),
            Some(&b"post-drop"[..])
        );
    }

    victim.close().unwrap();
    bystander.close().unwrap();
    server.shutdown();
    db.close().unwrap();
}

#[test]
fn server_stall_delays_but_completes_within_client_timeout() {
    let _g = fault::exclusive();
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = fast_client(server.local_addr());
    client.put(b"k", b"v").unwrap();

    fault::arm(
        fault::points::SERVER_REQUEST_STALL,
        FaultPolicy::Latency(Duration::from_millis(150)),
    );
    let t0 = Instant::now();
    assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    assert!(
        t0.elapsed() >= Duration::from_millis(140),
        "stall not injected ({:?})",
        t0.elapsed()
    );
    assert!(fault::hits(fault::points::SERVER_REQUEST_STALL) >= 1);
    fault::disarm(fault::points::SERVER_REQUEST_STALL);
    assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));

    client.close().unwrap();
    server.shutdown();
    db.close().unwrap();
}

/// A request stall that hits a frame running inline holds the shard that
/// runs it — a connection on the same shard waits it out too — while
/// connections on every other shard keep being served.
#[test]
fn request_stall_holds_its_shard_while_other_shards_serve() {
    let _g = fault::exclusive();
    const STALL: Duration = Duration::from_millis(600);
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
    )
    .unwrap();
    // The server runs `cpu_count().clamp(1, 4)` shards and deals accepted
    // connections out round-robin; accepted one after another, conns[0]
    // and conns[n_shards] share a shard and every other one is elsewhere.
    let n_shards = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, 4);
    let mut conns: Vec<KvClient> = (0..=n_shards)
        .map(|_| {
            let mut c = fast_client(server.local_addr());
            c.put(b"k", b"v").unwrap();
            c
        })
        .collect();

    fault::arm(
        fault::points::SERVER_REQUEST_STALL,
        FaultPolicy::Latency(STALL),
    );
    let t0 = Instant::now();
    conns[0]
        .send(&miodb::common::Request::Get { key: b"k".to_vec() })
        .unwrap();
    conns[0].flush().unwrap();
    while fault::hits(fault::points::SERVER_REQUEST_STALL) == 0 {
        assert!(t0.elapsed() < STALL, "the stall never hit");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Only the victim's frame sleeps; nothing after it is stalled.
    fault::disarm(fault::points::SERVER_REQUEST_STALL);
    for c in &mut conns[1..n_shards] {
        assert_eq!(c.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    }
    assert!(
        t0.elapsed() < STALL,
        "the other shards were held by a stall on one shard ({:?})",
        t0.elapsed()
    );
    assert_eq!(
        conns[n_shards].get(b"k").unwrap().as_deref(),
        Some(&b"v"[..])
    );
    assert!(
        t0.elapsed() >= STALL,
        "a connection on the stalled shard was served during the stall"
    );
    let (_, resp) = conns[0].recv().unwrap();
    assert_eq!(resp, miodb::common::Response::Value(Some(b"v".to_vec())));

    for c in conns {
        c.close().unwrap();
    }
    server.shutdown();
    db.close().unwrap();
}
