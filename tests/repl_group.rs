//! The self-healing replication group end to end: quorum admission and
//! acks, replication gauges over the wire, follower restart resumption,
//! epoch fencing of a deposed leader, bounded client redirect loops,
//! automatic kill-the-leader failover, partition degradation to
//! `QuorumLost`, self-driven snapshot re-bootstrap, and the seeded chaos
//! matrix — all verified with the per-key linearizability checker and
//! the durable-prefix oracle (zero quorum-acked writes lost).

mod support;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb::check::{check_history, DurableOracle, History, HistoryRecorder, ProcessLog};
use miodb::common::fault::{self, points, FaultPolicy};
use miodb::common::{AckLevel, Error, ReplicationSink};
use miodb::repl::{
    engine_snapshot_bytes, vote_rpc, Follower, FollowerOptions, FollowerState, Replicator,
    ReplicatorOptions,
};
use miodb::{
    ClientOptions, GroupConfig, KvClient, KvEngine, KvServer, MioDb, MioOptions, NodeOptions,
    ReplConfig, ReplNode, RoleState, ServerOptions,
};

fn test_opts(name: &str) -> MioOptions {
    MioOptions {
        name: format!("MioDB-{name}"),
        ..MioOptions::small_for_tests()
    }
}

/// Reserves `n` distinct loopback addresses (bind, read, release). A
/// tiny race against other processes — fine for tests.
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Node options with a fresh uniquely-named engine per factory call
/// (re-bootstraps must not collide with the pool they replace).
fn node_opts(prefix: &'static str, ack: AckLevel) -> NodeOptions {
    let counter = Arc::new(AtomicU64::new(0));
    let mut opts = NodeOptions::new(Arc::new(move || {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        test_opts(&format!("{prefix}-{n}"))
    }));
    opts.ack_level = ack;
    opts.ack_timeout = Duration::from_millis(1500);
    opts
}

fn wait_until(secs: u64, mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The current leader's index — the highest-epoch believer when a
/// deposed leader has not yet noticed its fate.
fn leader_index(nodes: &[Option<ReplNode>]) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (i, n) in nodes.iter().enumerate() {
        if let Some(n) = n {
            if n.is_leader() && best.is_none_or(|(_, e)| n.role().epoch() > e) {
                best = Some((i, n.role().epoch()));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Leader side for the manual (non-`ReplNode`) tests: engine +
/// replicator as the commit sink + replicated server.
fn start_leader(
    name: &str,
    ack: AckLevel,
    group_size: usize,
) -> (KvServer, Arc<MioDb>, Arc<Replicator>, Arc<RoleState>) {
    let db = Arc::new(MioDb::open(test_opts(name)).unwrap());
    let replicator = Replicator::new(ReplicatorOptions {
        ack_level: ack,
        semi_sync_timeout: Duration::from_secs(2),
        retain_bytes: 64 << 20,
        group_size,
    });
    db.set_commit_sink(Some(replicator.clone() as Arc<dyn ReplicationSink>));
    let role = Arc::new(RoleState::new_leader(1));
    let snap_db = Arc::clone(&db);
    let server = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(
            Some(Arc::clone(&replicator)),
            Some(Box::new(move || engine_snapshot_bytes(&snap_db))),
            Arc::clone(&role),
            "",
        ),
    )
    .unwrap();
    (server, db, replicator, role)
}

fn start_follower(name: &str, leader_addr: SocketAddr) -> (Arc<MioDb>, Follower) {
    let db = Arc::new(MioDb::open(test_opts(name)).unwrap());
    let follower = Follower::start(
        Arc::clone(&db),
        &leader_addr.to_string(),
        FollowerOptions::default(),
    )
    .unwrap();
    (db, follower)
}

fn wait_subscribed(replicator: &Replicator, n: usize) {
    wait_until(5, || replicator.subscriber_count() >= n, "subscription");
}

/// Quorum admission: with a majority of the group unreachable a write is
/// refused with the typed `QuorumLost` — never silently accepted — and
/// recovers as soon as enough followers are back.
#[test]
fn quorum_write_requires_majority() {
    let _g = fault::exclusive();
    // Group of three: the leader needs one connected follower.
    let (leader, _ldb, replicator, _role) = start_leader("qw-leader", AckLevel::Quorum, 3);
    let mut c = KvClient::connect(leader.local_addr()).unwrap();
    match c.put(b"too-early", b"x") {
        Err(Error::QuorumLost { have, need }) => {
            assert_eq!((have, need), (1, 2));
        }
        other => panic!("expected QuorumLost, got {other:?}"),
    }

    let (fdb, follower) = start_follower("qw-follower", leader.local_addr());
    wait_subscribed(&replicator, 1);
    c.put(b"quorum", b"acked").unwrap();
    // A quorum ack means a majority holds the write durably: the
    // follower serves it immediately, no settling sleep.
    assert_eq!(fdb.get(b"quorum").unwrap().as_deref(), Some(&b"acked"[..]));
    assert!(replicator.quorum_acked() >= 1);
    assert!(replicator.quorum_available());

    // Losing the only follower collapses the quorum again.
    follower.stop();
    wait_until(5, || replicator.subscriber_count() == 0, "unsubscribe");
    match c.put(b"too-late", b"x") {
        Err(Error::QuorumLost { .. }) => {}
        other => panic!("expected QuorumLost after follower loss, got {other:?}"),
    }

    leader.shutdown();
    fdb.close().unwrap();
}

/// The replication gauges render into the server's Prometheus text and
/// parse back: `miodb_repl_log_bytes` plus a per-follower
/// `miodb_repl_lag_records{follower="..."}` series.
#[test]
fn repl_metrics_render_and_parse_in_stats() {
    let _g = fault::exclusive();
    let (leader, _ldb, replicator, _role) = start_leader("pm-leader", AckLevel::SemiSync, 2);
    let (fdb, follower) = start_follower("pm-follower", leader.local_addr());
    wait_subscribed(&replicator, 1);

    let mut c = KvClient::connect(leader.local_addr()).unwrap();
    for i in 0..10u32 {
        c.put(format!("m{i}").as_bytes(), b"v").unwrap();
    }
    let text = c.stats().unwrap();
    support::assert_well_formed_scrape(&text);

    // Every repl sample line must parse as `name[{labels}] value`.
    let mut seen_log_bytes = false;
    let mut seen_lag = false;
    let mut seen_subscribers = false;
    for line in text.lines() {
        if !line.starts_with("miodb_repl_") {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|e| {
            panic!("unparseable value in {line:?}: {e}");
        });
        match series.split('{').next().unwrap() {
            "miodb_repl_log_bytes" => seen_log_bytes = true,
            "miodb_repl_subscribers" => {
                seen_subscribers = true;
                assert_eq!(value as u64, 1, "one follower subscribed");
            }
            "miodb_repl_lag_records" => {
                seen_lag = true;
                assert!(
                    series.contains("follower=\""),
                    "lag series must be labelled per follower: {series}"
                );
            }
            _ => {}
        }
    }
    assert!(seen_log_bytes, "miodb_repl_log_bytes missing:\n{text}");
    assert!(seen_subscribers, "miodb_repl_subscribers missing:\n{text}");
    assert!(seen_lag, "miodb_repl_lag_records missing:\n{text}");

    follower.stop();
    leader.shutdown();
    fdb.close().unwrap();
}

/// A killed-and-restarted follower resumes streaming from its engine's
/// `last_sequence` — no snapshot, no duplicate applies.
#[test]
fn follower_restart_resumes_from_cursor() {
    let _g = fault::exclusive();
    let (leader, ldb, replicator, _role) = start_leader("fr-leader", AckLevel::Async, 2);
    let (fdb, follower) = start_follower("fr-follower", leader.local_addr());
    wait_subscribed(&replicator, 1);

    let mut c = KvClient::connect(leader.local_addr()).unwrap();
    for i in 0..20u32 {
        c.put(format!("pre{i:02}").as_bytes(), b"v1").unwrap();
    }
    wait_until(
        10,
        || fdb.last_sequence() == ldb.last_sequence(),
        "initial convergence",
    );

    // Kill the follower, keep writing, restart it on the same engine.
    follower.stop();
    let resumed_from = fdb.last_sequence();
    assert!(resumed_from >= 20);
    for i in 0..20u32 {
        c.put(format!("post{i:02}").as_bytes(), b"v2").unwrap();
    }
    let follower2 = Follower::start(
        Arc::clone(&fdb),
        &leader.local_addr().to_string(),
        FollowerOptions::default(),
    )
    .unwrap();
    wait_until(
        10,
        || fdb.last_sequence() == ldb.last_sequence(),
        "post-restart convergence",
    );
    // Streamed the tail only: the cursor never went backwards (a replay
    // from zero would have re-applied `pre*` records the dedup filter
    // must drop) and the log was never truncated past the cursor.
    assert_eq!(follower2.applied(), ldb.last_sequence());
    assert!(
        !follower2.needs_snapshot(),
        "resume must not need a snapshot"
    );
    assert_eq!(fdb.get(b"pre00").unwrap().as_deref(), Some(&b"v1"[..]));
    assert_eq!(fdb.get(b"post19").unwrap().as_deref(), Some(&b"v2"[..]));

    follower2.stop();
    leader.shutdown();
    fdb.close().unwrap();
}

/// Epoch fencing: once a leader observes a higher epoch (here via a vote
/// request), every mutation is refused with the typed `StaleEpoch` —
/// before touching the engine — and its subscriber stream is fenced too.
#[test]
fn deposed_leader_write_fails_with_stale_epoch() {
    let _g = fault::exclusive();
    let (leader, ldb, replicator, role) = start_leader("se-leader", AckLevel::SemiSync, 2);
    let (fdb, follower) = start_follower("se-follower", leader.local_addr());
    wait_subscribed(&replicator, 1);

    let mut c = KvClient::connect(leader.local_addr()).unwrap();
    c.put(b"before", b"fence").unwrap();

    // A candidate at epoch 7 asks for our vote; it is fully caught up so
    // the vote is granted — and the grant deposes this leader.
    let status = vote_rpc(
        &leader.local_addr().to_string(),
        7,
        u64::MAX,
        "127.0.0.99:1",
        Duration::from_millis(500),
    )
    .unwrap();
    assert!(status.granted, "caught-up candidate must win the vote");
    assert_eq!(status.epoch, 7);
    assert!(role.is_deposed());

    // The deposed leader refuses writes with StaleEpoch (not NotLeader:
    // this node *was* the leader and must not be trusted) and the client
    // surfaces it typed, without retry loops.
    match c.put(b"after", b"fence") {
        Err(Error::StaleEpoch { epoch, .. }) => assert_eq!(epoch, 7),
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    assert_eq!(c.observed_epoch(), 7);
    assert_eq!(
        ldb.get(b"after").unwrap(),
        None,
        "a fenced write must never reach the engine"
    );

    // The follower's stream is fenced as well: the sender winds the
    // session down with a final StaleEpoch frame.
    wait_until(
        5,
        || follower.state() == FollowerState::StaleLeader,
        "stream fencing",
    );

    follower.stop();
    leader.shutdown();
    fdb.close().unwrap();
}

/// Two followers hinting at each other must not trap the client: the
/// redirect chase is capped at `max_redirects` hops, surfaces the last
/// `NotLeader` and counts a `redirect_loops` event.
#[test]
fn client_redirect_loop_is_bounded() {
    let _g = fault::exclusive();
    let db_a = Arc::new(MioDb::open(test_opts("rl-a")).unwrap());
    let db_b = Arc::new(MioDb::open(test_opts("rl-b")).unwrap());
    let role_a = Arc::new(RoleState::new_follower(1, ""));
    let srv_a = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&db_a) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(None, None, Arc::clone(&role_a), ""),
    )
    .unwrap();
    let role_b = Arc::new(RoleState::new_follower(1, &srv_a.local_addr().to_string()));
    let srv_b = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&db_b) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(None, None, Arc::clone(&role_b), ""),
    )
    .unwrap();
    role_a.set_leader_hint(&srv_b.local_addr().to_string());

    let mut c = KvClient::connect_with(
        srv_a.local_addr(),
        ClientOptions {
            max_redirects: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    match c.put(b"nowhere", b"to-go") {
        Err(Error::NotLeader(_)) => {}
        other => panic!("expected NotLeader after the hop cap, got {other:?}"),
    }
    let counters = c.counters();
    assert_eq!(counters.redirects, 3, "exactly max_redirects hops");
    assert_eq!(counters.redirect_loops, 1, "the loop was counted");

    srv_a.shutdown();
    srv_b.shutdown();
    db_a.close().unwrap();
    db_b.close().unwrap();
}

/// Kill the leader of a three-node group: the followers detect the
/// death, elect the best-qualified successor (no operator), and zero
/// quorum-acked writes are lost. The old leader then rejoins as a
/// follower and catches up.
#[test]
fn three_node_automatic_failover_preserves_quorum_acked_writes() {
    let _g = fault::exclusive();
    let addrs = free_addrs(3);
    let opts = node_opts("fo3", AckLevel::Quorum);
    let mut nodes: Vec<Option<ReplNode>> = addrs
        .iter()
        .map(|a| {
            Some(
                ReplNode::start(
                    &GroupConfig {
                        self_addr: a.clone(),
                        peers: addrs.clone(),
                        initial_leader: addrs[0].clone(),
                    },
                    opts.clone(),
                )
                .unwrap(),
            )
        })
        .collect();
    wait_until(
        10,
        || nodes[0].as_ref().unwrap().replicator().subscriber_count() == 2,
        "both followers subscribed",
    );

    let oracle = DurableOracle::new();
    let mut c = KvClient::connect(addrs[0].as_str()).unwrap();
    for i in 0..25u32 {
        let key = format!("q{i:02}").into_bytes();
        let value = format!("v{i}").into_bytes();
        let token = oracle.begin_put(&key, &value);
        c.put(&key, &value).unwrap();
        oracle.ack(token);
    }

    // Crash. Everything quorum-acked before this instant must survive.
    let crash_ns = oracle.now_ns();
    let engine0 = nodes[0].take().unwrap().kill();

    wait_until(20, || leader_index(&nodes).is_some(), "automatic promotion");
    let li = leader_index(&nodes).unwrap();
    let new_leader = nodes[li].as_ref().unwrap();
    assert!(
        new_leader.role().epoch() >= 2,
        "promotion advances the epoch"
    );
    assert_eq!(new_leader.elections_won(), 1);
    oracle
        .verify_engine(new_leader.engine().as_ref(), crash_ns)
        .unwrap_or_else(|v| panic!("quorum-acked write lost in failover: {v:?}"));

    // The group keeps taking quorum writes (2 of 3 members remain).
    wait_until(
        10,
        || new_leader.replicator().subscriber_count() >= 1,
        "surviving follower re-subscribed",
    );
    let mut c2 = KvClient::connect(new_leader.addr()).unwrap();
    c2.put(b"post-failover", b"accepted").unwrap();

    // Stale-leader rejoin: the old leader restarts pointing at the
    // successor, streams (or snapshots) itself back and stays follower.
    let rejoin = ReplNode::start_with_engine(
        engine0,
        &GroupConfig {
            self_addr: addrs[0].clone(),
            peers: addrs.clone(),
            initial_leader: new_leader.addr().to_string(),
        },
        opts.clone(),
    )
    .unwrap();
    wait_until(
        20,
        || {
            rejoin
                .engine()
                .get(b"post-failover")
                .ok()
                .flatten()
                .as_deref()
                == Some(&b"accepted"[..])
        },
        "old leader caught up",
    );
    assert!(!rejoin.is_leader(), "the rejoined node must stay follower");

    rejoin.shutdown().unwrap();
    for n in nodes.into_iter().flatten() {
        n.shutdown().unwrap();
    }
}

/// Partition the leader away from its followers: quorum writes degrade
/// to the typed `QuorumLost` (never silent acceptance), the majority
/// side elects a successor, and on heal the stale leader discovers the
/// higher epoch, deposes itself and rejoins as a follower.
#[test]
fn partitioned_leader_degrades_to_quorum_lost_then_rejoins() {
    let _g = fault::exclusive();
    let addrs = free_addrs(3);
    let opts = node_opts("pt3", AckLevel::Quorum);
    let nodes: Vec<Option<ReplNode>> = addrs
        .iter()
        .map(|a| {
            Some(
                ReplNode::start(
                    &GroupConfig {
                        self_addr: a.clone(),
                        peers: addrs.clone(),
                        initial_leader: addrs[0].clone(),
                    },
                    opts.clone(),
                )
                .unwrap(),
            )
        })
        .collect();
    let node0 = nodes[0].as_ref().unwrap();
    wait_until(
        10,
        || node0.replicator().subscriber_count() == 2,
        "both followers subscribed",
    );
    let mut c = KvClient::connect(addrs[0].as_str()).unwrap();
    c.put(b"pre-partition", b"replicated").unwrap();

    node0.partition(true);
    wait_until(
        10,
        || node0.replicator().subscriber_count() == 0,
        "streams severed",
    );
    // Client traffic is still served — and refused typed.
    match c.put(b"during-partition", b"rejected") {
        Err(Error::QuorumLost { .. }) => {}
        other => panic!("partitioned quorum leader must refuse typed, got {other:?}"),
    }

    // The majority side moves on without us.
    wait_until(
        20,
        || {
            nodes[1..]
                .iter()
                .flatten()
                .any(|n| n.is_leader() && n.replicator().subscriber_count() >= 1)
        },
        "majority-side election",
    );
    let li = leader_index(&nodes[1..]).unwrap() + 1;
    let new_leader = nodes[li].as_ref().unwrap();
    let new_epoch = new_leader.role().epoch();
    assert!(new_epoch >= 2);
    let mut c2 = KvClient::connect(new_leader.addr()).unwrap();
    c2.put(b"post-election", b"accepted").unwrap();

    // Heal: the stale leader probes, observes the successor's epoch,
    // deposes itself and streams the new history as a follower.
    node0.partition(false);
    wait_until(
        20,
        || !node0.is_leader() && node0.role().epoch() >= new_epoch,
        "stale leader deposed on heal",
    );
    wait_until(
        20,
        || {
            node0
                .engine()
                .get(b"post-election")
                .ok()
                .flatten()
                .as_deref()
                == Some(&b"accepted"[..])
        },
        "healed node caught up",
    );
    // A client pointed at the healed ex-leader is redirected to the
    // successor once the node settles into its follower role.
    let mut c3 = KvClient::connect(addrs[0].as_str()).unwrap();
    wait_until(
        10,
        || c3.put(b"via-redirect", b"routed").is_ok(),
        "redirect through healed follower",
    );

    for n in nodes.into_iter().flatten() {
        n.shutdown().unwrap();
    }
}

/// A follower that fell behind a truncated log re-bootstraps *itself*:
/// snapshot fetch + restore + engine swap, with backoff across an
/// injected snapshot failure — no operator in the loop.
#[test]
fn follower_self_bootstraps_after_truncation() {
    let _g = fault::exclusive();
    let addrs = free_addrs(2);
    let mut opts = node_opts("sb2", AckLevel::Async);
    // Tiny retention: the log truncates far past a dead follower.
    opts.retain_bytes = 2048;
    let group = |leader: &str| GroupConfig {
        self_addr: String::new(), // filled per node below
        peers: addrs.clone(),
        initial_leader: leader.to_string(),
    };
    let leader = ReplNode::start(
        &GroupConfig {
            self_addr: addrs[0].clone(),
            ..group(&addrs[0])
        },
        opts.clone(),
    )
    .unwrap();
    let follower = ReplNode::start(
        &GroupConfig {
            self_addr: addrs[1].clone(),
            ..group(&addrs[0])
        },
        opts.clone(),
    )
    .unwrap();
    wait_until(
        10,
        || leader.replicator().subscriber_count() == 1,
        "follower subscribed",
    );
    let mut c = KvClient::connect(addrs[0].as_str()).unwrap();
    c.put(b"early", b"streamed").unwrap();
    wait_until(
        10,
        || follower.engine().get(b"early").ok().flatten().is_some(),
        "initial convergence",
    );

    // Kill the follower, then write enough to truncate the log front
    // well past its cursor.
    let engine1 = follower.kill();
    for i in 0..300u32 {
        c.put(format!("bulk{i:03}").as_bytes(), &[7u8; 64]).unwrap();
    }

    // One injected snapshot failure: the node must back off and retry on
    // its own.
    fault::arm(points::REPL_SNAPSHOT, FaultPolicy::FailOnce(1));
    let follower = ReplNode::start_with_engine(
        engine1,
        &GroupConfig {
            self_addr: addrs[1].clone(),
            ..group(&addrs[0])
        },
        opts.clone(),
    )
    .unwrap();
    wait_until(20, || follower.bootstrap_count() >= 1, "self bootstrap");
    fault::disarm_all();
    wait_until(
        20,
        || {
            follower.engine().get(b"bulk299").ok().flatten().is_some()
                && follower.engine().get(b"early").ok().flatten().is_some()
        },
        "post-bootstrap convergence",
    );
    assert!(!follower.is_leader());

    follower.shutdown().unwrap();
    leader.shutdown().unwrap();
}

/// Fast client options for the chaos writers: short timeouts, few
/// retries — failures are the point, the history records them.
fn chaos_client_opts() -> ClientOptions {
    ClientOptions {
        read_timeout: Some(Duration::from_secs(3)),
        write_timeout: Some(Duration::from_secs(3)),
        max_retries: 1,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        max_redirects: 4,
    }
}

/// One durable write attempt loop for the chaos matrix: rotate across
/// the group, record every attempt in the history (acked / maybe /
/// refused), and only count oracle acks for definite successes. Each
/// attempt writes a distinct value so the linearizability pass never
/// sees ambiguous duplicates.
fn chaos_put(
    addrs: &[String],
    log: &mut ProcessLog,
    oracle: Option<&DurableOracle>,
    key: &[u8],
    value_base: &str,
) -> bool {
    for attempt in 0..40u32 {
        let addr = &addrs[attempt as usize % addrs.len()];
        let Ok(mut c) = KvClient::connect_with(addr.as_str(), chaos_client_opts()) else {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        let value = format!("{value_base}-a{attempt}").into_bytes();
        let token = oracle.map(|o| o.begin_put(key, &value));
        if log.client_put(&mut c, key, &value).is_ok() {
            if let (Some(o), Some(t)) = (oracle, token) {
                o.ack(t);
            }
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// One chaos phase: two writers hammer the group (shared keys feed the
/// linearizability pass, private keys feed the durable oracle) while
/// the caller injects failures through `mid_phase`.
fn chaos_phase(
    addrs: &[String],
    oracle: &DurableOracle,
    phase: u32,
    mid_phase: impl FnOnce() + Send,
) -> History {
    let recorder = HistoryRecorder::new();
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u32)
            .map(|w| {
                let mut log = recorder.log();
                s.spawn(move || {
                    let mut acked = 0u32;
                    for i in 0..12u32 {
                        let value_base = format!("p{phase}w{w}i{i}");
                        let ok = if i % 2 == 0 {
                            // Shared keyspace: cross-writer contention for
                            // the linearizability checker; the durable
                            // oracle skips these (single-writer floor).
                            let key = format!("fk{}", i % 6).into_bytes();
                            chaos_put(addrs, &mut log, None, &key, &value_base)
                        } else {
                            let key = format!("w{w}p{phase}k{}", i % 4).into_bytes();
                            chaos_put(addrs, &mut log, Some(oracle), &key, &value_base)
                        };
                        if ok {
                            acked += 1;
                        }
                    }
                    acked
                })
            })
            .collect();
        mid_phase();
        let acked: u32 = writers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(
            acked > 0,
            "phase {phase}: writers must make progress through the chaos"
        );
    });
    recorder.take_history()
}

/// The acceptance chaos matrix: leader kill → stale-leader rejoin →
/// follower kill/restart → partition during an election seeded with
/// dropped vote RPCs. Writers run *through* every transition; at the end
/// the merged history is per-key linearizable and the durable oracle
/// proves zero quorum-acked writes lost.
#[test]
fn chaos_matrix_survives_seeded_failures() {
    let _g = fault::exclusive();
    let addrs = free_addrs(3);
    let opts = node_opts("cx3", AckLevel::Quorum);
    let make_group = |i: usize, leader: &str| GroupConfig {
        self_addr: addrs[i].clone(),
        peers: addrs.clone(),
        initial_leader: leader.to_string(),
    };
    let mut nodes: Vec<Option<ReplNode>> = (0..3)
        .map(|i| Some(ReplNode::start(&make_group(i, &addrs[0]), opts.clone()).unwrap()))
        .collect();
    wait_until(
        10,
        || nodes[0].as_ref().unwrap().replicator().subscriber_count() == 2,
        "group assembled",
    );

    let oracle = DurableOracle::new();
    let mut phases: Vec<History> = Vec::new();

    // Phase 0: healthy baseline.
    phases.push(chaos_phase(&addrs, &oracle, 0, || {}));

    // Phase 1: kill the leader mid-writes; the survivors must elect.
    let engine0 = {
        let n0 = nodes[0].take().unwrap();
        std::thread::sleep(Duration::from_millis(150));
        n0.kill()
    };
    phases.push(chaos_phase(&addrs, &oracle, 1, || {}));
    wait_until(20, || leader_index(&nodes).is_some(), "phase 1 promotion");

    // Phase 2: stale-leader rejoin — the old leader restarts pointing at
    // the successor and must end up a follower (snapshotting if its
    // unacked suffix diverged).
    let successor = nodes[leader_index(&nodes).unwrap()]
        .as_ref()
        .unwrap()
        .addr()
        .to_string();
    nodes[0] = Some(
        ReplNode::start_with_engine(engine0, &make_group(0, &successor), opts.clone()).unwrap(),
    );
    phases.push(chaos_phase(&addrs, &oracle, 2, || {}));
    assert!(
        !nodes[0].as_ref().unwrap().is_leader(),
        "a rejoined stale leader must not lead"
    );

    // Phase 3: kill a follower (quorum 2-of-3 still holds), restart it.
    let fi = (0..3)
        .find(|&i| !nodes[i].as_ref().unwrap().is_leader())
        .unwrap();
    let enginef = nodes[fi].take().unwrap().kill();
    phases.push(chaos_phase(&addrs, &oracle, 3, || {}));
    let successor = nodes[leader_index(&nodes).unwrap()]
        .as_ref()
        .unwrap()
        .addr()
        .to_string();
    nodes[fi] = Some(
        ReplNode::start_with_engine(enginef, &make_group(fi, &successor), opts.clone()).unwrap(),
    );

    // Phase 4: partition the leader during an election seeded with
    // dropped vote RPCs — elections must retry through the drops.
    fault::arm(
        points::REPL_VOTE_DROP,
        FaultPolicy::FailProbability {
            num: 1,
            den: 3,
            seed: 11,
        },
    );
    let pi = leader_index(&nodes).unwrap();
    nodes[pi].as_ref().unwrap().partition(true);
    phases.push(chaos_phase(&addrs, &oracle, 4, || {}));
    wait_until(
        30,
        || {
            (0..3).any(|i| {
                i != pi
                    && nodes[i]
                        .as_ref()
                        .is_some_and(|n| n.is_leader() && n.replicator().subscriber_count() >= 1)
            })
        },
        "election through dropped votes",
    );
    fault::disarm_all();
    nodes[pi].as_ref().unwrap().partition(false);
    let final_epoch = nodes
        .iter()
        .flatten()
        .map(|n| n.role().epoch())
        .max()
        .unwrap();
    wait_until(
        30,
        || !nodes[pi].as_ref().unwrap().is_leader(),
        "partitioned leader deposed on heal",
    );

    // Phase 5: calm — the healed group takes writes again.
    phases.push(chaos_phase(&addrs, &oracle, 5, || {}));

    // Oracles. Every write quorum-acked at ANY point must be present on
    // the final leader — zero acked writes lost across the whole matrix.
    let li = leader_index(&nodes).unwrap();
    let final_leader = nodes[li].as_ref().unwrap();
    assert!(final_leader.role().epoch() >= final_epoch.min(2));
    oracle
        .verify_engine(final_leader.engine().as_ref(), oracle.now_ns())
        .unwrap_or_else(|v| panic!("quorum-acked write lost in the chaos matrix: {v:?}"));
    let merged = History::merge_sequential(phases);
    let verdict = check_history(&merged);
    assert!(
        verdict.is_linearizable(),
        "merged chaos history not linearizable: {verdict:?}"
    );

    for n in nodes.into_iter().flatten() {
        n.shutdown().unwrap();
    }
}
