//! Trace-correctness integration tests: span trees produced by live
//! engine and server runs must be well-nested with monotonic timestamps,
//! background spans must agree with the engine's counters, trace ids must
//! survive the wire unchanged, and disabled tracing must stay cheap enough
//! to leave compiled into every build.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use miodb::common::trace::{self, SpanKind, SpanLayer, SpanRecord};
use miodb::pmem::DeviceModel;
use miodb::{KvClient, KvEngine, KvServer, MioDb, MioOptions, ServerOptions};

/// Groups spans by trace id, dropping the background track (trace 0).
fn by_trace(spans: &[SpanRecord]) -> HashMap<u64, Vec<&SpanRecord>> {
    let mut m: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if s.trace_id != 0 {
            m.entry(s.trace_id).or_default().push(s);
        }
    }
    m
}

/// Every span must close after it opens, and every child must lie within
/// its parent's [start, end] window — the RAII guards guarantee this by
/// construction, so a violation means the context save/restore broke.
fn assert_well_nested(spans: &[&SpanRecord]) {
    let index: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, *s)).collect();
    for s in spans {
        assert!(
            s.end_ns >= s.start_ns,
            "span {:?} ends before it starts",
            s.kind
        );
        if s.parent_id == 0 {
            continue;
        }
        // Parents can be missing (e.g. the ring dropped them); nesting is
        // only checkable when both ends survived.
        if let Some(p) = index.get(&s.parent_id) {
            assert!(
                s.start_ns >= p.start_ns && s.end_ns <= p.end_ns,
                "{:?} [{}-{}] escapes parent {:?} [{}-{}]",
                s.kind,
                s.start_ns,
                s.end_ns,
                p.kind,
                p.start_ns,
                p.end_ns
            );
        }
    }
}

#[test]
fn engine_spans_form_well_nested_trees_with_monotonic_timestamps() {
    let _x = trace::exclusive();
    // Direct drive: implicit roots give each engine op its own trace.
    trace::enable(1 << 16, 1, true);
    let db = MioDb::open(MioOptions::small_for_tests()).unwrap();
    for i in 0..200u32 {
        let key = format!("trace-key-{i:04}");
        db.put(key.as_bytes(), &[b'v'; 64]).unwrap();
        assert!(db.get(key.as_bytes()).unwrap().is_some());
    }
    db.close().unwrap();
    let spans = trace::drain();
    trace::disable();

    let traces = by_trace(&spans);
    assert!(
        traces.len() >= 200,
        "expected >=200 traces (one per op), got {}",
        traces.len()
    );
    let mut engine_kinds: HashSet<SpanKind> = HashSet::new();
    for group in traces.values() {
        assert_well_nested(group);
        for s in group {
            if s.kind.layer() == SpanLayer::Engine {
                engine_kinds.insert(s.kind);
            }
        }
    }
    assert!(
        engine_kinds.contains(&SpanKind::MemtableProbe),
        "reads must produce memtable-probe spans, saw {engine_kinds:?}"
    );
    assert!(
        engine_kinds.contains(&SpanKind::MemtableInsert),
        "writes must produce memtable-insert spans, saw {engine_kinds:?}"
    );
}

/// A flush, swizzle or compaction is recorded once, by one `Interval`:
/// after `wait_idle` the background spans it closed and the counters it
/// bumped must tell the same story.
#[test]
fn background_spans_agree_with_counters() {
    let _x = trace::exclusive();
    // Background spans only: no request context, no implicit roots.
    trace::enable(1 << 16, 1, false);
    let db = MioDb::open(MioOptions::small_for_tests()).unwrap();
    let value = vec![0xA5u8; 256];
    for i in 0..3000u32 {
        db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
    }
    for i in 0..100u32 {
        db.delete(format!("key{i:06}").as_bytes()).unwrap();
    }
    db.wait_idle().unwrap();
    let stats = db.report().stats;
    let spans = trace::drain();
    assert_eq!(trace::dropped_spans(), 0, "span ring overflowed");
    db.close().unwrap();

    let count = |kind| spans.iter().filter(|s| s.kind == kind).count() as u64;
    assert!(stats.flush_count >= 2, "expected several flushes");
    assert_eq!(count(SpanKind::Flush), stats.flush_count, "flush spans");
    assert_eq!(count(SpanKind::Swizzle), stats.flush_count, "swizzle spans");
    let compactions = stats.zero_copy_compactions + stats.copy_compactions;
    assert!(compactions >= 1, "expected at least one compaction");
    assert_eq!(count(SpanKind::Compaction), compactions, "compaction spans");
    for s in &spans {
        assert!(s.end_ns >= s.start_ns, "{:?} ends before it starts", s.kind);
    }
}

/// The flush worker sleeps its modeled device time off instead of spinning
/// it, but a flush still takes it: on a throttled pool every flush span
/// lasts at least the modeled write of the bytes it copied.
#[test]
fn flush_spans_last_their_modeled_device_time() {
    let _x = trace::exclusive();
    trace::enable(1 << 16, 1, false);
    let nvm = DeviceModel::nvm();
    let db = MioDb::open(MioOptions {
        memtable_bytes: 256 * 1024,
        nvm_device: nvm,
        ..MioOptions::small_for_tests()
    })
    .unwrap();
    let value = vec![0x5Au8; 1024];
    for i in 0..2000u32 {
        db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
    }
    db.wait_idle().unwrap();
    let spans = trace::drain();
    trace::disable();
    let stats = db.report().stats;
    db.close().unwrap();

    let flushes: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == SpanKind::Flush).collect();
    assert!(
        flushes.len() >= 4,
        "expected several flushes, saw {}",
        flushes.len()
    );
    for s in &flushes {
        let modeled = nvm.write_delay_ns(s.arg as usize);
        let took = s.end_ns - s.start_ns;
        assert!(
            took >= modeled,
            "flush of {} B took {took} ns, modeled {modeled} ns",
            s.arg
        );
    }
    // The flusher and compactors charged their device time as background
    // time; the writer only its own WAL appends and inserts.
    assert!(stats.device_model_bg_ns >= flushes.len() as u64 * nvm.write_delay_ns(0));
    assert!(stats.device_model_fg_ns > 0);
}

#[test]
fn trace_ids_propagate_unchanged_across_the_wire() {
    let _x = trace::exclusive();
    let db: Arc<dyn KvEngine> = Arc::new(
        MioDb::open(MioOptions {
            name: "MioDB-trace-test".to_string(),
            ..MioOptions::small_for_tests()
        })
        .unwrap(),
    );
    let server = KvServer::start("127.0.0.1:0", db, ServerOptions::default()).unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();

    trace::enable(1 << 16, 1, false);
    for i in 0..50u32 {
        let key = format!("wire-key-{i:03}");
        client.put(key.as_bytes(), b"wire-value").unwrap();
        assert_eq!(
            client.get(key.as_bytes()).unwrap().as_deref(),
            Some(&b"wire-value"[..]),
            "tracing must not alter request semantics"
        );
    }
    client.close().unwrap();
    let spans = trace::drain();
    trace::disable();
    server.shutdown();

    let client_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::ClientRequest)
        .map(|s| s.trace_id)
        .collect();
    let server_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::SrvRequest)
        .map(|s| s.trace_id)
        .collect();
    assert!(client_ids.len() >= 100, "one client span per request");
    // Every server-side trace id was minted by the client and crossed the
    // frame header verbatim — the server never invents ids of its own.
    assert!(
        server_ids.is_subset(&client_ids),
        "server saw trace ids the client never sent"
    );
    assert!(
        !server_ids.is_empty() && server_ids.intersection(&client_ids).count() > 0,
        "no trace crossed the wire"
    );
    // At least one request's engine work joined the same trace.
    let engine_joined = spans
        .iter()
        .any(|s| s.kind.layer() == SpanLayer::Engine && client_ids.contains(&s.trace_id));
    assert!(engine_joined, "engine spans never joined a client trace");
    // Complete client->server->engine trees exist end to end.
    assert!(trace::complete_tree_count(&spans) > 0);
}

#[test]
fn disabled_tracing_costs_next_to_nothing() {
    let _x = trace::exclusive();
    assert!(!trace::is_enabled());
    // Warm the code path once.
    for _ in 0..1000 {
        let g = trace::span(SpanKind::MemtableProbe);
        assert!(!g.is_active());
    }
    const ITERS: u32 = 100_000;
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        let _g = trace::span(SpanKind::MemtableProbe);
    }
    let per_call = t0.elapsed().as_nanos() / u128::from(ITERS);
    // One relaxed atomic load plus a branch; the bound is generous so a
    // slow CI host cannot flake, but catches any lock or allocation
    // sneaking onto the disabled path.
    assert!(
        per_call < 1_000,
        "disabled span() costs {per_call}ns/call, expected well under 1us"
    );
    assert!(trace::drain().is_empty(), "disabled tracing recorded spans");
}
