//! Layer probes of the traced run: each replays the workload's own key and
//! value shapes straight into one layer's public API and times it from
//! outside. Where a layer touches the device model the probe runs twice —
//! on a throttled pool (`_ns`) and an unthrottled one (`_cpu_ns`); the
//! difference is modeled device time and is never booked as CPU.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use miodb_bloom::BloomFilter;
use miodb_common::proto::{self, FrameDecoder};
use miodb_common::{KvEngine, OpKind, Opcode, Request, Response, Result, Stats};
use miodb_core::{MioDb, MioOptions};
use miodb_pmem::device::busy_delay_ns;
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::merge::MergeLimits;
use miodb_skiplist::{one_piece_flush, swizzle, zero_copy_merge, InsertionMark, SkipListArena};
use miodb_wal::{GroupOp, WriteAheadLog};

use crate::gen::{absent_key, fill_value, permutation, present_key, Rng, KEY_LEN};
use crate::host;
use crate::stats::median_f64;
use crate::system::{engine_options, Dataset, MEMTABLE_BYTES};

pub type Rows = BTreeMap<&'static str, f64>;

/// Records the core probe engine holds: about 60 MemTables of 1 KiB values.
const CORE_PROBE_RECORDS: u64 = 30_000;
/// Entries of the deep table `skiplist.get_deep_ns` descends.
const DEEP_TABLE_ENTRIES: u64 = 64_000;
/// `skiplist.insert_ns` fills this many MemTable-sized arenas, each from
/// its own stretch of this many records (more than an arena holds).
const INSERT_ARENAS: usize = 12;
const ARENA_CHUNK: usize = 4096;
/// Records the durability probe writes into its 64 MiB pool.
const RECOVER_PROBE_RECORDS: u64 = 20_000;

fn ns_per_op(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn pool(bytes: usize, device: DeviceModel) -> Result<Arc<PmemPool>> {
    PmemPool::new(bytes, device, Arc::new(Stats::new()))
}

fn value_of(seed: u64, record: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_value(seed, record, 0, &mut v);
    v
}

/// Fills an arena with records `order[..]` until it is full; returns how
/// many went in.
fn fill_arena(arena: &SkipListArena, order: &[u32], value: &[u8], seq0: u64) -> usize {
    let mut n = 0;
    for &r in order {
        if !arena.fits(KEY_LEN, value.len()) {
            break;
        }
        if arena
            .insert(
                &present_key(u64::from(r)),
                value,
                seq0 + n as u64,
                OpKind::Put,
            )
            .is_err()
        {
            break;
        }
        n += 1;
    }
    n
}

fn pmem_rows(rows: &mut Rows) -> Result<()> {
    let buf = vec![0xA5u8; 1024];
    let mut out = vec![0u8; 1024];
    for (device, write_row, read_row) in [
        (
            DeviceModel::nvm(),
            "pmem.write_1k_ns",
            Some("pmem.read_1k_ns"),
        ),
        (DeviceModel::nvm_unthrottled(), "pmem.write_1k_cpu_ns", None),
    ] {
        let p = pool(32 << 20, device)?;
        let region = p.alloc(16 << 20)?;
        let slots = (region.len / 1024) as usize;
        rows.insert(
            write_row,
            ns_per_op(20_000, |i| {
                p.write_bytes(region.offset + ((i % slots) * 1024) as u64, &buf)
            }),
        );
        if let Some(row) = read_row {
            rows.insert(
                row,
                ns_per_op(20_000, |i| {
                    p.read_bytes(region.offset + ((i % slots) * 1024) as u64, &mut out)
                }),
            );
        }
        if device.throttled {
            let mut regions = Vec::with_capacity(10_000);
            let alloc_ns = ns_per_op(10_000, |_| regions.extend(p.alloc(1024).ok()));
            rows.insert("pmem.alloc_ns", alloc_ns);
            for r in regions {
                p.free(r);
            }
        }
    }
    // The simulator's own error: how much longer a modeled 90 ns write and
    // 250 ns read actually spin.
    let overshoot = |ns: u64| ns_per_op(20_000, |_| busy_delay_ns(ns)) - ns as f64;
    rows.insert(
        "pmem.spin_overshoot_ns",
        (overshoot(90) + overshoot(250)) / 2.0,
    );
    rows.insert(
        "host.spin_1us_actual_ns",
        ns_per_op(5_000, |_| busy_delay_ns(1000)),
    );
    let t = Instant::now();
    let touched = pool(256 << 20, DeviceModel::nvm_unthrottled())?;
    rows.insert(
        "pmem.first_touch_ms_per_gb",
        t.elapsed().as_secs_f64() * 1e3 * 4.0,
    );
    drop(touched);
    Ok(())
}

fn skiplist_rows(rows: &mut Rows, data: Dataset) -> Result<()> {
    let value = value_of(data.seed, 0, data.value_len);
    let order = permutation(DEEP_TABLE_ENTRIES, &mut Rng::for_stream(data.seed, 0x5C1));
    let dram = pool(64 << 20, DeviceModel::dram())?;

    // Single-writer inserts into MemTable-sized arenas, as the engine does.
    let (mut inserted, mut insert_ns) = (0usize, 0u128);
    let mut last = None;
    for chunk in order.chunks(ARENA_CHUNK).take(INSERT_ARENAS) {
        let arena = SkipListArena::new(dram.clone(), MEMTABLE_BYTES)?;
        let t = Instant::now();
        inserted += fill_arena(&arena, chunk, &value, 1);
        insert_ns += t.elapsed().as_nanos();
        if let Some(prev) = last.replace(arena) {
            SkipListArena::release(prev);
        }
    }
    rows.insert(
        "skiplist.insert_ns",
        insert_ns as f64 / inserted.max(1) as f64,
    );
    let memtable = last.expect("at least one arena was filled");
    let held = memtable.len();

    // Two threads splicing into one arena with CAS.
    let shared = SkipListArena::new(dram.clone(), MEMTABLE_BYTES)?;
    let per_thread = held / 2;
    let t = Instant::now();
    std::thread::scope(|s| {
        for half in 0..2usize {
            let (shared, value) = (&shared, &value);
            s.spawn(move || {
                for i in 0..per_thread {
                    let record = (half * per_thread + i) as u64;
                    let _ = shared.insert_concurrent(
                        &present_key(record),
                        value,
                        1 + record,
                        OpKind::Put,
                    );
                }
            });
        }
    });
    rows.insert(
        "skiplist.insert_concurrent_ns",
        t.elapsed().as_nanos() as f64 * 2.0 / (2 * per_thread).max(1) as f64,
    );
    SkipListArena::release(shared);

    // Lookups in the MemTable-sized table: the last chunk's records are in.
    let present = &order[(INSERT_ARENAS - 1) * ARENA_CHUNK..][..held];
    let list = memtable.list();
    rows.insert(
        "skiplist.get_hit_ns",
        ns_per_op(20_000, |i| {
            std::hint::black_box(list.get(&present_key(u64::from(present[i % present.len()]))));
        }),
    );
    rows.insert(
        "skiplist.get_miss_ns",
        ns_per_op(20_000, |i| {
            std::hint::black_box(list.get(&absent_key(u64::from(present[i % present.len()]))));
        }),
    );

    // One-piece flush, swizzle and zero-copy merge of two such tables, on
    // the throttled model and on an unthrottled pool.
    let second = SkipListArena::new(dram.clone(), MEMTABLE_BYTES)?;
    fill_arena(
        &second,
        &order[order.len() - ARENA_CHUNK..],
        &value,
        100_000,
    );
    for (device, throttled) in [
        (DeviceModel::nvm(), true),
        (DeviceModel::nvm_unthrottled(), false),
    ] {
        let nvm = pool(16 << 20, device)?;
        let t = Instant::now();
        let old = one_piece_flush(&memtable, &nvm)?;
        let flush_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        swizzle(&nvm, &old);
        let swizzle_ns = t.elapsed().as_nanos() as f64;
        let new = one_piece_flush(&second, &nvm)?;
        swizzle(&nvm, &new);
        let mark = InsertionMark::alloc(&nvm)?;
        let t = Instant::now();
        let merged = zero_copy_merge(&nvm, new.head, old.head, &mark, MergeLimits::none());
        let per_node = t.elapsed().as_nanos() as f64 / merged.stats().moved.max(1) as f64;
        if throttled {
            rows.insert(
                "skiplist.flush_mb_per_s",
                old.bytes as f64 / 1e6 / flush_s.max(1e-9),
            );
            rows.insert(
                "skiplist.swizzle_ns_per_node",
                swizzle_ns / old.len.max(1) as f64,
            );
            rows.insert("skiplist.merge_ns_per_node", per_node);
        } else {
            rows.insert("skiplist.merge_cpu_ns_per_node", per_node);
        }
    }
    SkipListArena::release(second);
    SkipListArena::release(memtable);
    drop(dram);

    // Descent of a table as deep as a bottom-buffer one (128 MemTables'
    // worth of entries), values shortened so it fits a small pool.
    let deep_pool = pool(32 << 20, DeviceModel::nvm_unthrottled())?;
    let deep = SkipListArena::new(deep_pool, 24 << 20)?;
    let short = &value[..64.min(value.len())];
    let held = fill_arena(&deep, &order, short, 1);
    let list = deep.list();
    rows.insert(
        "skiplist.get_deep_ns",
        ns_per_op(20_000, |i| {
            std::hint::black_box(list.get(&present_key(u64::from(order[(i * 7) % held]))));
        }),
    );
    Ok(())
}

fn bloom_rows(rows: &mut Rows, opts: &MioOptions) {
    let expected = opts.bloom_expected_keys();
    let keys = 50_000u64;
    let mut a = BloomFilter::with_bits_per_key(expected, opts.bloom_bits_per_key);
    rows.insert(
        "bloom.insert_ns",
        ns_per_op(keys as usize, |i| a.insert(&present_key(i as u64))),
    );
    rows.insert(
        "bloom.probe_hit_ns",
        ns_per_op(keys as usize, |i| {
            std::hint::black_box(a.may_contain(&present_key(i as u64)));
        }),
    );
    let mut false_positives = 0u64;
    rows.insert(
        "bloom.probe_miss_ns",
        ns_per_op(keys as usize, |i| {
            false_positives += u64::from(a.may_contain(&absent_key(i as u64)))
        }),
    );
    rows.insert("bloom.fp_rate", false_positives as f64 / keys as f64);
    let mut b = BloomFilter::with_bits_per_key(expected, opts.bloom_bits_per_key);
    for i in keys..2 * keys {
        b.insert(&present_key(i));
    }
    let merges: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let _ = a.merge(&b);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    rows.insert("bloom.merge_us", median_f64(&merges));
}

fn wal_rows(rows: &mut Rows, data: Dataset) -> Result<()> {
    let value = value_of(data.seed, 0, data.value_len);
    let n = 16_000usize;
    for (device, row) in [
        (DeviceModel::nvm(), "wal.append_ns"),
        (DeviceModel::nvm_unthrottled(), "wal.append_cpu_ns"),
    ] {
        let p = pool(2 * n * (value.len() + 64) + (8 << 20), device)?;
        let wal = WriteAheadLog::new(p.clone(), MEMTABLE_BYTES)?;
        rows.insert(
            row,
            ns_per_op(n, |i| {
                let _ = wal.append(&present_key(i as u64), &value, 1 + i as u64, OpKind::Put);
            }),
        );
        if device.throttled {
            rows.insert(
                "wal.bytes_per_user_byte",
                wal.bytes_written() as f64 / (n * (KEY_LEN + value.len())) as f64,
            );
            let segments = wal.segments();
            let t = Instant::now();
            let replayed = WriteAheadLog::replay(&p, &segments)?;
            let bytes: usize = replayed.iter().map(|r| r.key.len() + r.value.len()).sum();
            rows.insert(
                "wal.replay_mb_per_s",
                bytes as f64 / 1e6 / t.elapsed().as_secs_f64().max(1e-9),
            );
            wal.release();

            let grouped = WriteAheadLog::new(p.clone(), MEMTABLE_BYTES)?;
            let keys: Vec<[u8; KEY_LEN]> = (0..32).map(present_key).collect();
            let ops: Vec<GroupOp<'_>> = keys
                .iter()
                .map(|key| GroupOp {
                    key,
                    value: &value,
                    kind: OpKind::Put,
                })
                .collect();
            let groups = n / 32;
            let per_group = ns_per_op(groups, |g| {
                let _ = grouped.append_group(&ops, 1 + (g * 32) as u64);
            });
            rows.insert("wal.append_group_ns_per_op", per_group / 32.0);
        }
    }
    Ok(())
}

fn proto_rows(rows: &mut Rows, data: Dataset) {
    // The served workloads' mix: every other frame a PUT, the rest GETs.
    let value = value_of(data.seed, 0, data.value_len);
    let key = present_key(7).to_vec();
    let requests = [
        Request::Put {
            key: key.clone(),
            value: value.clone(),
        },
        Request::Get { key },
    ];
    let responses = [
        (Opcode::Put, Response::Ok),
        (Opcode::Get, Response::Value(Some(value))),
    ];
    let n = 20_000usize;

    let mut wire = Vec::with_capacity(n * 200);
    rows.insert(
        "proto.encode_req_ns",
        ns_per_op(n, |i| {
            let _ = proto::write_request(&mut wire, i as u32, &requests[i % 2]);
        }),
    );
    let mut decoder = FrameDecoder::new();
    decoder.feed(&wire);
    rows.insert(
        "proto.decode_req_ns",
        ns_per_op(n, |_| {
            if let Ok(Some(frame)) = decoder.next_frame() {
                std::hint::black_box(Request::decode(frame.opcode, &frame.body).ok());
            }
        }),
    );

    wire.clear();
    rows.insert(
        "proto.encode_resp_ns",
        ns_per_op(n, |i| {
            let (op, resp) = &responses[i % 2];
            let _ = proto::write_response(&mut wire, i as u32, *op, resp);
        }),
    );
    let mut decoder = FrameDecoder::new();
    decoder.feed(&wire);
    rows.insert(
        "proto.decode_resp_ns",
        ns_per_op(n, |_| {
            if let Ok(Some(frame)) = decoder.next_frame() {
                std::hint::black_box(Response::decode(frame.opcode, &frame.body).ok());
            }
        }),
    );
}

/// Median put and get latency of a small settled engine fed the workload's
/// shapes, on the given device model.
fn core_latencies(data: Dataset, device: DeviceModel) -> Result<(f64, f64)> {
    let probe = Dataset {
        records: CORE_PROBE_RECORDS,
        ..data
    };
    let db = MioDb::open(engine_options(probe, false, device))?;
    let order = permutation(probe.records, &mut Rng::for_stream(data.seed, 0xC0E));
    let mut value = vec![0u8; probe.value_len];
    let mut put_ns = Vec::with_capacity(order.len());
    for &r in &order {
        fill_value(probe.seed, u64::from(r), 0, &mut value);
        let key = present_key(u64::from(r));
        let t = Instant::now();
        db.put(&key, &value)?;
        put_ns.push(t.elapsed().as_nanos() as f64);
    }
    db.wait_idle()?;
    let mut get_ns = Vec::with_capacity(order.len());
    for &r in &order {
        let key = present_key(u64::from(r));
        let t = Instant::now();
        std::hint::black_box(db.get(&key)?);
        get_ns.push(t.elapsed().as_nanos() as f64);
    }
    db.close()?;
    Ok((median_f64(&put_ns), median_f64(&get_ns)))
}

fn core_rows(rows: &mut Rows, data: Dataset) -> Result<()> {
    let (put, get) = core_latencies(data, DeviceModel::nvm())?;
    let (put_cpu, get_cpu) = core_latencies(data, DeviceModel::nvm_unthrottled())?;
    rows.insert("core.put_cpu_ns", put_cpu);
    rows.insert("core.put_model_ns", put - put_cpu);
    rows.insert("core.get_cpu_ns", get_cpu);
    rows.insert("core.get_model_ns", get - get_cpu);
    Ok(())
}

/// Durability: snapshot the pool of a small engine mid-life, restore the
/// file into a fresh pool, recover, and read every acknowledged record.
fn recover_rows(rows: &mut Rows, data: Dataset, scratch_dir: &Path) -> Result<()> {
    let opts = MioOptions {
        nvm_pool_bytes: 64 << 20,
        ..engine_options(data, false, DeviceModel::nvm_unthrottled())
    };
    let records = RECOVER_PROBE_RECORDS.min((24 << 20) / (KEY_LEN + data.value_len) as u64);
    let db = MioDb::open(opts.clone())?;
    let mut value = vec![0u8; data.value_len];
    for r in 0..records {
        fill_value(data.seed, r, 0, &mut value);
        db.put(&present_key(r), &value)?;
    }
    std::fs::create_dir_all(scratch_dir)?;
    let file = scratch_dir.join(format!("recover-probe-{}.pool", std::process::id()));
    db.snapshot(&file)?;
    drop(db);

    let t = Instant::now();
    let restored = PmemPool::restore_from_file(&file, opts.nvm_device, Arc::new(Stats::new()));
    let _ = std::fs::remove_file(&file);
    let recovered = MioDb::recover(restored?, opts)?;
    rows.insert("core.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut lost = 0u64;
    for r in 0..records {
        fill_value(data.seed, r, 0, &mut value);
        lost += u64::from(recovered.get(&present_key(r))?.as_deref() != Some(value.as_slice()));
    }
    rows.insert("core.recover_lost_acked", lost as f64);
    recovered.close()
}

/// Runs every probe with the shapes of `data` (the workload's key and value
/// sizes and seed) and returns the rows they produce.
pub fn run_all(data: Dataset, opts: &MioOptions, scratch_dir: &Path) -> Result<Rows> {
    let mut rows = Rows::new();
    rows.insert("host.nproc", host::nproc() as f64);
    rows.insert("host.loopback_rtt_us", host::loopback_rtt_us(3000));
    rows.insert("host.memcpy_gb_per_s", host::memcpy_gb_per_s());
    pmem_rows(&mut rows)?;
    skiplist_rows(&mut rows, data)?;
    bloom_rows(&mut rows, opts);
    wal_rows(&mut rows, data)?;
    proto_rows(&mut rows, data);
    core_rows(&mut rows, data)?;
    recover_rows(&mut rows, data, scratch_dir)?;
    let unattributed =
        rows["core.put_cpu_ns"] - rows["wal.append_cpu_ns"] - rows["skiplist.insert_ns"];
    rows.insert("core.unattributed_put_ns", unattributed);
    Ok(rows)
}
