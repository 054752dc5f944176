//! Torn-write sweep over the manifest commit path: a crash can leave any
//! single byte of a header slot or payload region corrupted, and
//! [`Manifest::load`] / [`MioDb::recover`] must come back with either a
//! clean (possibly older) state or a typed error — never a panic.
//!
//! The sweep is exhaustive: every byte offset of both 64-byte header slots
//! and of both referenced payload regions is flipped in turn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use miodb_common::{KvEngine, Stats};
use miodb_core::manifest::{Manifest, ManifestState};
use miodb_core::{MioDb, MioOptions};
use miodb_pmem::{DeviceModel, PmemPool};

const SLOT_BYTES: u64 = 64;

fn pool() -> Arc<PmemPool> {
    PmemPool::new(
        8 << 20,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap()
}

/// A state with enough structure to exercise every decoder branch.
fn sample_state(seq: u64) -> ManifestState {
    use miodb_core::manifest::{LevelState, RepoState, TableState};
    use miodb_pmem::PmemRegion;
    ManifestState {
        seq,
        active_wal: vec![PmemRegion {
            offset: 65536,
            len: 4096,
        }],
        imm_wal: Some(vec![PmemRegion {
            offset: 131072,
            len: 4096,
        }]),
        levels: vec![
            LevelState {
                mark: Some(PmemRegion {
                    offset: 70000,
                    len: 64,
                }),
                merging: None,
                lazy_draining: None,
                tables: vec![TableState {
                    head: 80000,
                    len: 10,
                    data_bytes: 1000,
                    newest_seq: seq,
                    arenas: vec![PmemRegion {
                        offset: 80000,
                        len: 8192,
                    }],
                }],
            },
            LevelState::default(),
        ],
        repo: Some(RepoState {
            head: 90000,
            chunk_size: 65536,
            cursor: 90100,
            end: 155536,
            chunks: vec![PmemRegion {
                offset: 90000,
                len: 65536,
            }],
        }),
    }
}

/// Flips `byte` at pool offset `off`, runs `Manifest::load`, restores the
/// byte, and reports (no_panic, load_result_seq).
fn load_with_flipped_byte(p: &Arc<PmemPool>, off: u64) -> (bool, Option<Option<u64>>) {
    let mut orig = [0u8; 1];
    p.read_bytes(off, &mut orig);
    p.write_bytes(off, &[orig[0] ^ 0xFF]);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Manifest::load(Arc::clone(p)).map(|(_, s)| s.map(|s| s.seq))
    }));
    p.write_bytes(off, &orig);
    match outcome {
        Ok(Ok(seq)) => (true, Some(seq)),
        Ok(Err(_)) => (true, None),
        Err(_) => (false, None),
    }
}

#[test]
fn slot_header_corruption_sweep_never_panics() {
    let p = pool();
    let m = Manifest::create(Arc::clone(&p));
    m.store(&sample_state(1)).unwrap();
    m.store(&sample_state(2)).unwrap();
    drop(m);
    // Flip every byte of both 64-byte header slots. One slot is always
    // intact, so load must not only avoid panicking, it must still return
    // *a* committed state (version 1 or 2) or a typed error — never None.
    for off in 0..2 * SLOT_BYTES {
        let (no_panic, result) = load_with_flipped_byte(&p, off);
        assert!(
            no_panic,
            "Manifest::load panicked with slot byte {off} flipped"
        );
        if let Some(seq) = result {
            assert!(
                matches!(seq, Some(1) | Some(2)),
                "slot byte {off} flipped: load returned unexpected state {seq:?}"
            );
        }
    }
}

#[test]
fn payload_corruption_sweep_falls_back_to_older_state() {
    let p = pool();
    let m = Manifest::create(Arc::clone(&p));
    m.store(&sample_state(1)).unwrap();
    m.store(&sample_state(2)).unwrap();
    drop(m);
    // Locate both payload regions from the (intact) header slots.
    for slot_idx in 0..2u64 {
        let mut slot = [0u8; SLOT_BYTES as usize];
        p.read_bytes(slot_idx * SLOT_BYTES, &mut slot);
        let version = u64::from_le_bytes(slot[0..8].try_into().unwrap());
        let off = u64::from_le_bytes(slot[8..16].try_into().unwrap());
        let payload_len = u64::from_le_bytes(slot[24..32].try_into().unwrap());
        assert!(version == 1 || version == 2);
        // Corrupting one payload byte must flip that slot's CRC check and
        // make load fall back to the other slot's state.
        let other = if version == 1 { 2 } else { 1 };
        for b in 0..payload_len {
            let (no_panic, result) = load_with_flipped_byte(&p, off + b);
            assert!(
                no_panic,
                "Manifest::load panicked with payload byte {b} of v{version} flipped"
            );
            assert_eq!(
                result,
                Some(Some(other)),
                "payload byte {b} of v{version} flipped: expected fallback to v{other}"
            );
        }
    }
}

#[test]
fn both_slots_corrupted_is_a_clean_miss_or_typed_error() {
    let p = pool();
    let m = Manifest::create(Arc::clone(&p));
    m.store(&sample_state(1)).unwrap();
    m.store(&sample_state(2)).unwrap();
    drop(m);
    // Zero the CRC of both slots: with no valid candidate left, load must
    // report "no manifest" (fresh pool) or a typed error, not garbage.
    for slot_idx in 0..2u64 {
        p.write_bytes(slot_idx * SLOT_BYTES + 32, &[0xAA; 4]);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| Manifest::load(Arc::clone(&p))));
    match outcome {
        Ok(Ok((_, state))) => assert!(state.is_none(), "loaded garbage state"),
        Ok(Err(_)) => {}
        Err(_) => panic!("Manifest::load panicked with both slots corrupted"),
    }
}

/// Full-engine variant: corrupt the manifest region inside a real snapshot
/// file, then drive `restore_from_file` + `MioDb::recover`. The engine must
/// open (older manifest or WAL replay) or fail with a typed error.
#[test]
fn engine_recovery_survives_manifest_corruption_in_snapshot() {
    let opts = MioOptions::small_for_tests();
    let path = std::env::temp_dir().join(format!("miodb-torn-manifest-{}", std::process::id()));
    {
        let db = MioDb::open(opts.clone()).unwrap();
        for i in 0..400u32 {
            db.put(format!("key{i:05}").as_bytes(), &[5u8; 128])
                .unwrap();
        }
        db.wait_idle().unwrap();
        db.snapshot(&path).unwrap();
        db.close().unwrap();
    }
    let original = std::fs::read(&path).unwrap();
    // Snapshot layout: magic(8) version(4) capacity(8) high_water(8)
    // n_holes(8) holes(16 each), then raw pool contents — whose first
    // 128 bytes are the two manifest slots.
    let n_holes = u64::from_le_bytes(original[28..36].try_into().unwrap()) as usize;
    let contents_base = 36 + 16 * n_holes;
    // Sweep the whole file header plus the manifest slot region.
    let sweep_end = (contents_base + 2 * SLOT_BYTES as usize).min(original.len());
    for off in 0..sweep_end {
        let mut torn = original.clone();
        torn[off] ^= 0xFF;
        std::fs::write(&path, &torn).unwrap();
        let opts = opts.clone();
        let path = path.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let pool = PmemPool::restore_from_file(&path, opts.nvm_device, Arc::new(Stats::new()))?;
            let db = MioDb::recover(pool, opts)?;
            // If the engine opened, it must still serve reads and writes.
            db.get(b"key00000")?;
            db.put(b"probe", b"ok")?;
            db.close()
        }));
        assert!(
            outcome.is_ok(),
            "recovery panicked with snapshot byte {off} flipped"
        );
    }
    std::fs::remove_file(&path).ok();
}
