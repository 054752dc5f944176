//! The pool's memory is mapped the way a DAX device is: 2 MiB-aligned,
//! backed by transparent huge pages where the host allows them, zero and
//! resident at open, unmapped exactly on drop, and refused with a typed
//! error when the address space cannot hold it.
//!
//! The tests here measure the process (`VmSize`, `/proc/self/smaps`), so
//! they take one lock and run one at a time.

use std::sync::{Arc, Mutex, MutexGuard};

use miodb::pmem::{DeviceModel, PmemPool};
use miodb::{Error, KvEngine, MioDb, MioOptions, Stats};

/// Whether pools are anonymous mappings here (the Linux targets whose
/// syscall constants `miodb-pmem` declares) rather than heap blocks.
const MAPPED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

const HUGE_PAGE: usize = 2 << 20;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(
        bytes,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap()
}

fn base(p: &PmemPool) -> usize {
    // SAFETY: offset 0 lies in the header, which is zero from open on.
    unsafe { p.slice(0, 1) }.as_ptr() as usize
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let kib: u64 = line.trim().trim_end_matches("kB").trim().parse().unwrap();
    kib * 1024
}

/// Whether the host has transparent huge pages switched off (or has no
/// THP at all).
fn thp_never() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .map_or(true, |mode| mode.contains("[never]"))
}

#[test]
fn base_is_two_mib_aligned() {
    let _serial = serial();
    if !MAPPED {
        return;
    }
    for bytes in [1 << 20, 3 << 20, (64 << 20) + 4096, 256 << 20] {
        let p = pool(bytes);
        assert_eq!(base(&p) % HUGE_PAGE, 0, "{bytes}-byte pool");
    }
}

#[test]
fn every_page_reads_zero_at_open() {
    let _serial = serial();
    // Dirty a pool first so a reused range would show through.
    let dirty = pool(64 << 20);
    let r = dirty.alloc(32 << 20).unwrap();
    dirty.store_bytes(r.offset, &vec![0xA5; r.len as usize]);
    drop(dirty);

    let p = pool(64 << 20);
    for off in (0..p.capacity()).step_by(4096) {
        // SAFETY: nothing has been written; every byte is initialized zero.
        let first = unsafe { p.slice(off as u64, 1) }[0];
        assert_eq!(first, 0, "page at offset {off}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn create_drop_cycles_unmap_everything() {
    let _serial = serial();
    drop(pool(64 << 20));
    let start = status_bytes("VmSize:");
    for _ in 0..64 {
        drop(pool(64 << 20));
    }
    let end = status_bytes("VmSize:");
    assert!(
        end < start + (64 << 20),
        "VmSize grew from {start} to {end} over 64 create/drop cycles"
    );
}

#[test]
fn snapshot_restore_is_byte_identical_to_the_high_water_mark() {
    let _serial = serial();
    let p = pool(16 << 20);
    let mut high_water = 0;
    for i in 0..200u64 {
        let r = p.alloc(1000 + (i as usize * 37) % 3000).unwrap();
        let fill: Vec<u8> = (0..r.len).map(|b| (b ^ i) as u8).collect();
        p.write_bytes(r.offset, &fill);
        high_water = high_water.max(r.end());
        if i % 3 == 0 {
            p.free(r);
        }
    }
    let dir = std::env::temp_dir().join(format!("pool_mapping_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool.snap");
    p.snapshot_to_file(&path).unwrap();
    let restored = PmemPool::restore_from_file(
        &path,
        DeviceModel::nvm_unthrottled(),
        Arc::new(Stats::new()),
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(restored.capacity(), p.capacity());
    assert_eq!(restored.used_bytes(), p.used_bytes());
    let len = high_water as usize;
    // SAFETY: both pools are initialized throughout (zero at open, then
    // written or restored), and neither is written concurrently.
    let (before, after) = unsafe { (p.slice(0, len), restored.slice(0, len)) };
    assert!(before == after, "restored image differs below {len}");
    // SAFETY: as above.
    let rest = unsafe { restored.slice(high_water, restored.capacity() - len) };
    assert!(rest.iter().all(|&b| b == 0), "bytes above the mark");
}

#[test]
fn huge_page_gauge_is_bounded_and_nonzero_where_thp_is_on() {
    let _serial = serial();
    let p = pool(64 << 20);
    let huge = p.huge_page_bytes();
    assert!(huge <= p.capacity() as u64, "{huge} > {}", p.capacity());
    if MAPPED && !thp_never() {
        assert!(huge > 0, "THP is on but no huge page backs a 64 MiB pool");
    }
    if !MAPPED {
        assert_eq!(huge, 0);
    }
}

#[test]
fn engine_exports_both_pools_huge_page_bytes() {
    let _serial = serial();
    let opts = MioOptions::small_for_tests();
    let caps = [("nvm", opts.nvm_pool_bytes), ("dram", opts.dram_pool_bytes)];
    let db = MioDb::open(opts).unwrap();
    let text = db.metrics_text();
    assert!(
        text.contains("# TYPE miodb_pool_huge_page_bytes gauge"),
        "{text}"
    );
    for (label, capacity) in caps {
        let series = format!("miodb_pool_huge_page_bytes{{pool=\"{label}\"}} ");
        let value: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&series))
            .unwrap_or_else(|| panic!("no {series}in:\n{text}"))
            .parse()
            .unwrap();
        assert!(value <= capacity as f64, "{label}: {value} > {capacity}");
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
#[ignore = "runs as the child of pool_larger_than_the_address_space_is_refused"]
fn pool_past_the_limit_in_child() {
    // Run by the test below in a child process of its own. Lower the
    // limit only when run alone (`--ignored`): under `--include-ignored`
    // it would starve the neighbouring tests.
    if !std::env::args().any(|a| a == "--ignored") {
        return;
    }
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;

    let limit = status_bytes("VmSize:") + (256 << 20);
    let lim = Rlimit {
        cur: limit,
        max: limit,
    };
    // SAFETY: a valid rlimit struct for the duration of the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_AS, &lim) }, 0);

    let err = PmemPool::new(1 << 30, DeviceModel::dram(), Arc::new(Stats::new())).unwrap_err();
    assert!(
        matches!(err, Error::PoolExhausted { requested, .. } if requested == 1 << 30),
        "{err:?}"
    );
    // The refusal left the process able to map what does fit.
    let small = pool(16 << 20);
    assert_eq!(small.capacity(), 16 << 20);
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn pool_larger_than_the_address_space_is_refused() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--ignored", "--exact", "pool_past_the_limit_in_child"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed ({:?}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 passed"), "child ran nothing:\n{stdout}");
}
