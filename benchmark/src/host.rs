//! What the benchmark reads about the host and its own process: the
//! fingerprint carried by every result, `/proc` counters, and calibration
//! rows that explain drift between sets of runs and are never gated.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median_f64;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The benchmark never loads the system with more client threads than
/// there are processors, and never with more than two.
pub fn client_threads() -> usize {
    nproc().clamp(1, 2)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host fingerprint: a result is comparable only with results that carry
/// the same one.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Str(nproc().to_string())),
        ("cpu_model", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        // The commit of the checkout this was built in; "unknown" where
        // that is not a git repository (the acceptance driver's is not).
        (
            "git_commit",
            Json::Str(first_line_of(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process, exited threads included,
/// in microseconds. `/proc/self/stat` counts in clock ticks of 10 ms.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the numeric fields follow the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000
}

/// Voluntary context switches per live thread of this process.
pub fn voluntary_switches_by_thread() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if let Some(n) = voluntary_switches_of(&entry.path().join("status")) {
            out.insert(tid, n);
        }
    }
    out
}

/// Voluntary context switches of the calling thread.
pub fn own_voluntary_switches() -> u64 {
    voluntary_switches_of(std::path::Path::new("/proc/thread-self/status")).unwrap_or(0)
}

fn voluntary_switches_of(status: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(status)
        .ok()?
        .lines()
        .find(|l| l.starts_with("voluntary_ctxt_switches:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

pub fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Median round trip of a 64-byte ping-pong over loopback TCP between two
/// threads of this process: the floor under any `net-rtt` latency.
pub fn loopback_rtt_us(rounds: usize) -> f64 {
    let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
        return 0.0;
    };
    let Ok(addr) = listener.local_addr() else {
        return 0.0;
    };
    let echo = std::thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; 64];
            while s.read_exact(&mut buf).is_ok() {
                if s.write_all(&buf).is_err() {
                    break;
                }
            }
        }
    });
    let mut samples = Vec::with_capacity(rounds);
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.set_nodelay(true);
        let mut buf = [7u8; 64];
        for _ in 0..rounds {
            let t = Instant::now();
            if s.write_all(&buf).is_err() || s.read_exact(&mut buf).is_err() {
                break;
            }
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    // Dropping the client socket ends the echo loop.
    let _ = echo.join();
    if samples.is_empty() {
        0.0
    } else {
        median_f64(&samples)
    }
}

/// Single-thread copy bandwidth over a buffer far larger than the caches.
pub fn memcpy_gb_per_s() -> f64 {
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.max(src.len() as f64 / t.elapsed().as_nanos() as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(live_threads() >= 1);
        assert!(!voluntary_switches_by_thread().is_empty());
        let fp = fingerprint();
        assert_eq!(
            fp.get("nproc").and_then(Json::as_str),
            Some(nproc().to_string().as_str())
        );
        assert!((1..=2).contains(&client_threads()));
    }
}
