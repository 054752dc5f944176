//! Deterministic, seed-driven fault injection.
//!
//! A process-global registry of named *fault points*. Production code marks
//! crash-prone sites with [`hit`] (or the [`FaultPoint`] convenience wrapper);
//! tests arm points with a [`FaultPolicy`] and assert that the system either
//! returns a typed [`Error`](crate::Error) or fully recovers.
//!
//! # Cost when disabled
//!
//! The whole subsystem hides behind one relaxed [`AtomicBool`] load: while no
//! point is armed, [`hit`] is a single branch on an always-false flag and
//! never touches the registry, so hot paths (pmem allocation, WAL append)
//! stay effectively free. There is no compile-time feature gate — keeping the
//! points compiled in means the *tested* binary is the *shipped* binary.
//!
//! # Determinism
//!
//! Probabilistic policies draw from a per-point splitmix64 stream seeded by
//! `(seed, point name)`, and per-point hit counters advance the stream one
//! step per call — the same seed and the same sequence of hits reproduce the
//! same injected failures, independent of wall-clock time or other points.
//!
//! # Concurrency
//!
//! The registry is global, so concurrently running tests that arm points
//! would interfere. Fault tests serialize through [`exclusive`], which also
//! disarms everything when the guard drops (even on panic).

use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// What an armed fault point does when hit.
#[derive(Debug, Clone)]
pub enum FaultPolicy {
    /// Fail the N-th hit (1-based) and every later hit. `FailNth(1)` fails
    /// immediately; `FailNth(3)` lets two hits through first.
    FailNth(u64),
    /// Fail exactly the N-th hit (1-based), then let everything through.
    FailOnce(u64),
    /// Fail each hit independently with probability `num`/`den`, drawn from
    /// a deterministic per-point stream derived from `seed`.
    FailProbability {
        /// Numerator of the failure probability.
        num: u32,
        /// Denominator of the failure probability.
        den: u32,
        /// Seed for the per-point splitmix64 stream.
        seed: u64,
    },
    /// One-shot torn write: the first hit reports [`FaultAction::Torn`]
    /// (the site persists a detectably-partial record), later hits pass.
    TornWrite,
    /// Sleep `Duration` on every hit, then proceed normally — a latency
    /// spike, not a failure.
    Latency(Duration),
}

/// The action a site must take for an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail cleanly *before* any side effect, returning a typed error.
    Fail,
    /// Persist a detectably-partial write (short write / crash mid-append),
    /// then return a typed error. Sites that have no notion of a partial
    /// write treat this as [`FaultAction::Fail`].
    Torn,
}

/// Canonical names of every fault point wired into the workspace, so the
/// fault-matrix harness can iterate them and assert coverage.
pub mod points {
    /// Arena/pool allocation failure (simulated NVM exhaustion).
    pub const PMEM_ALLOC: &str = "pmem.alloc";
    /// Torn/partial snapshot persist (crash mid-`snapshot_to_file`).
    pub const PMEM_SNAPSHOT_PERSIST: &str = "pmem.snapshot.persist";
    /// Restore-time corruption detected while loading a snapshot.
    pub const PMEM_RESTORE: &str = "pmem.restore";
    /// WAL append fails before the CRC is computed (fsync error; nothing
    /// reaches the log).
    pub const WAL_APPEND_PRE_CRC: &str = "wal.append.pre_crc";
    /// WAL append crashes mid-record: a short write leaves a torn tail
    /// (header present, payload truncated / CRC mismatch).
    pub const WAL_APPEND_TORN: &str = "wal.append.torn";
    /// Flush worker failure (one-piece flush DRAM→NVM).
    pub const ENGINE_FLUSH: &str = "engine.flush";
    /// Zero-copy compaction worker failure.
    pub const ENGINE_COMPACTION: &str = "engine.compaction";
    /// Lazy-copy drain (PMTable → data repository) failure.
    pub const ENGINE_LAZY: &str = "engine.lazy";
    /// Server-side stall while serving a request (connection hangs).
    pub const SERVER_REQUEST_STALL: &str = "server.request.stall";
    /// Server-side connection drop mid-request (no response sent).
    pub const SERVER_CONN_DROP: &str = "server.conn.drop";
    /// Replication stream drop: the leader's record-push connection to a
    /// follower dies mid-stream (follower must resubscribe from its
    /// applied offset).
    pub const REPL_STREAM_DROP: &str = "repl.stream.drop";
    /// Follower apply-loop stall or failure while replaying a shipped
    /// record batch (acks stop advancing; semi-sync writers block).
    pub const REPL_APPLY_STALL: &str = "repl.apply.stall";
    /// Snapshot-based follower catch-up failure (leader-side snapshot
    /// serve or follower-side restore).
    pub const REPL_SNAPSHOT: &str = "repl.snapshot";
    /// Election traffic loss: a vote request or epoch probe between
    /// group members is dropped before reaching the peer (simulates a
    /// network partition during an election).
    pub const REPL_VOTE_DROP: &str = "repl.vote.drop";

    /// Every registered point, for matrix sweeps.
    pub const ALL: &[&str] = &[
        PMEM_ALLOC,
        PMEM_SNAPSHOT_PERSIST,
        PMEM_RESTORE,
        WAL_APPEND_PRE_CRC,
        WAL_APPEND_TORN,
        ENGINE_FLUSH,
        ENGINE_COMPACTION,
        ENGINE_LAZY,
        SERVER_REQUEST_STALL,
        SERVER_CONN_DROP,
        REPL_STREAM_DROP,
        REPL_APPLY_STALL,
        REPL_SNAPSHOT,
        REPL_VOTE_DROP,
    ];
}

struct PointState {
    policy: FaultPolicy,
    hits: u64,
    triggered: u64,
    rng: u64,
}

struct Registry {
    points: HashMap<String, PointState>,
}

/// Fast path: true iff at least one point is armed. Relaxed is enough — a
/// site that races with arming simply misses the very first injection
/// opportunity, which deterministic tests avoid by arming before the
/// workload starts.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            points: HashMap::new(),
        })
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_hash(name: &str) -> u64 {
    // FNV-1a: stable across runs and platforms (unlike `DefaultHasher`).
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Arms `name` with `policy`, resetting its hit/trigger counters.
pub fn arm(name: &str, policy: FaultPolicy) {
    let seed = match policy {
        FaultPolicy::FailProbability { seed, .. } => seed,
        _ => 0,
    };
    let mut reg = registry().lock();
    reg.points.insert(
        name.to_string(),
        PointState {
            policy,
            hits: 0,
            triggered: 0,
            rng: seed ^ name_hash(name),
        },
    );
    ARMED.store(true, Ordering::Release);
}

/// Disarms `name`; its counters remain readable until the next [`arm`].
pub fn disarm(name: &str) {
    let mut reg = registry().lock();
    reg.points.remove(name);
    if reg.points.is_empty() {
        ARMED.store(false, Ordering::Release);
    }
}

/// Disarms every point.
pub fn disarm_all() {
    let mut reg = registry().lock();
    reg.points.clear();
    ARMED.store(false, Ordering::Release);
}

/// How many times `name` has been hit since it was armed (0 if never armed).
pub fn hits(name: &str) -> u64 {
    registry().lock().points.get(name).map_or(0, |p| p.hits)
}

/// How many times `name` actually injected a failure since it was armed.
pub fn triggered(name: &str) -> u64 {
    registry()
        .lock()
        .points
        .get(name)
        .map_or(0, |p| p.triggered)
}

/// Marks a fault point. Returns `None` (proceed normally) unless the point
/// is armed and its policy fires, in which case the site must take the
/// returned [`FaultAction`].
///
/// This is the only call production code makes; when nothing is armed it is
/// a single relaxed atomic load.
#[inline]
pub fn hit(name: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(name)
}

#[cold]
fn hit_slow(name: &str) -> Option<FaultAction> {
    let sleep_for;
    let action;
    {
        let mut reg = registry().lock();
        let point = reg.points.get_mut(name)?;
        point.hits += 1;
        let n = point.hits;
        let (act, dur) = match point.policy {
            FaultPolicy::FailNth(k) => (
                if n >= k {
                    Some(FaultAction::Fail)
                } else {
                    None
                },
                None,
            ),
            FaultPolicy::FailOnce(k) => (
                if n == k {
                    Some(FaultAction::Fail)
                } else {
                    None
                },
                None,
            ),
            FaultPolicy::FailProbability { num, den, .. } => {
                let draw = splitmix64(&mut point.rng);
                let fires = den > 0 && (draw % u64::from(den)) < u64::from(num);
                (if fires { Some(FaultAction::Fail) } else { None }, None)
            }
            FaultPolicy::TornWrite => (
                if n == 1 {
                    Some(FaultAction::Torn)
                } else {
                    None
                },
                None,
            ),
            FaultPolicy::Latency(d) => (None, Some(d)),
        };
        if act.is_some() {
            point.triggered += 1;
        }
        action = act;
        sleep_for = dur;
        // Lock dropped before sleeping so a latency point never stalls
        // unrelated arm/disarm calls.
    }
    if let Some(d) = sleep_for {
        std::thread::sleep(d);
    }
    action
}

/// Convenience wrapper mirroring the `FaultPoint::hit("name")` spelling.
pub struct FaultPoint;

impl FaultPoint {
    /// See [`hit`].
    #[inline]
    pub fn hit(name: &str) -> Option<FaultAction> {
        hit(name)
    }
}

/// Serializes fault-injection tests and guarantees cleanup: while the
/// returned guard is alive no other thread can hold it, and dropping it
/// (normally or during a panic) disarms every point.
///
/// Not reentrant — a test must call this once, at its top, and pass the
/// guard (or nothing) down to helpers.
pub fn exclusive() -> ExclusiveGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock();
    disarm_all();
    ExclusiveGuard { _guard: guard }
}

/// RAII guard from [`exclusive`]; disarms all points when dropped.
pub struct ExclusiveGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ExclusiveGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_noop() {
        let _g = exclusive();
        assert_eq!(hit("nonexistent.point"), None);
        assert_eq!(hits("nonexistent.point"), 0);
    }

    #[test]
    fn fail_nth_fires_from_n_onwards() {
        let _g = exclusive();
        arm("t.nth", FaultPolicy::FailNth(3));
        assert_eq!(hit("t.nth"), None);
        assert_eq!(hit("t.nth"), None);
        assert_eq!(hit("t.nth"), Some(FaultAction::Fail));
        assert_eq!(hit("t.nth"), Some(FaultAction::Fail));
        assert_eq!(hits("t.nth"), 4);
        assert_eq!(triggered("t.nth"), 2);
    }

    #[test]
    fn fail_once_fires_exactly_once() {
        let _g = exclusive();
        arm("t.once", FaultPolicy::FailOnce(2));
        assert_eq!(hit("t.once"), None);
        assert_eq!(hit("t.once"), Some(FaultAction::Fail));
        assert_eq!(hit("t.once"), None);
        assert_eq!(triggered("t.once"), 1);
    }

    #[test]
    fn torn_write_is_one_shot() {
        let _g = exclusive();
        arm("t.torn", FaultPolicy::TornWrite);
        assert_eq!(hit("t.torn"), Some(FaultAction::Torn));
        assert_eq!(hit("t.torn"), None);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let _g = exclusive();
        let run = |seed: u64| -> Vec<bool> {
            arm(
                "t.prob",
                FaultPolicy::FailProbability {
                    num: 1,
                    den: 4,
                    seed,
                },
            );
            (0..64).map(|_| hit("t.prob").is_some()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must reproduce the same failures");
        assert_ne!(a, c, "different seeds should diverge");
        let fired = a.iter().filter(|x| **x).count();
        assert!(fired > 0 && fired < 64, "p=1/4 over 64 draws: got {fired}");
    }

    #[test]
    fn disarm_restores_fast_path() {
        let _g = exclusive();
        arm("t.a", FaultPolicy::FailNth(1));
        assert!(hit("t.a").is_some());
        disarm("t.a");
        assert_eq!(hit("t.a"), None);
        assert!(!ARMED.load(Ordering::Relaxed));
    }

    #[test]
    fn exclusive_guard_disarms_on_drop() {
        {
            let _g = exclusive();
            arm("t.cleanup", FaultPolicy::FailNth(1));
        }
        assert_eq!(hit("t.cleanup"), None);
    }

    #[test]
    fn points_list_is_nonempty_and_unique() {
        let mut names: Vec<&str> = points::ALL.to_vec();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before >= 10);
    }
}
