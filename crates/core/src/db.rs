//! The MioDB engine: write path, lock-free read path, background flushing
//! and parallel compaction.
//!
//! Threading model (paper §4.5):
//!
//! - the caller's threads execute `put`/`get`/`scan` (writers serialized by
//!   a mutex, readers lock-free against compaction);
//! - one **flush worker** performs one-piece flushes and background
//!   pointer swizzling;
//! - one **compactor thread per elastic level** `0..n-1` merges that
//!   level's two oldest PMTables by zero-copy compaction and pushes the
//!   result down;
//! - one **lazy-copy worker** drains the bottom buffer level into the data
//!   repository and retires the drained table's arenas (the only GC point,
//!   §4.4; the memory itself returns to the pool when the last reader of
//!   those arenas lets go — see `DESIGN.md`, "Reclamation");
//! - in SSD mode, one **repository maintainer** runs the on-SSD LSM's
//!   compactions.
//!
//! Queries probe each level's tables newest first — settled tables, then
//! the in-flight merge's newtable and oldtable, then a draining table —
//! and finally the repository, every table through its exact DRAM index.
//! Point reads do not use the insertion mark (paper §4.3); scans and crash
//! resume (§4.7) do.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use miodb_bloom::BloomFilter;
use miodb_common::repl::ReplicationSink;
use miodb_common::trace::{self, SpanKind};
use miodb_common::{
    fault, CompactionKind, EngineReport, EngineTelemetry, Error, KvEngine, OpKind, Result,
    ScanEntry, SequenceNumber, StallKind, Stats, Timed,
};
use miodb_lsm::merge_iter::dedup_newest;
use miodb_pmem::{device, DeviceModel, PmemPool, PmemRegion, RegionLease};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::merge::MergeLimits;
use miodb_skiplist::{
    one_piece_flush, swizzle, zero_copy_merge, GrowableSkipList, InsertionMark, MergeOutcome,
    RunMerge, SkipList,
};
use miodb_wal::{GroupOp, WriteAheadLog};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::manifest::{LevelState, Manifest, ManifestState, RepoState, TableState};
use crate::options::{MioOptions, RepositoryMode};
use crate::read::{publish, repo_run, Unrecycled, Version};
use crate::repository::Repository;
use crate::table::{MemTable, PmTable, TableIndex};

/// Merge runs moved per gate acquisition: bounds how long
/// [`MioDb::snapshot`] can be blocked by a zero-copy merge.
const MERGE_STEPS_PER_GATE: usize = 128;

/// Cap on operations coalesced into one write group.
const MAX_GROUP_OPS: usize = 256;

/// Cap on worst-case arena bytes reserved by one write group (LevelDB caps
/// group payloads at 1 MB for the same latency-fairness reason).
const MAX_GROUP_BYTES: u64 = 1 << 20;

/// Extra MemTable capacity requested when a commit forces a rotation
/// (head node + allocator slack).
const GROUP_ROTATE_SLACK: usize = 4096;

/// Spin iterations before a queued writer parks on the commit condvar.
/// A group commit is sub-microsecond to a few microseconds (the WAL
/// append is the only device work), so parking immediately would put
/// condvar wakeup latency — microseconds — on the critical path of every
/// group.
const COMMIT_SPINS: u32 = 4096;

/// Yield iterations between spinning and parking: on a preempted or
/// single-core host, yielding hands the CPU to the leader, which usually
/// completes the group without the follower paying a full park/unpark.
const COMMIT_YIELDS: u32 = 64;

/// Effective spin budget: busy-spinning burns the core the group leader
/// needs to make progress, so hosts without spare parallelism skip the
/// spin phase and go straight to yielding.
fn commit_spins() -> u32 {
    static SPINS: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *SPINS.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => COMMIT_SPINS,
        _ => 0,
    })
}

/// One step of a queued writer's wait: spin, then yield. Returns `false`
/// once both budgets are spent and the caller should park.
fn commit_backoff(spun: &mut u32) -> bool {
    let spins = commit_spins();
    if *spun >= spins + COMMIT_YIELDS {
        return false;
    }
    if *spun < spins {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *spun += 1;
    true
}

/// Operations owned by a queued writer or a [`WriteBatch`].
type OwnedOps = Vec<(Vec<u8>, Vec<u8>, OpKind)>;

/// Borrows owned operations in the form the commit routine takes.
fn group_ops(ops: &[(Vec<u8>, Vec<u8>, OpKind)]) -> impl Iterator<Item = GroupOp<'_>> {
    ops.iter().map(|(key, value, kind)| GroupOp {
        key,
        value,
        kind: *kind,
    })
}

/// Worst-case MemTable arena bytes the operations can consume.
fn arena_need(ops: &[GroupOp<'_>]) -> u64 {
    ops.iter()
        .map(|op| miodb_skiplist::node_size_upper(op.key.len(), op.value.len()))
        .sum()
}

/// One writer's pending operations on the commit queue.
///
/// Lifecycle: the owning thread enqueues it and either becomes the leader
/// (it reached the queue front) or waits; a leader commits it as part of
/// its group, stores the `outcome`, pops it and sets `done`.
struct PendingWrite {
    ops: OwnedOps,
    /// Worst-case arena bytes for all ops (group sealing).
    need: u64,
    /// Set by the leader, after `outcome`, once the group has committed
    /// or aborted (Release; the owner's Acquire load pairs with it).
    done: AtomicBool,
    /// Last sequence number of the committed group, or the failure that
    /// aborted it (`Ok(0)` until the leader stores it).
    outcome: Mutex<Result<SequenceNumber>>,
}

/// The commit queue: concurrent writers enqueue, the front writer leads.
struct CommitQueue {
    queue: Mutex<VecDeque<Arc<PendingWrite>>>,
    /// The queue's length, stored under the queue lock after every push
    /// and pop: the bypass test reads it without taking the lock.
    len: AtomicUsize,
    /// Wakes parked writers on group handoff, group completion and leader
    /// promotion.
    cv: Condvar,
}

/// Duplicates an error for fan-out to every member of an aborted group
/// (`Error` holds `std::io::Error` and cannot be `Clone`).
fn clone_error(e: &Error) -> Error {
    match e {
        Error::Io(err) => Error::Background(format!("i/o error: {err}")),
        Error::Corruption(s) => Error::Corruption(s.clone()),
        Error::PoolExhausted {
            requested,
            available,
        } => Error::PoolExhausted {
            requested: *requested,
            available: *available,
        },
        Error::ArenaFull => Error::ArenaFull,
        Error::InvalidArgument(s) => Error::InvalidArgument(s.clone()),
        Error::Closed => Error::Closed,
        Error::Background(s) => Error::Background(s.clone()),
        Error::MaybeApplied(s) => Error::MaybeApplied(s.clone()),
        other => Error::Background(other.to_string()),
    }
}

#[derive(Clone)]
pub(crate) struct Level {
    /// Settled tables, oldest at the front.
    pub(crate) tables: VecDeque<Arc<PmTable>>,
    /// In-flight zero-copy merge `(newtable, oldtable)`.
    pub(crate) merging: Option<(Arc<PmTable>, Arc<PmTable>)>,
    /// Table currently being lazy-copied into the repository.
    pub(crate) lazy_draining: Option<Arc<PmTable>>,
    /// The level's persistent insertion mark: recovery finishes the run it
    /// names.
    pub(crate) mark: InsertionMark,
    /// [`MioDb::snapshot`] excludes zero-copy pointer motion through this
    /// gate; nothing else takes it.
    pub(crate) gate: Arc<Mutex<()>>,
}

pub(crate) struct MemState {
    pub(crate) active: Arc<MemTable>,
    pub(crate) imm: Option<Arc<MemTable>>,
}

pub(crate) struct Inner {
    pub(crate) opts: MioOptions,
    pub(crate) stats: Arc<Stats>,
    nvm: Arc<PmemPool>,
    dram: Arc<PmemPool>,
    seq: AtomicU64,
    pub(crate) mem: RwLock<MemState>,
    write_mutex: Mutex<()>,
    /// Group-commit queue: contended writers coordinate here before the
    /// leader takes `write_mutex` on the whole group's behalf.
    commit: CommitQueue,
    pub(crate) levels: Mutex<Vec<Level>>,
    /// The published [`Version`]: what readers load instead of taking
    /// `mem` and `levels`.
    pub(crate) current: RwLock<Arc<Version>>,
    /// The engine's wait lock: every wait checks its predicate under it
    /// ([`Inner::wait_until`]) and every wake takes it ([`Inner::wake`]).
    /// A leaf but for the `Version`, which waiters load while holding it.
    pub(crate) changed: Mutex<()>,
    /// The one waker: notified at every publish and every other change a
    /// wait checks.
    pub(crate) wakeup: Condvar,
    pub(crate) repo: Repository,
    /// The repository writer: held for each lazy-copy run, and guards the
    /// nodes runs unlinked until [`repo_run`] recycles them.
    pub(crate) repo_writer: Mutex<Unrecycled>,
    /// Bytes of elastic-buffer arenas not yet back in the pool: every
    /// PMTable arena lease is counted in this gauge from flush (or
    /// recovery) until its region is actually freed.
    elastic_bytes: Arc<AtomicU64>,
    manifest: Manifest,
    pub(crate) shutdown: AtomicBool,
    /// Set by [`MioDb::close`] before the final flush: refuses new writes
    /// while the in-flight commit-queue groups and MemTables drain.
    closing: AtomicBool,
    /// WAL records replayed when this instance was opened (0 after
    /// recovering from a cleanly closed database).
    recovered_wal_records: AtomicU64,
    /// Set while a flush is blocked on the elastic-buffer cap; tells the
    /// lazy worker to drain ahead of the normal trigger.
    pressure: AtomicBool,
    /// The first background failure (set once; later ones are dropped so
    /// the root cause stays visible). Reading it is one atomic load, so
    /// every write checks it.
    pub(crate) bg_error: OnceLock<String>,
    /// Telemetry collectors: op-latency histograms, per-level gauges and
    /// the timed-interval guard.
    telemetry: EngineTelemetry,
    /// Replication seam ([`MioDb::set_commit_sink`]): committed WAL
    /// records are handed to the sink in commit order, under the write
    /// mutex, right after their WAL append.
    repl_sink: RwLock<Option<Arc<dyn ReplicationSink>>>,
    /// Fast-path gate for the sink: one relaxed load on the write path
    /// when replication is off.
    repl_armed: AtomicBool,
    /// Runs in every [`publish`], under the `Version` write lock, on the
    /// `Version` just installed.
    #[cfg(test)]
    pub(crate) on_publish: OnceLock<PublishObserver>,
}

/// What a test runs on each newly published `Version`.
#[cfg(test)]
pub(crate) type PublishObserver = Box<dyn Fn(&Inner, &Version) + Send + Sync>;

/// The MioDB key-value store. See the [crate docs](crate) for an overview
/// and example.
pub struct MioDb {
    pub(crate) inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for MioDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MioDb")
            .field("name", &self.inner.opts.name)
            .field("levels", &self.inner.levels.lock().len())
            .finish()
    }
}

impl MioDb {
    /// Opens a fresh database.
    ///
    /// # Errors
    ///
    /// Returns configuration or allocation errors.
    pub fn open(opts: MioOptions) -> Result<MioDb> {
        opts.validate()?;
        let stats = Arc::new(Stats::new());
        let nvm = PmemPool::new(opts.nvm_pool_bytes, opts.nvm_device, stats.clone())?;
        Self::open_on_pool(opts, nvm, stats, None)
    }

    /// Recovers a database from a restored NVM pool (crash recovery,
    /// §4.7): reloads the manifest, rebuilds levels and the repository,
    /// resumes interrupted compactions and replays the WALs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for unreadable persistent state and
    /// [`Error::InvalidArgument`] if `opts` is structurally incompatible
    /// with the recovered state (different level count).
    pub fn recover(nvm: Arc<PmemPool>, opts: MioOptions) -> Result<MioDb> {
        opts.validate()?;
        let stats = nvm.stats().clone();
        Self::open_on_pool(opts, nvm, stats, Some(()))
    }

    fn open_on_pool(
        opts: MioOptions,
        nvm: Arc<PmemPool>,
        stats: Arc<Stats>,
        recovering: Option<()>,
    ) -> Result<MioDb> {
        // Only the MemTables' first-fit working set — the active, the
        // immutable and up to two retired arenas a reader still holds — is
        // made resident at open; the rest of the pool is faulted on use.
        let dram = PmemPool::with_populated(
            opts.dram_pool_bytes,
            4 * opts.memtable_bytes,
            DeviceModel::dram(),
            stats.clone(),
        )?;

        let (manifest, prior) = if recovering.is_some() {
            Manifest::load(nvm.clone())?
        } else {
            (Manifest::create(nvm.clone()), None)
        };

        let n = opts.elastic_levels;
        let mut levels = Vec::with_capacity(n);
        let mut repo: Option<Repository> = None;
        let mut seq0 = 0u64;
        let mut wal_replays: Vec<Vec<PmemRegion>> = Vec::new();
        let elastic_bytes = Arc::new(AtomicU64::new(0));
        let rebuild = |ts: &TableState| {
            rebuild_table(
                &nvm,
                ts,
                &elastic_bytes,
                opts.bloom_bits_per_key,
                opts.bloom_expected_keys(),
            )
        };
        let mut resumed_merges: Vec<(usize, Arc<PmTable>, Arc<PmTable>)> = Vec::new();
        let mut resumed_drain: Option<Arc<PmTable>> = None;

        if let Some(state) = prior {
            // Reject a stale or corrupted manifest before walking anything
            // it names — see ManifestState::validate_live.
            state.validate_live(&nvm)?;
            if state.levels.len() != n {
                return Err(Error::InvalidArgument(format!(
                    "recovered manifest has {} levels, options request {n}",
                    state.levels.len()
                )));
            }
            seq0 = state.seq;
            if let Some(imm) = state.imm_wal {
                wal_replays.push(imm);
            }
            wal_replays.push(state.active_wal);

            for (i, ls) in state.levels.iter().enumerate() {
                let mark = match ls.mark {
                    Some(region) => InsertionMark::from_raw(nvm.clone(), region),
                    None => InsertionMark::alloc(&nvm)?,
                };
                let mut level = Level {
                    tables: VecDeque::new(),
                    merging: None,
                    lazy_draining: None,
                    mark,
                    gate: Arc::new(Mutex::new(())),
                };
                level.tables.extend(ls.tables.iter().map(rebuild));
                if let Some((new_ts, old_ts)) = &ls.merging {
                    resumed_merges.push((i, rebuild(new_ts), rebuild(old_ts)));
                }
                if let Some(ts) = &ls.lazy_draining {
                    resumed_drain = Some(rebuild(ts));
                }
                levels.push(level);
            }
            if let Some(rs) = state.repo {
                // An interrupted drain may have allocated past the recorded
                // cursor; burn the chunk tail so no live node is reused.
                let cursor = if resumed_drain.is_some() {
                    rs.end
                } else {
                    rs.cursor
                };
                repo = Some(Repository::Pm(GrowableSkipList::from_parts(
                    nvm.clone(),
                    rs.head,
                    rs.chunk_size as usize,
                    rs.chunks,
                    cursor,
                    rs.end,
                    rs.len,
                    rs.data_bytes,
                )));
            }
        } else {
            for _ in 0..n {
                levels.push(Level {
                    tables: VecDeque::new(),
                    merging: None,
                    lazy_draining: None,
                    mark: InsertionMark::alloc(&nvm)?,
                    gate: Arc::new(Mutex::new(())),
                });
            }
        }

        let repo = match repo {
            Some(r) => r,
            None => match &opts.repository {
                RepositoryMode::HugePmTable => {
                    Repository::new_pm(nvm.clone(), opts.repo_chunk_bytes)?
                }
                RepositoryMode::Ssd { lsm, device } => {
                    Repository::new_lsm(lsm.clone(), *device, stats.clone())
                }
            },
        };

        // Resume interrupted zero-copy merges synchronously.
        let mut pending_pushes: Vec<(usize, Arc<PmTable>)> = Vec::new();
        for (i, new_t, old_t) in resumed_merges {
            let merged = resume_merge(
                &nvm,
                &stats,
                &new_t,
                &old_t,
                &levels[i].mark,
                (opts.bloom_bits_per_key, opts.bloom_expected_keys()),
            );
            pending_pushes.push((i + 1, merged));
        }
        for (target, merged) in pending_pushes {
            levels[target].tables.push_back(merged);
        }

        // Resume an interrupted lazy-copy drain synchronously.
        if let Some(t) = resumed_drain {
            let merged = dedup_newest(t.list.iter(), false);
            for e in merged {
                repo.apply(&e.key, &e.value, e.seq, e.kind)?;
            }
            t.retire();
        }

        let active = Arc::new(MemTable::new(
            &dram,
            &nvm,
            opts.memtable_bytes,
            opts.wal_segment_bytes,
            opts.bloom_bits_per_key,
            opts.bloom_expected_keys(),
        )?);

        let telemetry = EngineTelemetry::new(n, stats.clone());
        let current = RwLock::new(Arc::new(Version {
            active: active.clone(),
            imm: None,
            levels: levels[..].into(),
            // After the resumed drain: nothing writes the repository again
            // before the lazy worker's first run. The one index built from
            // NVM; every later one is built from this one in DRAM.
            repo_index: repo.walk_index().map(Arc::new),
        }));
        let inner = Arc::new(Inner {
            opts,
            stats,
            nvm,
            dram,
            seq: AtomicU64::new(seq0),
            mem: RwLock::new(MemState { active, imm: None }),
            write_mutex: Mutex::new(()),
            commit: CommitQueue {
                queue: Mutex::new(VecDeque::new()),
                len: AtomicUsize::new(0),
                cv: Condvar::new(),
            },
            levels: Mutex::new(levels),
            current,
            changed: Mutex::new(()),
            wakeup: Condvar::new(),
            repo,
            repo_writer: Mutex::new(VecDeque::new()),
            elastic_bytes,
            manifest,
            shutdown: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            recovered_wal_records: AtomicU64::new(0),
            pressure: AtomicBool::new(false),
            bg_error: OnceLock::new(),
            telemetry,
            repl_sink: RwLock::new(None),
            repl_armed: AtomicBool::new(false),
            #[cfg(test)]
            on_publish: OnceLock::new(),
        });

        store_manifest(&inner)?;

        let db = MioDb {
            threads: Mutex::new(spawn_workers(&inner)),
            inner,
        };

        // Replay WALs from the recovered state through the normal write
        // machinery (records carry their original sequence numbers). The
        // chain walk finds segments allocated after the manifest's last
        // store, so no acknowledged write or sequence number is lost.
        let mut records = Vec::new();
        let mut reclaim: Vec<PmemRegion> = Vec::new();
        for segs in &wal_replays {
            if let Some(first) = segs.first() {
                let (recs, visited) = WriteAheadLog::replay_chain(&db.inner.nvm, *first)?;
                records.extend(recs);
                reclaim.extend(visited);
            }
        }
        records.sort_by_key(|r| r.seq);
        db.inner
            .recovered_wal_records
            .store(records.len() as u64, Ordering::Relaxed);
        let guard = db.inner.write_mutex.lock();
        for r in &records {
            db.inner.seq.fetch_max(r.seq, Ordering::Relaxed);
            db.insert_locked(&r.key, &r.value, r.seq, r.kind)?;
        }
        drop(guard);
        for region in reclaim {
            db.inner.nvm.free(region);
        }
        if !records.is_empty() {
            store_manifest(&db.inner)?;
        }
        Ok(db)
    }

    /// The engine's NVM pool (snapshot it for crash tests).
    pub fn nvm_pool(&self) -> &Arc<PmemPool> {
        &self.inner.nvm
    }

    /// Shared statistics.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.inner.stats
    }

    /// Bytes currently held by elastic-buffer PMTables.
    pub fn elastic_buffer_bytes(&self) -> u64 {
        self.inner.elastic_bytes.load(Ordering::Relaxed)
    }

    /// The sticky background error, if a flush/compaction/lazy-copy worker
    /// exhausted its retries and degraded the engine to read-only.
    pub fn background_error(&self) -> Option<String> {
        self.inner.bg_error.get().cloned()
    }

    /// Takes a point-in-time snapshot of the NVM pool (crash simulation).
    ///
    /// A real power failure freezes all stores at one instant; a memcpy of
    /// the live pool does not. To keep the captured state self-consistent
    /// this briefly quiesces every *structural* transition — writers, all
    /// zero-copy merges (via the level gates), the lazy-copy drain and
    /// manifest stores — before copying. Lock order (gates → repo →
    /// levels) never inverts any background thread's order, so this cannot
    /// deadlock. Unpublished work (an in-flight one-piece flush memcpy)
    /// may still land torn in the file, which is harmless: the manifest
    /// does not reference it yet.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the snapshot file.
    pub fn snapshot(&self, path: &std::path::Path) -> Result<()> {
        let inner = &*self.inner;
        let _writers = inner.write_mutex.lock();
        let v = inner.version();
        let _gate_guards: Vec<_> = v.levels.iter().map(|l| l.gate.lock()).collect();
        let _repo = inner.repo_writer.lock();
        let _levels = inner.levels.lock();
        inner.nvm.snapshot_to_file(path)
    }

    fn check_usable(&self) -> Result<()> {
        if self.inner.shutdown.load(Ordering::Acquire) || self.inner.closing.load(Ordering::Acquire)
        {
            return Err(Error::Closed);
        }
        self.inner.background()
    }

    fn write(&self, key: &[u8], value: &[u8], kind: OpKind) -> Result<()> {
        let t0 = Instant::now();
        self.commit(&[GroupOp { key, value, kind }])?;
        let h = match kind {
            OpKind::Put => &self.inner.telemetry.put_latency,
            OpKind::Delete => &self.inner.telemetry.delete_latency,
        };
        h.record_elapsed(t0);
        Ok(())
    }

    /// Commits one caller's operations (a put, a delete or a whole batch)
    /// and waits for the replication ack level.
    ///
    /// With no writers queued and the writer mutex immediately available
    /// the caller commits its own ops as a group that skipped the queue —
    /// borrowed slices, no copies, no queue churn. Otherwise it takes the
    /// commit queue.
    fn commit(&self, ops: &[GroupOp<'_>]) -> Result<()> {
        self.check_usable()?;
        // Inside a group an encode failure would abort innocent members,
        // so sizes the WAL cannot frame are rejected before joining one.
        for op in ops {
            if op.key.len() > u32::MAX as usize || op.value.len() > u32::MAX as usize {
                return Err(Error::InvalidArgument("key/value too large".to_string()));
            }
        }
        let inner = &*self.inner;
        let bypass = if inner.commit.len.load(Ordering::Acquire) == 0 {
            inner.write_mutex.try_lock()
        } else {
            None
        };
        let seq_last = match bypass {
            Some(guard) => self.commit_locked(guard, ops)?,
            None => self.commit_queued(ops)?,
        };
        self.repl_wait(seq_last)
    }

    /// The one commit routine: every user write reaches the WAL, the
    /// replication sink and the MemTable through here, as a group of one
    /// (the bypass) or a sealed queue prefix (the leader).
    ///
    /// Under the writer mutex it reserves worst-case MemTable capacity for
    /// the whole group (rotating if needed, so no op can hit `ArenaFull`
    /// after logging), encodes **one** WAL record carrying the next dense
    /// sequence range, appends it, hands the same bytes to the replication
    /// sink, and inserts every op serially. The mutex is held until the
    /// last insert lands, so rotation and snapshots never observe a
    /// half-applied group.
    ///
    /// The sequence counter, `user_bytes_written` and `write_group_size`
    /// advance only once the append has succeeded: a failed commit logs
    /// nothing, consumes no sequence numbers and counts no user bytes.
    /// Returns the group's last sequence number; callers wait for the
    /// replication ack level on it after the mutex is released.
    fn commit_locked(
        &self,
        _writers: parking_lot::MutexGuard<'_, ()>,
        ops: &[GroupOp<'_>],
    ) -> Result<SequenceNumber> {
        let inner = &*self.inner;
        let n = ops.len() as u64;
        let need = arena_need(ops);
        let active = loop {
            let active = inner.mem.read().active.clone();
            if active.arena().remaining_bytes() >= need {
                break active;
            }
            // Do not pin the full MemTable in DRAM across the rotation.
            drop(active);
            self.rotate_memtable(need as usize + GROUP_ROTATE_SLACK)?;
        };
        // Every sequence-counter update holds the writer mutex, so the
        // range read here is ours until the `fetch_add` below claims it.
        let seq_base = inner.seq.load(Ordering::Relaxed) + 1;
        let seq_last = seq_base + n - 1;
        {
            let mut wal_span = trace::span(SpanKind::WalAppend);
            wal_span.annotate(n);
            // A lone op keeps the single-record framing; several ops share
            // one record, which replays all-or-nothing.
            let record = match ops {
                [op] => miodb_wal::encode_record(op.key, op.value, seq_base, op.kind)?,
                _ => miodb_wal::encode_group_record(ops, seq_base)?,
            };
            active.log(&record)?;
            inner.seq.fetch_add(n, Ordering::Relaxed);
            if inner.repl_armed.load(Ordering::Acquire) {
                if let Some(sink) = inner.repl_sink.read().as_ref() {
                    sink.publish(&record, seq_base, seq_last);
                }
            }
        }
        let user_bytes: u64 = ops
            .iter()
            .map(|op| (op.key.len() + op.value.len()) as u64)
            .sum();
        inner
            .stats
            .user_bytes_written
            .fetch_add(user_bytes, Ordering::Relaxed);
        inner.telemetry.write_group_size.record(n);
        let mut insert_span = trace::span(SpanKind::MemtableInsert);
        insert_span.annotate(n);
        active.apply(ops, seq_base)?;
        Ok(seq_last)
    }

    /// The contended path: enqueue a copy of the ops on the commit queue,
    /// then either lead a group (on reaching the queue front) or wait for
    /// a leader to commit our ops with its own.
    fn commit_queued(&self, ops: &[GroupOp<'_>]) -> Result<SequenceNumber> {
        let inner = &*self.inner;
        let w = Arc::new(PendingWrite {
            ops: ops
                .iter()
                .map(|op| (op.key.to_vec(), op.value.to_vec(), op.kind))
                .collect(),
            need: arena_need(ops),
            done: AtomicBool::new(false),
            outcome: Mutex::new(Ok(0)),
        });
        let mut commit_span = trace::span(SpanKind::CommitWait);
        {
            let mut q = inner.commit.queue.lock();
            q.push_back(w.clone());
            inner.commit.len.store(q.len(), Ordering::Release);
            let depth = q.len() as u64;
            inner.telemetry.set_commit_queue_depth(depth);
            commit_span.annotate(depth);
        }
        let is_front =
            |q: &VecDeque<Arc<PendingWrite>>| q.front().is_some_and(|f| Arc::ptr_eq(f, &w));
        let mut spun = 0u32;
        while !w.done.load(Ordering::Acquire) {
            // The queue front is popped only when its group completes, so
            // being front while not done means no group is in flight: we
            // are the leader.
            if is_front(&inner.commit.queue.lock()) {
                self.lead_group(&w);
                continue;
            }
            if commit_backoff(&mut spun) {
                continue;
            }
            // Leaders change `done` and the queue front under the queue
            // lock and notify after releasing it, so this check-then-park
            // cannot miss a wakeup.
            let mut q = inner.commit.queue.lock();
            if !w.done.load(Ordering::Acquire) && !is_front(&q) {
                inner.commit.cv.wait_for(&mut q, Duration::from_micros(500));
            }
        }
        let mut outcome = w.outcome.lock();
        std::mem::replace(&mut *outcome, Ok(0))
    }

    /// Leads one write group: takes the writer mutex, seals a queue prefix
    /// (so writers that queued while the previous commit held the mutex
    /// ride along), commits every member's ops as one
    /// [`MioDb::commit_locked`] call, then publishes the outcome, pops the
    /// group and wakes the members and the next leader.
    fn lead_group(&self, lw: &Arc<PendingWrite>) {
        let inner = &*self.inner;
        // The mutex is usually held for one short commit: spin and yield
        // on it, as a queued writer does, before parking on it.
        let mut spun = 0u32;
        let guard = loop {
            if let Some(guard) = inner.write_mutex.try_lock() {
                break guard;
            }
            if !commit_backoff(&mut spun) {
                break inner.write_mutex.lock();
            }
        };
        // A prefix of the queue, bounded so one group cannot starve later
        // arrivals or overrun a MemTable.
        let group: Vec<Arc<PendingWrite>> = {
            let q = inner.commit.queue.lock();
            let mut g: Vec<Arc<PendingWrite>> = Vec::new();
            let mut ops = 0usize;
            let mut bytes = 0u64;
            for w in q.iter() {
                if !g.is_empty()
                    && (ops + w.ops.len() > MAX_GROUP_OPS || bytes + w.need > MAX_GROUP_BYTES)
                {
                    break;
                }
                ops += w.ops.len();
                bytes += w.need;
                g.push(w.clone());
            }
            g
        };
        debug_assert!(Arc::ptr_eq(&group[0], lw), "leader must be queue front");
        let gops: Vec<GroupOp<'_>> = group.iter().flat_map(|w| group_ops(&w.ops)).collect();
        let res = self.commit_locked(guard, &gops);

        let mut q = inner.commit.queue.lock();
        for w in &group {
            // Invariant (group-commit protocol): the sealed group is a
            // prefix of the queue and only its leader pops — members wait
            // until `done`, so the queue cannot lose them mid-group.
            let front = q.pop_front().expect("group member missing from queue");
            debug_assert!(Arc::ptr_eq(&front, w));
            *w.outcome.lock() = match &res {
                Ok(seq_last) => Ok(*seq_last),
                Err(e) => Err(clone_error(e)),
            };
            w.done.store(true, Ordering::Release);
        }
        inner.commit.len.store(q.len(), Ordering::Release);
        inner.telemetry.set_commit_queue_depth(q.len() as u64);
        drop(q);
        inner.commit.cv.notify_all();
    }

    /// Highest sequence number allocated so far (dense-sequence test
    /// support and diagnostics).
    pub fn last_sequence(&self) -> SequenceNumber {
        self.inner.seq.load(Ordering::Acquire)
    }

    /// Installs (or, with `None`, removes) the replication sink.
    ///
    /// While a sink is set, every committed write hands its framed WAL
    /// record bytes to [`ReplicationSink::publish`] in commit order
    /// (under the write mutex, right after the WAL append), and every
    /// user-visible write additionally blocks on
    /// [`ReplicationSink::wait_committed`] after the commit critical
    /// section — the hook a semi-sync ack level uses to delay the
    /// acknowledgement until a follower has the write.
    ///
    /// Recovery replay never publishes: the sink is installed on an
    /// already-open database, and a follower resumes from its applied
    /// offset rather than re-shipping history.
    pub fn set_commit_sink(&self, sink: Option<Arc<dyn ReplicationSink>>) {
        let armed = sink.is_some();
        *self.inner.repl_sink.write() = sink;
        self.inner.repl_armed.store(armed, Ordering::Release);
    }

    /// Applies records shipped from a replication leader, advancing the
    /// local sequence counter to cover them. Records flow through the
    /// normal MemTable insert (including the local WAL append), so a
    /// follower crash replays them like its own writes.
    ///
    /// Callers must apply records in shipped (commit) order; sequence
    /// numbers already covered by `last_sequence` are the caller's
    /// responsibility to skip.
    ///
    /// # Errors
    ///
    /// Returns the usual write-path failures ([`Error::Closed`],
    /// [`Error::Background`], capacity errors).
    pub fn apply_replicated(&self, records: &[miodb_wal::WalRecord]) -> Result<()> {
        self.check_usable()?;
        let guard = self.inner.write_mutex.lock();
        for r in records {
            self.inner.seq.fetch_max(r.seq, Ordering::Relaxed);
            self.insert_locked(&r.key, &r.value, r.seq, r.kind)?;
        }
        drop(guard);
        Ok(())
    }

    /// Blocks until the sink's ack level is satisfied for `seq_last`
    /// (no-op when replication is off). Called after the commit critical
    /// section, never under the write mutex.
    #[inline]
    fn repl_wait(&self, seq_last: u64) -> Result<()> {
        if !self.inner.repl_armed.load(Ordering::Acquire) {
            return Ok(());
        }
        let sink = self.inner.repl_sink.read().clone();
        match sink {
            Some(s) => s.wait_committed(seq_last),
            None => Ok(()),
        }
    }

    /// WAL records replayed when this instance was opened. A database
    /// recovered from a [`MioDb::close`]d state reports 0: clean shutdown
    /// flushes everything into PMTables and never relies on WAL replay.
    pub fn recovered_wal_records(&self) -> u64 {
        self.inner.recovered_wal_records.load(Ordering::Relaxed)
    }

    /// Gracefully shuts the engine down: refuses new writes, drains every
    /// in-flight commit-queue group through the write pipeline, seals and
    /// flushes the active MemTable, persists the manifest and joins the
    /// background threads.
    ///
    /// After `close`, a [`MioDb::recover`] of the same pool finds every
    /// acknowledged write in flushed PMTables — it replays zero WAL
    /// records ([`MioDb::recovered_wal_records`]). Dropping the handle
    /// without calling `close` performs the same drain best-effort.
    ///
    /// Idempotent: concurrent and repeated calls wait for the first
    /// closer to finish and return `Ok`.
    ///
    /// # Errors
    ///
    /// Returns background-thread failures observed while draining; the
    /// engine still shuts down.
    pub fn close(&self) -> Result<()> {
        if self.inner.closing.swap(true, Ordering::AcqRel) {
            // Another closer (or a prior close) owns the drain. A worker
            // exits only at shutdown or on a background error, so joining
            // them waits for that closer to stop them.
            self.join_workers();
            return Ok(());
        }
        let drained = self.drain_for_close();
        self.stop_workers();
        drained
    }

    /// Stores `shutdown`, wakes every wait and joins the workers.
    fn stop_workers(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake();
        self.join_workers();
    }

    fn join_workers(&self) {
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }

    /// The close-time drain: waits out the commit queue, flushes the
    /// MemTables and stores a final manifest. Runs with `closing` set, so
    /// the queue and MemTable can only shrink once the last pre-close
    /// writer finishes.
    fn drain_for_close(&self) -> Result<()> {
        let inner = &*self.inner;
        loop {
            // In-flight groups: leaders hold the writer mutex until the
            // whole group's WAL record and MemTable inserts land, so an
            // empty queue means every acknowledged grouped write is
            // applied. Every leader notifies `commit.cv` after its pop.
            {
                let mut q = inner.commit.queue.lock();
                while !q.is_empty() {
                    inner.background()?;
                    inner.commit.cv.wait(&mut q);
                }
            }
            // Let the flush worker finish any sealed MemTable.
            inner.wait_until(None, |v| v.imm.is_none())?;
            {
                let _writers = inner.write_mutex.lock();
                let active_empty = {
                    let mem = inner.mem.read();
                    mem.active.list().iter().next().is_none() && mem.imm.is_none()
                };
                if active_empty {
                    // Nothing pending under the writer mutex; a writer
                    // that raced past `closing` would have needed this
                    // mutex, so the engine is quiesced.
                    if inner.commit.queue.lock().is_empty() {
                        break;
                    }
                } else {
                    self.rotate_memtable(0)?;
                }
            }
        }
        store_manifest(inner)
    }

    /// Insert assuming `write_mutex` is held by the caller (recovery path).
    fn insert_locked(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        let inner = &*self.inner;
        loop {
            // Scope the Arc clone to the attempt so a MemTable that rotates
            // out is not pinned in DRAM by its own writer.
            let r = {
                let active = inner.mem.read().active.clone();
                active.insert(key, value, seq, kind)
            };
            match r {
                Ok(()) => return Ok(()),
                Err(Error::ArenaFull) => self.rotate_memtable(min_capacity(key, value))?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Seals the active MemTable and installs a fresh one. Callers hold
    /// the writer mutex. If an immutable MemTable is still being flushed
    /// this blocks, the mutex held — an **interval stall** in the paper's
    /// terminology; `core.interval_stalls` counts them.
    fn rotate_memtable(&self, min_capacity: usize) -> Result<()> {
        let inner = &*self.inner;
        // Covers the whole rotation (stall wait, fresh-table allocation,
        // manifest store) — all of it is write-path wall time the caller
        // is blocked on. The annotation links the flush span this
        // rotation waits for (0 if none is in flight).
        let mut rotation_span = trace::span(SpanKind::RotationStall);
        if inner.mem.read().imm.is_some() {
            rotation_span.annotate(inner.telemetry.flush_span());
            // Reports the interval stall when it drops, on the error
            // returns too.
            let _stall = inner.telemetry.begin(Timed::Stall(StallKind::Interval));
            inner.wait_until(None, |v| v.imm.is_none())?;
        }
        let fresh = Arc::new(MemTable::new(
            &inner.dram,
            &inner.nvm,
            inner.opts.memtable_bytes.max(min_capacity),
            inner.opts.wal_segment_bytes,
            inner.opts.bloom_bits_per_key,
            inner.opts.bloom_expected_keys(),
        )?);
        {
            let mut mem = inner.mem.write();
            let old = std::mem::replace(&mut mem.active, fresh);
            mem.imm = Some(old);
            // Wakes the flush worker, whatever the store below does.
            publish(inner, |v| v.with_mem(&mem));
        }
        if let Err(e) = with_bg_retries(inner, || store_manifest(inner)) {
            // The manifest must reference the fresh WAL before writes into
            // it are acknowledged; degrade instead of risking silent loss
            // of those acknowledged writes on a crash.
            set_bg_error(inner, format!("manifest store failed: {e}"));
            return Err(e);
        }
        Ok(())
    }

    /// Searches every structure without bloom filters and reports where
    /// `key` is found — a diagnostic for visibility debugging. MemTables
    /// are descended; every PMTable answers through its index.
    #[doc(hidden)]
    pub fn debug_locate(&self, key: &[u8]) -> Vec<String> {
        let inner = &*self.inner;
        let v = inner.version();
        let mut found = Vec::new();
        if v.active.list().get(key).is_some() {
            found.push("active".to_string());
        }
        if let Some(imm) = &v.imm {
            if imm.list().get(key).is_some() {
                found.push("imm".to_string());
            }
        }
        for (i, l) in v.levels.iter().enumerate() {
            for (role, t) in l.newest_first() {
                if t.get(key).is_some() {
                    let bloom = t.bloom.may_contain(key);
                    found.push(format!("L{i}.{role:?} bloom={bloom} n={}", t.len));
                }
            }
        }
        if inner.repo.get(key).ok().flatten().is_some() {
            found.push("repo".to_string());
        }
        found
    }

    /// Audits every table's bloom filter against its index's keys,
    /// returning descriptions of any false negatives (which must never
    /// exist). Diagnostic only.
    #[doc(hidden)]
    pub fn debug_bloom_audit(&self) -> Vec<String> {
        let inner = &*self.inner;
        let mut bad = Vec::new();
        for (i, l) in inner.version().levels.iter().enumerate() {
            for (role, t) in l.newest_first() {
                let mut missing = 0usize;
                let mut total = 0usize;
                for key in t.index.keys() {
                    total += 1;
                    if !t.bloom.may_contain(key) {
                        missing += 1;
                    }
                }
                if missing > 0 {
                    bad.push(format!(
                        "L{i}.{role:?}: {missing}/{total} keys missing from bloom"
                    ));
                }
            }
        }
        bad
    }
}

/// Leases one elastic-buffer arena, counted in the `elastic` gauge.
fn lease_arena(
    nvm: &Arc<PmemPool>,
    region: PmemRegion,
    elastic: &Arc<AtomicU64>,
) -> Arc<RegionLease> {
    Arc::new(RegionLease::new(nvm.clone(), region).counted_in(elastic))
}

/// A table named by the manifest, as recovery finds it: its bloom filter
/// and its index are rebuilt by walking the list's level 0 in NVM, the one
/// place an index is built from NVM.
fn rebuild_table(
    nvm: &Arc<PmemPool>,
    ts: &TableState,
    elastic: &Arc<AtomicU64>,
    bloom_bits: usize,
    bloom_expected: usize,
) -> Arc<PmTable> {
    let list = SkipList::from_raw(nvm.clone(), ts.head);
    let index = TableIndex::walk(&list);
    let bloom = index_bloom(&index, bloom_expected, bloom_bits);
    let arenas = ts
        .arenas
        .iter()
        .map(|&region| lease_arena(nvm, region, elastic))
        .collect();
    Arc::new(PmTable {
        list,
        arenas,
        bloom,
        index,
        len: ts.len as usize,
        data_bytes: ts.data_bytes,
        newest_seq: ts.newest_seq,
    })
}

fn table_state(t: &PmTable) -> TableState {
    TableState {
        head: t.list.head(),
        len: t.len as u64,
        data_bytes: t.data_bytes,
        newest_seq: t.newest_seq,
        arenas: t.arenas.iter().map(|a| a.region()).collect(),
    }
}

/// A bloom filter of `index`'s keys, sized for `expected` keys.
fn index_bloom(index: &TableIndex, expected: usize, bits: usize) -> BloomFilter {
    let mut bloom = BloomFilter::with_bits_per_key(expected.max(16), bits);
    index.keys().for_each(|key| bloom.insert(key));
    bloom
}

/// The bloom filter of a merge's output: the inputs' OR-ed, or, on
/// geometry drift, one of the merged index's keys.
fn merged_bloom(new_t: &PmTable, old_t: &PmTable, index: &TableIndex, bits: usize) -> BloomFilter {
    let mut bloom = old_t.bloom.clone();
    match bloom.merge(&new_t.bloom) {
        Ok(()) => bloom,
        Err(_) => index_bloom(index, index.len(), bits),
    }
}

/// Builds the merged table descriptor after a zero-copy merge: the old
/// table's head now roots the union, both inputs' arena leases are shared
/// (so a reader still holding an input keeps that input's arenas alive
/// after the merged table is gone), and `index` indexes the union —
/// [`TableIndex::merged`] from the inputs' indexes, built in DRAM since no
/// node moved in the pool, or walked at recovery ([`resume_merge`]). Its
/// length is the index's: one node per key is what a merged table is read
/// through.
fn merged_table(
    nvm: &Arc<PmemPool>,
    new_t: &PmTable,
    old_t: &PmTable,
    bloom: BloomFilter,
    index: TableIndex,
) -> Arc<PmTable> {
    let arenas = old_t.arenas.iter().chain(&new_t.arenas).cloned().collect();
    Arc::new(PmTable {
        list: SkipList::from_raw(nvm.clone(), old_t.list.head()),
        arenas,
        bloom,
        len: index.len(),
        index,
        data_bytes: old_t.data_bytes + new_t.data_bytes,
        newest_seq: new_t.newest_seq.max(old_t.newest_seq),
    })
}

/// Completes, at recovery, a zero-copy merge a crash interrupted — the
/// run in flight first, then the rest planned from level-0 walks — and
/// builds the merged table. Its index and bloom filter are built from a
/// walk of the merged list: with a run in flight, the newtable's level 0
/// as recovery walked it may stop at the run's last node or run on into
/// the oldtable, so neither the union of the inputs' indexes nor the OR of
/// their filters need cover the merge.
fn resume_merge(
    nvm: &Arc<PmemPool>,
    stats: &Stats,
    new_t: &PmTable,
    old_t: &PmTable,
    mark: &InsertionMark,
    (bloom_bits, bloom_expected): (usize, usize),
) -> Arc<PmTable> {
    let out = zero_copy_merge(
        nvm,
        new_t.list.head(),
        old_t.list.head(),
        mark,
        MergeLimits::none(),
    );
    count_merge(stats, out.stats());
    let index = TableIndex::walk(&old_t.list);
    let bloom = index_bloom(&index, bloom_expected, bloom_bits);
    merged_table(nvm, new_t, old_t, bloom, index)
}

/// Counts a merge's moved keys and the bytes its stores wrote.
fn count_merge(stats: &Stats, merge: miodb_skiplist::MergeStats) {
    stats
        .zero_copy_nodes_moved
        .fetch_add(merge.moved, Ordering::Relaxed);
    stats
        .zero_copy_bytes_written
        .fetch_add(8 * merge.stores, Ordering::Relaxed);
}

/// Serializes the full engine state for the manifest. Takes the levels
/// lock (callers must not hold it).
fn store_manifest(inner: &Inner) -> Result<()> {
    let levels = inner.levels.lock();
    store_manifest_locked(inner, &levels)
}

/// Serializes state with the levels lock already held.
fn store_manifest_locked(inner: &Inner, levels: &[Level]) -> Result<()> {
    let mem = inner.mem.read();
    let state = ManifestState {
        seq: inner.seq.load(Ordering::Relaxed),
        active_wal: mem.active.wal_segments(),
        imm_wal: mem.imm.as_ref().map(|m| m.wal_segments()),
        levels: levels
            .iter()
            .map(|l| LevelState {
                mark: Some(l.mark.region()),
                merging: l
                    .merging
                    .as_ref()
                    .map(|(n, o)| (table_state(n), table_state(o))),
                lazy_draining: l.lazy_draining.as_ref().map(|t| table_state(t)),
                tables: l.tables.iter().map(|t| table_state(t)).collect(),
            })
            .collect(),
        repo: match &inner.repo {
            Repository::Pm(r) => {
                let (head, chunks, cursor, end, len, data_bytes) = r.parts();
                Some(RepoState {
                    head,
                    chunk_size: inner.opts.repo_chunk_bytes as u64,
                    cursor,
                    end,
                    len,
                    data_bytes,
                    chunks,
                })
            }
            Repository::Lsm(_) => None,
        },
    };
    drop(mem);
    inner.manifest.store(&state)
}

/// Starts one background worker. It is marked as one before it runs, so
/// the device time it charges accrues as debt that its settle points sleep
/// off ([`device::settle`]) instead of spinning on a core the writers need.
fn spawn_worker(
    inner: &Arc<Inner>,
    name: String,
    work: impl FnOnce(Arc<Inner>) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let inner = inner.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            device::mark_background();
            work(inner)
        })
        .expect("spawn background worker")
}

fn spawn_workers(inner: &Arc<Inner>) -> Vec<std::thread::JoinHandle<()>> {
    let mut threads = vec![spawn_worker(inner, "miodb-flush".to_string(), flush_worker)];
    // Levels `0..n-1` merge downwards: one thread each (§4.5), or — the
    // parallel-compaction ablation — one thread for all of them.
    let merging_levels = inner.opts.elastic_levels - 1;
    let per_thread = if inner.opts.parallel_compaction {
        1
    } else {
        merging_levels.max(1)
    };
    for share in (0..merging_levels)
        .step_by(per_thread)
        .map(|i| i..i + per_thread)
    {
        let name = if share.len() == 1 {
            format!("miodb-compact-L{}", share.start)
        } else {
            "miodb-compact-serial".to_string()
        };
        threads.push(spawn_worker(inner, name, move |inner| {
            compactor_worker(inner, share)
        }));
    }
    threads.push(spawn_worker(inner, "miodb-lazy".to_string(), lazy_worker));
    if matches!(inner.repo, Repository::Lsm(_)) {
        threads.push(spawn_worker(inner, "miodb-repo".to_string(), repo_worker));
    }
    threads
}

/// Records the first background failure and wakes every wait, so stalled
/// writers and idle workers see it.
fn set_bg_error(inner: &Inner, msg: String) {
    let _ = inner.bg_error.set(msg);
    inner.wake();
}

/// Background-worker retry budget: a transient failure (injected fault,
/// momentary pool pressure, repository hiccup) is retried this many times
/// with exponential backoff before the engine degrades to read-only.
const BG_RETRIES: u32 = 5;
const BG_BACKOFF_BASE: Duration = Duration::from_millis(1);
const BG_BACKOFF_MAX: Duration = Duration::from_millis(64);

/// How often a flush blocked on the elastic-buffer cap re-checks it, and
/// one blocked on a full pool retries: both wait for a region to be
/// freed, which also happens when a reader drops the last `Version`
/// holding its table, outside any publish.
const CAP_RECHECK: Duration = Duration::from_micros(200);
const POOL_RECHECK: Duration = Duration::from_micros(500);

/// Runs `op`, retrying failures with exponential backoff instead of letting
/// the calling worker thread die on the first error. Gives up after
/// [`BG_RETRIES`] attempts, and early at shutdown or once another worker
/// failed, which cut the backoff wait short; returns the last error for
/// the caller to report via [`set_bg_error`].
fn with_bg_retries<T>(inner: &Inner, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut delay = BG_BACKOFF_BASE;
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let backoff = Instant::now() + delay;
                if attempt >= BG_RETRIES || inner.wait_until(Some(backoff), |_| false).is_err() {
                    return Err(e);
                }
                attempt += 1;
                delay = (delay * 2).min(BG_BACKOFF_MAX);
            }
        }
    }
}

/// One-piece flush + background swizzle of the immutable MemTable.
fn flush_worker(inner: Arc<Inner>) {
    loop {
        // Settle: precedes waiting for the next rotation (pays the
        // manifest store that dropped the last flushed MemTable's WAL).
        device::settle_idle();
        if inner.wait_until(None, |v| v.imm.is_some()).is_err() {
            return;
        }
        // Only this worker clears `imm`.
        let Some(imm) = inner.mem.read().imm.clone() else {
            continue;
        };
        // A failed flush is retried with backoff: everything before the
        // level publish is side-effect free on error (the one-piece
        // flush either completes or allocates nothing durable), and a
        // rare post-publish manifest failure at worst re-flushes the
        // same keys into a duplicate table, which reads dedupe and
        // lazy-copy reclaims — never data loss.
        if let Err(e) = with_bg_retries(&inner, || flush_one(&inner, &imm)) {
            // `imm` stays published and named by the manifest: its WAL
            // holds acknowledged writes that no table has yet.
            inner.telemetry.clear_flush_span();
            set_bg_error(&inner, format!("flush failed: {e}"));
            return;
        }
        // Settle: precedes clearing `imm`, which releases a stalled
        // writer (pays the level-0 push's manifest store).
        device::settle();
        inner.telemetry.clear_flush_span();
        {
            let mut mem = inner.mem.write();
            mem.imm = None;
            publish(&inner, |v| v.with_mem(&mem));
        }
        // Re-store the manifest so it stops referencing the immutable
        // MemTable's WAL *before* those segments are retired — otherwise
        // a crash in between would leave the manifest pointing at
        // recycled regions and recovery would double-free them.
        if let Err(e) = with_bg_retries(&inner, || store_manifest(&inner)) {
            set_bg_error(&inner, format!("manifest store failed: {e}"));
            return;
        }
        // Garbage from here on; the last reader to let go frees it.
        imm.retire();
    }
}

fn flush_one(inner: &Inner, imm: &Arc<MemTable>) -> Result<()> {
    if fault::hit(fault::points::ENGINE_FLUSH).is_some() {
        return Err(Error::Background("injected flush failure".to_string()));
    }
    // Backpressure: respect the elastic-buffer cap (Figure 14) and pool
    // capacity; lazy-copy GC frees space.
    let need = imm.arena().used_bytes();
    // An empty buffer always accepts one flush, so a cap below the
    // MemTable size degrades to "one table at a time" instead of
    // deadlocking.
    let over_cap = || {
        let used = inner.elastic_bytes.load(Ordering::Relaxed);
        used > 0
            && inner
                .opts
                .elastic_buffer_cap
                .is_some_and(|cap| used + need > cap)
    };
    if over_cap() {
        // Elastic-cap backpressure delays the flush pipeline as a whole —
        // the paper's cumulative (throughput) stall, not an interval stall.
        let _throttled = inner.telemetry.begin(Timed::Stall(StallKind::Cumulative));
        // Ask the lazy worker to drain ahead of its trigger.
        inner.pressure.store(true, Ordering::Release);
        inner.wake();
        while !inner.wait_until(Some(Instant::now() + CAP_RECHECK), |_| !over_cap())? {}
        inner.pressure.store(false, Ordering::Release);
    }

    // Also publishes this flush's span id, so a writer stalled on rotation
    // can link the flush it is waiting on (cleared by the flush worker).
    let flush = inner.telemetry.begin(Timed::Flush { bytes: need });
    let flushed = loop {
        match one_piece_flush(imm.arena(), &inner.nvm) {
            Ok(f) => break f,
            Err(Error::PoolExhausted { .. }) => {
                inner.wait_until(Some(Instant::now() + POOL_RECHECK), |_| false)?;
            }
            Err(e) => return Err(e),
        }
    };
    // Settle: precedes the end of the flush interval, which must span the
    // memcpy's device time.
    device::settle();
    flush.finish(flushed.bytes);

    // Background pointer swizzling: the immutable MemTable keeps serving
    // reads while this runs.
    {
        let _swizzling = inner.telemetry.begin(Timed::Swizzle);
        swizzle(&inner.nvm, &flushed);
        // Settle: precedes the end of the swizzle interval.
        device::settle();
    }

    // The index is built from the immutable MemTable's level 0 in DRAM,
    // its offsets shifted into the copy.
    let table = Arc::new(PmTable {
        list: SkipList::from_raw(inner.nvm.clone(), flushed.head),
        arenas: vec![lease_arena(
            &inner.nvm,
            flushed.region,
            &inner.elastic_bytes,
        )],
        bloom: imm.bloom_snapshot(),
        index: TableIndex::flushed(imm.list(), flushed.delta),
        len: flushed.len,
        data_bytes: flushed.data_bytes,
        newest_seq: inner.seq.load(Ordering::Relaxed),
    });
    {
        let mut levels = inner.levels.lock();
        levels[0].tables.push_back(table);
        publish_level_gauges(inner, 0, &levels[0]);
        let stored = store_manifest_locked(inner, &levels);
        publish(inner, |v| v.relinked(&levels));
        stored?;
    }
    Ok(())
}

/// Refreshes the telemetry occupancy gauges for level `i`. Counts match
/// [`KvEngine::report`]: settled tables plus both in-flight merge tables
/// plus a draining table. Callers hold the levels lock.
fn publish_level_gauges(inner: &Inner, i: usize, l: &Level) {
    let (mut bytes, mut tables) = (0, 0);
    for (_, t) in l.newest_first() {
        bytes += t.arena_bytes();
        tables += 1;
    }
    if let Some(m) = inner.telemetry.level(i) {
        m.set_occupancy(bytes, tables);
    }
}

impl Level {
    /// The one "has work" rule, shared by the workers' waits and
    /// `wait_idle`: level `i` holds a merge its compactor would start (two
    /// settled tables) or, at the bottom, a lazy-copy drain the lazy worker
    /// would start (`lazy_copy_trigger` settled tables, none draining).
    pub(crate) fn has_work(&self, opts: &MioOptions, i: usize) -> bool {
        if i + 1 < opts.elastic_levels {
            self.tables.len() >= 2
        } else {
            self.tables.len() >= opts.lazy_copy_trigger && self.lazy_draining.is_none()
        }
    }
}

/// The first level of `share`, from `turn` on, whose merge is due, in the
/// locked levels or a published `Version`'s.
fn merge_due(
    opts: &MioOptions,
    levels: &[Level],
    share: &std::ops::Range<usize>,
    turn: usize,
) -> Option<usize> {
    (0..share.len())
        .map(|k| share.start + (turn + k) % share.len())
        .find(|&i| levels[i].has_work(opts, i))
}

/// Zero-copy compactor for the elastic levels in `share` (level `i` pushes
/// into `i + 1`). With one level per thread (§4.5) levels never wait for
/// each other; the parallel-compaction ablation hands one thread every
/// level, served round-robin, so a busy deep merge blocks upper levels —
/// the coupling the paper's per-level threads remove.
fn compactor_worker(inner: Arc<Inner>, share: std::ops::Range<usize>) {
    // Round-robin position within `share`: the level after the one served
    // last is considered first.
    let mut turn = 0usize;
    loop {
        // Settle: precedes waiting for the next merge (pays the last
        // push's manifest store).
        device::settle_idle();
        if inner
            .wait_until(None, |v| {
                merge_due(&inner.opts, &v.levels, &share, turn).is_some()
            })
            .is_err()
        {
            return;
        }
        let (i, new_t, old_t, gate, mark) = {
            let mut levels = inner.levels.lock();
            // A pressure drain may have taken a table since the wait.
            let Some(i) = merge_due(&inner.opts, &levels, &share, turn) else {
                continue;
            };
            turn = (i + 1 - share.start) % share.len();
            // Invariant: guarded by the `has_work` pick above, under the
            // same levels lock.
            let old_t = levels[i].tables.pop_front().unwrap();
            let new_t = levels[i].tables.pop_front().unwrap();
            levels[i].merging = Some((new_t.clone(), old_t.clone()));
            let stored = store_manifest_locked(&inner, &levels);
            publish(&inner, |v| v.relinked(&levels));
            if let Err(e) = stored {
                set_bg_error(&inner, format!("manifest store failed: {e}"));
                return;
            }
            (
                i,
                new_t,
                old_t,
                levels[i].gate.clone(),
                levels[i].mark.clone(),
            )
        };
        if !run_one_zero_copy_merge(&inner, i, new_t, old_t, gate, mark) {
            return;
        }
    }
}

/// Executes one gated zero-copy merge for level `i` and publishes the
/// result to `i + 1`. Returns false if the engine must shut down.
#[must_use]
fn run_one_zero_copy_merge(
    inner: &Arc<Inner>,
    i: usize,
    new_t: Arc<PmTable>,
    old_t: Arc<PmTable>,
    gate: Arc<Mutex<()>>,
    mark: InsertionMark,
) -> bool {
    // A compaction-thread failure is retried with backoff instead of
    // killing the worker. If the budget runs out, `merging` stays set (the
    // manifest already records it), so recovery resumes the merge on the
    // next open — degraded mode here never strands the two tables.
    let admitted = with_bg_retries(inner, || {
        if fault::hit(fault::points::ENGINE_COMPACTION).is_some() {
            return Err(Error::Background("injected compaction failure".to_string()));
        }
        Ok(())
    });
    if let Err(e) = admitted {
        set_bg_error(inner, format!("compaction failed: {e}"));
        return false;
    }
    let mut merge = inner.telemetry.begin(Timed::Compaction {
        level: i,
        kind: CompactionKind::ZeroCopy,
    });
    // The runs are planned from the two indexes, in DRAM, with one cursor
    // pair across every gated batch.
    let mut runs = RunMerge::new(
        &inner.nvm,
        new_t.list.head(),
        old_t.list.head(),
        &mark,
        new_t.index.nodes(),
        old_t.index.nodes(),
    );
    let mut total = miodb_skiplist::MergeStats::default();
    loop {
        let out = {
            let _g = gate.lock();
            runs.run(MergeLimits {
                max_steps: Some(MERGE_STEPS_PER_GATE),
                abandon_after_link_writes: None,
            })
        };
        total += out.stats();
        if matches!(out, MergeOutcome::Complete(_)) {
            break;
        }
        // Settle once a quantum is owed: precedes the next gated batch,
        // with the gate released.
        device::settle_due();
    }
    // It borrows both tables' indexes, which are dropped below.
    drop(runs);
    // Settle: precedes the end of the merge interval, which must span the
    // merge's device time.
    device::settle();
    // The merge is timed up to here; it is reported below, under the lock.
    merge.stop();
    count_merge(&inner.stats, total);

    let index = TableIndex::merged(&new_t.index, &old_t.index);
    let bloom = merged_bloom(&new_t, &old_t, &index, inner.opts.bloom_bits_per_key);
    let merged = merged_table(&inner.nvm, &new_t, &old_t, bloom, index);
    let merged_bytes = merged.data_bytes;
    drop(new_t);
    drop(old_t);
    {
        let mut levels = inner.levels.lock();
        levels[i].merging = None;
        levels[i + 1].tables.push_back(merged);
        publish_level_gauges(inner, i, &levels[i]);
        publish_level_gauges(inner, i + 1, &levels[i + 1]);
        // Count the compaction before the republish: once a `Version`
        // without this merge is published, `wait_idle` may report the
        // engine idle, and a consumer reading the counters right then must
        // already see this compaction done.
        merge.finish(merged_bytes);
        let stored = store_manifest_locked(inner, &levels);
        publish(inner, |v| v.relinked(&levels));
        if let Err(e) = stored {
            set_bg_error(inner, format!("manifest store failed: {e}"));
            return false;
        }
    }
    true
}

/// Picks a level to pressure-drain: the deepest level holding tables, but
/// only if no in-flight merge could later push *older* data below it —
/// draining its front (oldest) table to the repository then preserves the
/// newer-shadows-older read order.
fn pick_pressure_drain(levels: &[Level]) -> Option<usize> {
    for (i, l) in levels.iter().enumerate().rev() {
        let busy = l.merging.is_some() || l.lazy_draining.is_some();
        if !l.tables.is_empty() {
            return if busy { None } else { Some(i) };
        }
        if busy {
            return None; // wait for the in-flight work at the deepest level
        }
    }
    None
}

/// Lazy-copy worker for the bottom buffer level: drains the oldest PMTable
/// into the repository and retires its arenas (the GC point). Under
/// elastic-cap pressure it also drains the globally oldest table early.
fn lazy_worker(inner: Arc<Inner>) {
    loop {
        // Settle: precedes waiting for the next drain (pays the last
        // drain's manifest store).
        device::settle_idle();
        if inner
            .wait_until(None, |v| drain_due(&inner, &v.levels).is_some())
            .is_err()
        {
            return;
        }
        let (table, level_idx) = {
            let mut levels = inner.levels.lock();
            let Some(picked) = drain_due(&inner, &levels) else {
                continue;
            };
            // Invariant: both pick paths (`has_work` and
            // `pick_pressure_drain`) only select non-empty levels, under
            // this same levels lock.
            let t = levels[picked].tables.pop_front().unwrap();
            levels[picked].lazy_draining = Some(t.clone());
            let stored = store_manifest_locked(&inner, &levels);
            publish(&inner, |v| v.relinked(&levels));
            if let Err(e) = stored {
                set_bg_error(&inner, format!("manifest store failed: {e}"));
                return;
            }
            (t, picked)
        };
        let drained_bytes = table.data_bytes;

        let mut drain = inner.telemetry.begin(Timed::Compaction {
            level: level_idx,
            kind: CompactionKind::LazyCopy,
        });
        // Retried with backoff on failure: each attempt is one run that
        // re-reads the intact PMTable and re-applies with the same
        // sequence numbers, so a partially applied earlier attempt is
        // simply overwritten (idempotent) rather than doubled. The backoff
        // waits with the repository writer released.
        let drained: Result<()> = with_bg_retries(&inner, || {
            let mut writer = inner.repo_writer.lock();
            repo_run(&inner, &mut writer, |edits| {
                if fault::hit(fault::points::ENGINE_LAZY).is_some() {
                    return Err(Error::Background("injected lazy-copy failure".to_string()));
                }
                let merged = dedup_newest(table.list.iter(), false);
                match &inner.repo {
                    Repository::Pm(r) => {
                        for e in merged {
                            edits.record(&e.key, r.apply(&e.key, &e.value, e.seq, e.kind)?);
                        }
                    }
                    Repository::Lsm(_) => {
                        let entries: Vec<OwnedEntry> = merged.collect();
                        inner.repo.ingest_run(entries.into_iter())?;
                    }
                }
                Ok(())
            })
        });
        if let Err(e) = drained {
            // Close the interval before the error becomes visible: whoever
            // sees `background_error()` must already see it closed.
            drop(drain);
            set_bg_error(&inner, format!("lazy-copy failed: {e}"));
            return;
        }
        // Settle: precedes the end of the drain interval and clearing
        // `lazy_draining`, with the repository writer released.
        device::settle();
        drain.stop();

        {
            let mut levels = inner.levels.lock();
            levels[level_idx].lazy_draining = None;
            publish_level_gauges(&inner, level_idx, &levels[level_idx]);
            // Before the publish for the same reason as the zero-copy
            // merge: `wait_idle` must not observe idle before the drain
            // is counted.
            drain.finish(drained_bytes);
            let stored = store_manifest_locked(&inner, &levels);
            if stored.is_ok() {
                // GC: the manifest no longer names the drained table, so
                // its arenas are garbage; each is freed (and leaves
                // `elastic_bytes`) when the last table sharing it drops —
                // in the publish below, which drops the last `Version`
                // naming it, unless a reader or scan still holds this table
                // or one of its merge inputs. So an engine that `wait_idle`
                // reports idle has its memory back too.
                table.retire();
            }
            drop(table);
            publish(&inner, |v| v.relinked(&levels));
            if let Err(e) = stored {
                set_bg_error(&inner, format!("manifest store failed: {e}"));
                return;
            }
        }
    }
}

/// The level the lazy worker drains next, in the locked levels or a
/// published `Version`'s: the bottom level once its drain is due, else,
/// under elastic-cap pressure, [`pick_pressure_drain`]'s.
fn drain_due(inner: &Inner, levels: &[Level]) -> Option<usize> {
    let b = levels.len() - 1;
    if levels[b].has_work(&inner.opts, b) {
        Some(b)
    } else if inner.pressure.load(Ordering::Acquire) {
        pick_pressure_drain(levels)
    } else {
        None
    }
}

/// Builds the engine report.
fn build_report(inner: &Inner) -> EngineReport {
    let mut tables: Vec<usize> = {
        let levels = inner.levels.lock();
        levels.iter().map(|l| l.newest_first().count()).collect()
    };
    tables.extend(inner.repo.tables_per_level());
    EngineReport {
        name: inner.opts.name.clone(),
        nvm_used_bytes: inner.nvm.used_bytes(),
        nvm_peak_bytes: inner.nvm.peak_bytes(),
        nvm_huge_page_bytes: inner.nvm.huge_page_bytes(),
        dram_huge_page_bytes: inner.dram.huge_page_bytes(),
        dram_bytes: inner.version().dram_bytes(),
        tables_per_level: tables,
        stats: inner.stats.snapshot(),
    }
}

/// Background compaction of the on-SSD LSM repository (SSD mode).
fn repo_worker(inner: Arc<Inner>) {
    loop {
        match with_bg_retries(&inner, || inner.repo.maintain()) {
            // The repository's quiescence, which `wait_idle` checks,
            // changes outside any publish.
            Ok(true) => inner.wake(),
            // Settle: precedes the idle wait (a compaction's install
            // settles first; see `LsmCore::build_tables`).
            Ok(false) => device::settle_idle(),
            Err(e) => {
                set_bg_error(&inner, format!("repository compaction failed: {e}"));
                return;
            }
        }
        // The lazy worker's ingest, the only other repository writer,
        // ends in a publish.
        if inner
            .wait_until(None, |_| !inner.repo.is_quiescent())
            .is_err()
        {
            return;
        }
    }
}

impl KvEngine for MioDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, OpKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", OpKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let r = self.get_impl(key);
        if r.is_ok() {
            self.inner.telemetry.get_latency.record_elapsed(t0);
        }
        r
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let t0 = Instant::now();
        let r = self.scan_impl(start, limit);
        if r.is_ok() {
            self.inner.telemetry.scan_latency.record_elapsed(t0);
        }
        r
    }

    fn wait_idle(&self) -> Result<()> {
        self.check_usable()?;
        let inner = &*self.inner;
        inner.wait_until(None, |v| {
            v.imm.is_none()
                && v.levels.iter().enumerate().all(|(i, l)| {
                    l.merging.is_none() && l.lazy_draining.is_none() && !l.has_work(&inner.opts, i)
                })
                && inner.repo.is_quiescent()
        })?;
        Ok(())
    }

    fn report(&self) -> EngineReport {
        build_report(&self.inner)
    }

    fn name(&self) -> &str {
        &self.inner.opts.name
    }

    fn telemetry(&self) -> Option<&EngineTelemetry> {
        Some(&self.inner.telemetry)
    }
}

/// MemTable capacity guaranteed to accept the entry being written.
fn min_capacity(key: &[u8], value: &[u8]) -> usize {
    miodb_skiplist::SkipListArena::capacity_for_entry(key.len(), value.len())
}

/// An atomic multi-operation write (LevelDB-style `WriteBatch`).
///
/// All operations of a batch are framed as a **single WAL record**, so
/// after a crash either every operation replays or none does; they receive
/// consecutive sequence numbers and land in one MemTable. (Readers without
/// snapshots may still observe a batch mid-application — durability is
/// atomic, isolation follows the paper's snapshot-less read model.)
///
/// # Examples
///
/// ```
/// use miodb_core::{MioDb, MioOptions, WriteBatch};
/// use miodb_common::KvEngine;
///
/// # fn main() -> miodb_common::Result<()> {
/// let db = MioDb::open(MioOptions::small_for_tests())?;
/// let mut batch = WriteBatch::new();
/// batch.put(b"a", b"1");
/// batch.put(b"b", b"2");
/// batch.delete(b"stale");
/// db.write_batch(batch)?;
/// assert_eq!(db.get(b"a")?.as_deref(), Some(&b"1"[..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct WriteBatch {
    ops: OwnedOps,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queues an insert/overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut WriteBatch {
        self.ops.push((key.to_vec(), value.to_vec(), OpKind::Put));
        self
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut WriteBatch {
        self.ops.push((key.to_vec(), Vec::new(), OpKind::Delete));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drops all queued operations.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

impl MioDb {
    /// Applies a [`WriteBatch`]: one WAL record, consecutive sequence
    /// numbers, all operations in one MemTable (rotating to a large-enough
    /// MemTable first if needed).
    ///
    /// # Errors
    ///
    /// Returns the usual write-path failures; on error, nothing from the
    /// batch was logged.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.ops.is_empty() {
            return Ok(());
        }
        self.commit(&group_ops(&batch.ops).collect::<Vec<_>>())
    }
}

impl Drop for MioDb {
    fn drop(&mut self) {
        // The same graceful drain as `close`: flush in-flight commit
        // groups and the active MemTable so even a drop-only shutdown
        // leaves nothing that depends on WAL replay. Errors are ignored:
        // `close` stops and joins every worker whatever the drain did.
        let _ = self.close();
    }
}

#[cfg(test)]
impl MioDb {
    /// Asserts that the published `Version` names exactly the locked
    /// state: the same MemTable and table `Arc`s, by pointer, in the same
    /// roles.
    fn assert_version_current(&self) {
        let inner = &*self.inner;
        let levels = inner.levels.lock();
        let mem = inner.mem.read();
        let v = inner.version();
        let tables = |l: &Level| {
            l.newest_first()
                .map(|(role, t)| (role, Arc::as_ptr(t)))
                .collect::<Vec<_>>()
        };
        assert!(Arc::ptr_eq(&v.active, &mem.active), "active MemTable");
        assert_eq!(
            v.imm.as_ref().map(Arc::as_ptr),
            mem.imm.as_ref().map(Arc::as_ptr),
            "immutable MemTable"
        );
        assert_eq!(v.levels.len(), levels.len());
        for (i, (published, l)) in v.levels.iter().zip(levels.iter()).enumerate() {
            assert_eq!(tables(published), tables(l), "L{i} tables");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::{AFTER_NEWTABLE_PROBE, BEFORE_REPO_PROBE};
    use crate::table::IndexHit;
    use miodb_common::DramBytes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> MioDb {
        MioDb::open(MioOptions::small_for_tests()).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let d = db();
        d.put(b"k", b"v").unwrap();
        assert_eq!(d.get(b"k").unwrap().unwrap(), b"v");
        d.delete(b"k").unwrap();
        assert!(d.get(b"k").unwrap().is_none());
        assert!(d.get(b"missing").unwrap().is_none());
    }

    #[test]
    fn overwrites_return_newest() {
        let d = db();
        for i in 0..10u32 {
            d.put(b"key", format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(d.get(b"key").unwrap().unwrap(), b"v9");
    }

    #[test]
    fn data_flows_through_all_levels() {
        let d = db();
        let value = vec![42u8; 256];
        for i in 0..4000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let report = d.report();
        assert!(report.stats.flush_count > 1, "several flushes expected");
        assert!(
            report.stats.zero_copy_compactions > 0,
            "zero-copy merges expected"
        );
        assert!(report.stats.copy_compactions > 0, "lazy-copy expected");
        for i in (0..4000u32).step_by(191) {
            assert_eq!(
                d.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value,
                "key{i:06}"
            );
        }
    }

    #[test]
    fn wa_stays_near_paper_bound() {
        // Zero-copy compaction means the only NVM rewrites are the WAL, the
        // one-piece flush and the lazy copy: WA should stay around ~3
        // (paper Figure 11: 2.9x, theoretical bound 3).
        let d = db();
        let value = vec![7u8; 512];
        for i in 0..6000u32 {
            d.put(format!("key{:06}", i % 1500).as_bytes(), &value)
                .unwrap();
        }
        d.wait_idle().unwrap();
        let wa = d.report().stats.write_amplification;
        assert!(wa > 1.0, "wa = {wa}");
        assert!(wa < 4.5, "zero-copy compaction must bound WA, got {wa}");
    }

    #[test]
    fn deletes_survive_compaction() {
        let d = db();
        let value = vec![1u8; 256];
        for i in 0..1000u32 {
            d.put(format!("key{i:05}").as_bytes(), &value).unwrap();
        }
        for i in (0..1000u32).step_by(2) {
            d.delete(format!("key{i:05}").as_bytes()).unwrap();
        }
        d.wait_idle().unwrap();
        for i in 0..1000u32 {
            let got = d.get(format!("key{i:05}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "key{i:05} should be deleted");
            } else {
                assert_eq!(got.unwrap(), value, "key{i:05} should live");
            }
        }
    }

    #[test]
    fn scan_is_sorted_and_deduped() {
        let d = db();
        let value = vec![9u8; 200];
        for i in 0..2000u32 {
            d.put(format!("key{i:05}").as_bytes(), &value).unwrap();
        }
        // Overwrite some keys and delete others while compaction runs.
        for i in (0..2000u32).step_by(3) {
            d.put(format!("key{i:05}").as_bytes(), b"fresh").unwrap();
        }
        for i in (1..2000u32).step_by(100) {
            d.delete(format!("key{i:05}").as_bytes()).unwrap();
        }
        let out = d.scan(b"key00500", 50).unwrap();
        assert!(!out.is_empty());
        for w in out.windows(2) {
            assert!(w[0].key < w[1].key, "scan must be sorted");
        }
        for e in &out {
            let direct = d.get(&e.key).unwrap().expect("scan returned dead key");
            assert_eq!(
                direct,
                e.value,
                "scan/get disagree on {:?}",
                String::from_utf8_lossy(&e.key)
            );
        }
    }

    #[test]
    fn memtable_pressure_has_no_interval_stalls() {
        // MioDB's headline property: flushing is one memcpy, so even write
        // bursts should not produce interval stalls.
        let d = db();
        let value = vec![5u8; 1024];
        for i in 0..3000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        let snap = d.report().stats;
        // One-piece flushing keeps rotation nearly free: any residual
        // interval stalls must be negligible (the paper's Table 1 shows 0s
        // vs minutes for the baselines).
        assert!(
            snap.interval_stall_ns < 100_000_000,
            "interval stalls too large: {snap:?}"
        );
        assert!(
            snap.serialization_ns == 0,
            "MioDB never serializes into NVM"
        );
    }

    #[test]
    fn elastic_cap_applies_backpressure() {
        let opts = MioOptions {
            elastic_buffer_cap: Some(256 * 1024),
            ..MioOptions::small_for_tests()
        };
        let d = MioDb::open(opts).unwrap();
        let value = vec![3u8; 512];
        for i in 0..3000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        for i in (0..3000u32).step_by(307) {
            assert!(d.get(format!("key{i:06}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn reads_concurrent_with_writes() {
        let d = Arc::new(db());
        let value = vec![8u8; 300];
        std::thread::scope(|s| {
            let writer = {
                let d = d.clone();
                let value = value.clone();
                s.spawn(move || {
                    for i in 0..3000u32 {
                        d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
                    }
                })
            };
            for t in 0..3 {
                let d = d.clone();
                let value = value.clone();
                s.spawn(move || {
                    for i in (t..2000u32).step_by(7) {
                        if let Some(v) = d.get(format!("key{i:06}").as_bytes()).unwrap() {
                            assert_eq!(v, value);
                        }
                    }
                });
            }
            writer.join().unwrap();
        });
        d.wait_idle().unwrap();
        assert_eq!(d.get(b"key002999").unwrap().unwrap(), value);
    }

    #[test]
    fn ssd_mode_round_trip() {
        let opts = MioOptions {
            repository: RepositoryMode::Ssd {
                lsm: miodb_lsm::LsmOptions {
                    table_bytes: 32 * 1024,
                    level1_max_bytes: 128 * 1024,
                    ..miodb_lsm::LsmOptions::default()
                },
                device: DeviceModel::ssd_unthrottled(),
            },
            elastic_levels: 3,
            ..MioOptions::small_for_tests()
        };
        let d = MioDb::open(opts).unwrap();
        let value = vec![6u8; 400];
        for i in 0..2000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.wait_idle().unwrap();
        let snap = d.report().stats;
        assert!(snap.ssd_bytes_written > 0, "repository must hit the SSD");
        for i in (0..2000u32).step_by(173) {
            assert_eq!(
                d.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value
            );
        }
    }

    #[test]
    fn dropping_the_engine_frees_nothing() {
        let opts = MioOptions::small_for_tests();
        let d = MioDb::open(opts.clone()).unwrap();
        let value = vec![4u8; 256];
        for i in 0..3000u32 {
            d.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        d.close().unwrap();
        let pool = d.nvm_pool().clone();
        let used = pool.used_bytes();
        drop(d);
        assert_eq!(
            pool.used_bytes(),
            used,
            "persistent tables, WALs and the repository must outlive the engine"
        );
        let r = MioDb::recover(pool, opts).unwrap();
        for i in (0..3000u32).step_by(211) {
            assert_eq!(
                r.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
                value
            );
        }
    }

    /// One record of a hand-built table: key, value, sequence, kind, and
    /// a tower height (`None`: drawn as an insert draws it).
    type Rec = (Vec<u8>, Vec<u8>, u64, OpKind, Option<usize>);

    /// Flushes `recs` as the engine does — one-piece copy from a DRAM
    /// arena into `nvm`, then swizzle — and wraps them as a settled table.
    fn flushed_table(
        dram: &Arc<PmemPool>,
        nvm: &Arc<PmemPool>,
        elastic: &Arc<AtomicU64>,
        recs: &[Rec],
    ) -> Arc<PmTable> {
        let cap = recs
            .iter()
            .map(|(k, v, ..)| miodb_skiplist::node_size_upper(k.len(), v.len()) as usize)
            .sum::<usize>()
            + (16 << 10);
        let mem = miodb_skiplist::SkipListArena::new(dram.clone(), cap).unwrap();
        for (k, v, seq, kind, height) in recs {
            match height {
                Some(h) => mem.insert_with_height(k, v, *seq, *kind, *h),
                None => mem.insert(k, v, *seq, *kind),
            }
            .unwrap();
        }
        let flushed = one_piece_flush(&mem, nvm).unwrap();
        swizzle(nvm, &flushed);
        let list = SkipList::from_raw(nvm.clone(), flushed.head);
        Arc::new(PmTable {
            bloom: PmTable::rebuild_bloom(&list, recs.len().max(64), 16),
            list,
            arenas: vec![lease_arena(nvm, flushed.region, elastic)],
            index: TableIndex::flushed(&mem.list(), flushed.delta),
            len: flushed.len,
            data_bytes: flushed.data_bytes,
            newest_seq: recs.iter().map(|r| r.2).max().unwrap_or(0),
        })
    }

    /// The merged table the compactor builds once the merge of `new_t`
    /// into `old_t` is complete.
    fn merged(nvm: &Arc<PmemPool>, new_t: &PmTable, old_t: &PmTable) -> Arc<PmTable> {
        let index = TableIndex::merged(&new_t.index, &old_t.index);
        merged_table(
            nvm,
            new_t,
            old_t,
            merged_bloom(new_t, old_t, &index, 16),
            index,
        )
    }

    /// The merge of `new_t` into `old_t` as the compactor runs it: fed
    /// from their indexes, `MERGE_STEPS_PER_GATE` runs a call, `at_gate`
    /// called after each call with whether the merge is complete.
    fn merge_indexed(
        nvm: &PmemPool,
        new_t: &PmTable,
        old_t: &PmTable,
        mark: &InsertionMark,
        mut at_gate: impl FnMut(bool),
    ) -> miodb_skiplist::MergeStats {
        let mut runs = RunMerge::new(
            nvm,
            new_t.list.head(),
            old_t.list.head(),
            mark,
            new_t.index.nodes(),
            old_t.index.nodes(),
        );
        let mut total = miodb_skiplist::MergeStats::default();
        loop {
            let out = runs.run(MergeLimits {
                max_steps: Some(MERGE_STEPS_PER_GATE),
                abandon_after_link_writes: None,
            });
            total += out.stats();
            at_gate(out.is_complete());
            if out.is_complete() {
                return total;
            }
        }
    }

    fn puts(keys: std::ops::Range<u64>, seq0: u64) -> Vec<Rec> {
        keys.map(|i| {
            let k = format!("k{i:04}").into_bytes();
            (k, b"v".to_vec(), seq0 + i, OpKind::Put, None)
        })
        .collect()
    }

    /// The exact DRAM bytes of an index of `keys`: 24 bytes an entry plus
    /// its key — key end, value offset, value length, window — and 8 bytes
    /// a block of 16 entries.
    fn index_bytes<K: AsRef<[u8]>>(keys: &[K]) -> u64 {
        let entries = keys
            .iter()
            .map(|k| 24 + k.as_ref().len() as u64)
            .sum::<u64>();
        entries + 8 * keys.len().div_ceil(16) as u64
    }

    /// `miodb_dram_bytes{use}` equals, use by use, the bytes of the
    /// structures the published `Version` names, counted here from the
    /// structures themselves: each MemTable's arena, every filter's bits,
    /// and every index at its exact size ([`index_bytes`]).
    #[test]
    fn dram_gauges_equal_what_the_version_names() {
        let d = db();
        let value = vec![42u8; 256];
        // Enough puts for lazy copy to reach the repository; a third of
        // them rewrite a key.
        for i in 0..6000u32 {
            d.put(format!("key{:06}", i % 4000).as_bytes(), &value)
                .unwrap();
        }
        d.wait_idle().unwrap();
        let v = d.inner.version();
        let Repository::Pm(repo) = &d.inner.repo else {
            unreachable!("a huge-PMTable repository")
        };
        let repo_keys: Vec<Vec<u8>> = repo.list().iter().map(|e| e.key).collect();
        let mut expect = DramBytes {
            repo_index: index_bytes(&repo_keys),
            ..DramBytes::default()
        };
        assert!(expect.repo_index > 0, "no repository key to account");
        for m in std::iter::once(&v.active).chain(&v.imm) {
            expect.memtable += m.arena().region().len;
            expect.bloom += m.bloom_snapshot().num_bits() as u64 / 8;
        }
        let mut indexed = 0;
        for l in v.levels.iter() {
            assert!(l.merging.is_none() && l.lazy_draining.is_none());
            for t in &l.tables {
                let mut keys: Vec<Vec<u8>> = t.list.iter().map(|e| e.key).collect();
                keys.dedup();
                indexed += keys.len();
                expect.bloom += t.bloom.num_bits() as u64 / 8;
                expect.index += index_bytes(&keys);
            }
        }
        assert!(indexed > 0, "no settled table to account");
        let text = d.metrics_text();
        for (use_, bytes) in expect.uses() {
            let series = format!("miodb_dram_bytes{{use=\"{use_}\"}} ");
            let value: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix(&series))
                .unwrap_or_else(|| panic!("no {series}in:\n{text}"))
                .parse()
                .unwrap();
            assert_eq!(value, bytes as f64, "{use_}");
        }
    }

    #[test]
    fn merged_table_shares_its_inputs_arenas() {
        let stats = Arc::new(Stats::new());
        let dram = PmemPool::new(1 << 20, DeviceModel::dram(), stats.clone()).unwrap();
        let nvm = PmemPool::new(4 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
        let elastic = Arc::new(AtomicU64::new(0));
        let old_t = flushed_table(&dram, &nvm, &elastic, &puts(0..50, 0));
        let new_t = flushed_table(&dram, &nvm, &elastic, &puts(25..75, 100));
        let (old_r, new_r) = (old_t.arenas[0].region(), new_t.arenas[0].region());
        let live = |r: PmemRegion| nvm.region_is_live(r.offset, r.len);

        let mark = InsertionMark::alloc(&nvm).unwrap();
        merge_indexed(&nvm, &new_t, &old_t, &mark, |_| {});
        let merged = merged(&nvm, &new_t, &old_t);
        assert_eq!(merged.list.iter().count(), 75);
        assert_eq!(merged.len, 75);

        // Only a reader of the new input is left; the merged table keeps
        // both inputs' arenas alive.
        drop(old_t);
        assert!(live(old_r) && live(new_r));
        assert_eq!(elastic.load(Ordering::Relaxed), old_r.len + new_r.len);

        // Drained and dropped: the arena nobody else holds goes back, the
        // one under the reader stays until the reader lets go.
        merged.retire();
        drop(merged);
        assert!(!live(old_r) && live(new_r));
        assert_eq!(elastic.load(Ordering::Relaxed), new_r.len);
        drop(new_t);
        assert!(!live(new_r));
        assert_eq!(elastic.load(Ordering::Relaxed), 0);
    }

    /// A GET parked right after its probe of a merging pair's newtable —
    /// hit, miss or bloom skip — while the whole merge runs under the level
    /// gate, as the compactor runs it. One merge per key of a 160-key
    /// space, on a pair that holds keys in either table, keys updated in
    /// both, keys tombstoned in the newtable over puts in the oldtable, and
    /// several versions of a key on each side: the resumed GET answers with
    /// the newest version of its key, through the oldtable's index of the
    /// `Version` it loaded — though the oldtable's list now holds every
    /// node of both. Half the time the hook leaves the pair published, as
    /// the compactor does until it publishes the merged table; half the
    /// time it also publishes the merged table one level down.
    #[test]
    fn a_get_parked_between_the_merge_inputs_answers_every_key() {
        const SPACE: u32 = 160;
        // Room for both tables' DRAM arenas of every merge, never reused.
        let d = MioDb::open(MioOptions {
            dram_pool_bytes: 16 << 20,
            ..MioOptions::small_for_tests()
        })
        .unwrap();
        let inner = d.inner.clone();
        let key = |k: u32| format!("key{k:05}").into_bytes();
        let mut rng = StdRng::seed_from_u64(40);
        let (mut old_recs, mut new_recs) = (Vec::new(), Vec::new());
        let mut model = std::collections::BTreeMap::new();
        // Oldtable sequence numbers stay below 1 000, the newtable's above.
        for k in 0..SPACE {
            for (recs, seq0, side) in [(&mut old_recs, 0, "old"), (&mut new_recs, 1000, "new")] {
                for v in 0..rng.gen_range(0..3u64) {
                    // Versions of a key are inserted oldest first.
                    let seq = seq0 + 2 * u64::from(k) + v;
                    let rec = if rng.gen_range(0..4u32) == 0 {
                        model.remove(&key(k));
                        (key(k), Vec::new(), seq, OpKind::Delete, None)
                    } else {
                        let value = format!("{side}{seq}").into_bytes();
                        model.insert(key(k), value.clone());
                        (key(k), value, seq, OpKind::Put, None)
                    };
                    recs.push(rec);
                }
            }
        }
        // The newest kind of `k` on one side, if the side holds `k`.
        let newest = |recs: &[Rec], k: u32| recs.iter().rev().find(|r| r.0 == key(k)).map(|r| r.3);
        let cases = |old, new| {
            (0..SPACE)
                .filter(|&k| (newest(&old_recs, k), newest(&new_recs, k)) == (old, new))
                .count()
        };
        let (put, delete) = (Some(OpKind::Put), Some(OpKind::Delete));
        for (old, new) in [(put, None), (None, put), (put, put), (put, delete)] {
            assert!(cases(old, new) > 0, "no key is {old:?} old and {new:?} new");
        }
        // Publishes the merged table one level down, as the compactor does.
        let push_down = |inner: &Inner, merged: Arc<PmTable>| {
            let mut levels = inner.levels.lock();
            levels[0].merging = None;
            levels[1].tables.push_back(merged);
            publish(inner, |v| v.relinked(&levels));
        };
        for probe in 0..SPACE {
            let (dram, nvm, elastic) = (&inner.dram, &inner.nvm, &inner.elastic_bytes);
            let old_t = flushed_table(dram, nvm, elastic, &old_recs);
            let new_t = flushed_table(dram, nvm, elastic, &new_recs);
            {
                let mut levels = inner.levels.lock();
                levels[0].merging = Some((new_t.clone(), old_t.clone()));
                publish(&inner, |v| v.relinked(&levels));
            }
            let finish = probe % 2 == 1;
            let held = Arc::new(Mutex::new(None));
            let (runner, out) = (inner.clone(), held.clone());
            AFTER_NEWTABLE_PROBE.with(|h| {
                h.set(Some(Box::new(move || {
                    let (gate, mark) = {
                        let levels = runner.levels.lock();
                        (levels[0].gate.clone(), levels[0].mark.clone())
                    };
                    {
                        let _gate = gate.lock();
                        merge_indexed(&runner.nvm, &new_t, &old_t, &mark, |_| {});
                    }
                    let table = merged(&runner.nvm, &new_t, &old_t);
                    if finish {
                        push_down(&runner, table);
                    } else {
                        *out.lock() = Some(table);
                    }
                })))
            });
            let got = d.get(&key(probe)).unwrap();
            assert!(
                AFTER_NEWTABLE_PROBE.with(std::cell::Cell::take).is_none(),
                "key {probe}: the merge ran under the GET"
            );
            assert_eq!(got.as_ref(), model.get(&key(probe)), "key {probe}");
            if let Some(table) = held.lock().take() {
                push_down(&inner, table);
            }
            d.assert_version_current();

            let mut levels = inner.levels.lock();
            let table = levels[1].tables.pop_back().unwrap();
            publish(&inner, |v| v.relinked(&levels));
            table.retire();
        }
    }

    /// An unparked storm: one writer rewrites a small key space with
    /// ascending versions while two readers GET it, over enough MemTables
    /// that flushes and real zero-copy merges (and lazy copies) run under
    /// the readers. A reader's GET finds every key, and returns a version
    /// no older than the one the writer acknowledged before the GET began,
    /// nor than the one the same reader read last.
    #[test]
    fn gets_during_real_merges_find_every_acknowledged_version() {
        const KEYS: usize = 256;
        const ROUNDS: u64 = 60;
        let d = db();
        let key = |k: usize| format!("key{k:05}").into_bytes();
        let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let mut value = vec![0u8; 200];
        for k in 0..KEYS {
            d.put(&key(k), &value).unwrap();
        }
        let done = AtomicBool::new(false);
        let merges = || d.stats().zero_copy_compactions.load(Ordering::Relaxed);
        let merges_before = merges();
        let gets = AtomicU64::new(0);
        std::thread::scope(|s| {
            for reader in 0..2u64 {
                let (d, acked, done, gets) = (&d, &acked, &done, &gets);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(reader);
                    let mut last = vec![0u64; KEYS];
                    while !done.load(Ordering::Acquire) {
                        let k = rng.gen_range(0..KEYS);
                        let floor = acked[k].load(Ordering::Acquire).max(last[k]);
                        let got = d.get(&key(k)).unwrap().expect("every key was written");
                        let version = u64::from_le_bytes(got[..8].try_into().unwrap());
                        assert!(version >= floor, "key {k}: read {version} after {floor}");
                        last[k] = version;
                        gets.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let mut rng = StdRng::seed_from_u64(40);
            let mut order: Vec<usize> = (0..KEYS).collect();
            for version in 1..=ROUNDS {
                for i in (1..KEYS).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                value[..8].copy_from_slice(&version.to_le_bytes());
                for &k in &order {
                    d.put(&key(k), &value).unwrap();
                    acked[k].store(version, Ordering::Release);
                }
            }
            done.store(true, Ordering::Release);
        });
        let (merges, gets) = (merges() - merges_before, gets.load(Ordering::Relaxed));
        println!("{gets} GETs under {merges} zero-copy merges");
        assert!(merges > 0, "no merge ran under the readers");
        assert!(gets > 0);
        for k in 0..KEYS {
            let got = d.get(&key(k)).unwrap().unwrap();
            assert_eq!(got[..8], ROUNDS.to_le_bytes());
        }
    }

    /// Every publish is a consistent cut. One writer puts ascending
    /// versions: every fourth put a fresh key, written once and never
    /// again, the rest into a hot set, over MemTables small enough that
    /// flushes, merges and lazy copies run throughout, so every transition
    /// moves some key's only version. After each publish, under the
    /// `Version` write lock, every key acknowledged so far is read from the
    /// newly published `Version` alone ([`Inner::get_in`]): it must be no
    /// older than the version the writer had acknowledged by then.
    #[test]
    fn every_published_version_is_a_consistent_cut() {
        const HOT: u64 = 64;
        const PUTS: u64 = 6000;
        const KEYS: usize = (HOT + PUTS / 4) as usize;
        let d = MioDb::open(MioOptions {
            memtable_bytes: 32 << 10,
            ..MioOptions::small_for_tests()
        })
        .unwrap();
        let key = |k: usize| format!("key{k:06}").into_bytes();
        let acked: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
        let violations = Arc::new(Mutex::new(Vec::new()));
        let publishes = Arc::new(AtomicU64::new(0));
        {
            let (acked, violations, publishes) =
                (acked.clone(), violations.clone(), publishes.clone());
            let observe: PublishObserver = Box::new(move |inner, v| {
                publishes.fetch_add(1, Ordering::Relaxed);
                for (k, acked) in acked.iter().enumerate() {
                    let floor = acked.load(Ordering::Acquire);
                    if floor == 0 {
                        continue;
                    }
                    let got = inner.get_in(v, &key(k)).unwrap();
                    let version = got.map_or(0, |g| u64::from_le_bytes(g[..8].try_into().unwrap()));
                    if version < floor {
                        violations
                            .lock()
                            .push(format!("key {k}: read {version} after {floor}"));
                    }
                }
            });
            assert!(d.inner.on_publish.set(observe).is_ok());
        }
        let mut rng = StdRng::seed_from_u64(46);
        let mut value = vec![0u8; 256];
        let mut fresh = HOT as usize;
        for version in 1..=PUTS {
            let k = if version % 4 == 0 {
                fresh += 1;
                fresh - 1
            } else {
                rng.gen_range(0..HOT as usize)
            };
            value[..8].copy_from_slice(&version.to_le_bytes());
            d.put(&key(k), &value).unwrap();
            acked[k].store(version, Ordering::Release);
        }
        d.wait_idle().unwrap();
        let stats = d.stats();
        let (merges, drains) = (
            stats.zero_copy_compactions.load(Ordering::Relaxed),
            stats.copy_compactions.load(Ordering::Relaxed),
        );
        let publishes = publishes.load(Ordering::Relaxed);
        println!("{publishes} publishes observed, {merges} merges, {drains} lazy copies");
        assert!(
            merges > 0 && drains > 0,
            "{merges} merges, {drains} lazy copies"
        );
        let violations = violations.lock();
        assert!(
            violations.is_empty(),
            "{} stale reads from a published Version, first: {:?}",
            violations.len(),
            &violations[..violations.len().min(5)]
        );
    }

    /// Runs `work` on another thread while this one compares the published
    /// `Version` with the locked state, until `work` ends and once after.
    /// A mismatch fails here even if `work` — a `wait_idle` reading a stale
    /// `Version` — would never end.
    fn checked(d: &Arc<MioDb>, work: impl FnOnce(&MioDb) + Send + 'static) {
        let worker = {
            let d = d.clone();
            std::thread::spawn(move || work(&d))
        };
        while !worker.is_finished() {
            d.assert_version_current();
        }
        worker.join().unwrap();
        d.assert_version_current();
    }

    /// Waits until `started` holds for the published levels. The caller
    /// may hold a gate or the repository writer: the start it waits for is
    /// published before the worker takes either.
    fn wait_for(d: &MioDb, what: &str, started: impl Fn(&[Level]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let began = d.inner.wait_until(Some(deadline), |v| started(&v.levels));
        assert!(began.unwrap(), "no {what} started");
    }

    /// Every kind of structural transition republishes the `Version`:
    /// rotation, flush (the level-0 push and `imm` cleared), merge start
    /// and end, lazy-copy start and end. The published `Version` is checked
    /// against the locked state throughout each phase and after it
    /// settles; a merge and a lazy copy are each held just after their
    /// start, by the level gate and the repository writer lock, so their
    /// start is checked whatever the schedule.
    #[test]
    fn version_is_current_after_every_transition() {
        let d = Arc::new(db());
        d.assert_version_current();
        let per_memtable = MioOptions::small_for_tests().memtable_bytes as u32 / 300;
        let mut next = 0u32;
        let mut fill = |memtables: u32| {
            let keys = next..next + memtables * per_memtable;
            next = keys.end;
            checked(&d, move |d| {
                for i in keys {
                    d.put(format!("key{i:06}").as_bytes(), &[7u8; 256]).unwrap();
                }
            });
        };
        let settle = || checked(&d, |d| d.wait_idle().unwrap());

        // Rotation and flush: one table in level 0.
        fill(1);
        settle();
        let r = d.report();
        assert_eq!((r.stats.flush_count, r.tables_per_level[0]), (1, 1));

        // Merge start, held at its first step; then its end.
        {
            let v = d.inner.version();
            let _gate = v.levels[0].gate.lock();
            fill(1);
            wait_for(&d, "merge", |l| l[0].merging.is_some());
            d.assert_version_current();
        }
        settle();
        let r = d.report();
        assert_eq!(
            (r.stats.zero_copy_compactions, r.tables_per_level[1]),
            (1, 1)
        );

        // Lazy-copy start, held before its drain; then its end.
        {
            let _repo = d.inner.repo_writer.lock();
            fill(24);
            wait_for(&d, "lazy copy", |l| {
                l.iter().any(|l| l.lazy_draining.is_some())
            });
            d.assert_version_current();
        }
        settle();
        assert!(d.report().stats.copy_compactions > 0);
    }

    /// Records of keys `k00000, k00002, …` (odd keys stay absent), each
    /// with 1–3 versions and some tombstones, sequence numbers from
    /// `seq0`, every tower `height` high.
    fn versioned(rng: &mut StdRng, keys: usize, seq0: u64, height: Option<usize>) -> Vec<Rec> {
        let mut recs = Vec::new();
        let mut seq = seq0;
        for i in 0..keys {
            for _ in 0..rng.gen_range(1..4u32) {
                seq += 1;
                let kind = if rng.gen_range(0..4u32) == 0 {
                    OpKind::Delete
                } else {
                    OpKind::Put
                };
                let key = format!("k{:05}", 2 * i).into_bytes();
                recs.push((key, seq.to_le_bytes().to_vec(), seq, kind, height));
            }
        }
        recs
    }

    /// Every key of `list`, a key before each, one after the last, and a
    /// few beyond both ends: every position a lookup can land on.
    fn probe_keys(list: &SkipList) -> Vec<Vec<u8>> {
        let mut probes = vec![b"".to_vec(), b"a".to_vec(), b"k".to_vec(), b"z".to_vec()];
        for e in list.iter() {
            let mut after = e.key.clone();
            after.push(0);
            probes.push(after);
            let mut before = e.key.clone();
            before.pop();
            probes.push(before);
            probes.push(e.key);
        }
        probes.sort_unstable();
        probes.dedup();
        probes
    }

    /// The newest version of every key of `list`, by a level-0 walk: what
    /// a PMTable's index must answer, its towers being dead once merged.
    fn walked(list: &SkipList) -> std::collections::BTreeMap<Vec<u8>, IndexHit> {
        let mut out = std::collections::BTreeMap::new();
        for e in list.iter() {
            out.entry(e.key).or_insert(IndexHit {
                kind: e.kind,
                value: e.value,
            });
        }
        out
    }

    /// `PmTable::get` answers as a level-0 walk of `t`'s list does — value
    /// and kind — at every probe key of `t`, and its index is the walk's.
    fn assert_indexed_get_matches(t: &PmTable) -> TestCaseResult {
        let walk = walked(&t.list);
        prop_assert_eq!(&t.index, &TableIndex::walk(&t.list));
        prop_assert_eq!(t.index.len(), walk.len());
        for key in &probe_keys(&t.list) {
            prop_assert_eq!(t.get(key), walk.get(key).cloned(), "key {:?}", key);
        }
        Ok(())
    }

    /// Indexed lookups on two flushed tables of multi-version records and
    /// tombstones; during and after their zero-copy merge, fed from their
    /// indexes and paused at every gate as the compactor runs it; on the
    /// merge crashed at a random store and resumed as recovery resumes it;
    /// and on the merged table rebuilt from a snapshot of the pool.
    fn check_indexed_get(seed: u64, keys: usize, towers: usize) -> TestCaseResult {
        let height = [None, Some(1), Some(miodb_skiplist::MAX_HEIGHT)][towers];
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = Arc::new(Stats::new());
        let dram = PmemPool::new(4 << 20, DeviceModel::dram(), stats.clone()).unwrap();
        let nvm = PmemPool::new(16 << 20, DeviceModel::nvm_unthrottled(), stats.clone()).unwrap();
        let elastic = Arc::new(AtomicU64::new(0));
        let snapshot = |pool: &PmemPool, what: &str| {
            let path = std::env::temp_dir().join(format!(
                "miodb-index-{what}-{}-{seed:x}-{keys}-{towers}.snap",
                std::process::id()
            ));
            pool.snapshot_to_file(&path).unwrap();
            let restored =
                PmemPool::restore_from_file(&path, DeviceModel::nvm_unthrottled(), stats.clone())
                    .unwrap();
            std::fs::remove_file(&path).unwrap();
            restored
        };

        let old_t = flushed_table(&dram, &nvm, &elastic, &versioned(&mut rng, keys, 0, height));
        assert_indexed_get_matches(&old_t)?;
        // Newer versions of a prefix of the keys, and keys past the end.
        let newer = versioned(&mut rng, keys / 2 + 1, 1 << 32, height);
        let new_t = flushed_table(&dram, &nvm, &elastic, &newer);
        assert_indexed_get_matches(&new_t)?;
        let mark = InsertionMark::alloc(&nvm).unwrap();
        let before_merge = snapshot(&nvm, "inputs");

        // The merge, 128 runs a window. At every gate the union index
        // answers as a level-0 walk of the newtable, then of the oldtable,
        // does, and each input's own index still answers for its input as
        // it did.
        let union = TableIndex::merged(&new_t.index, &old_t.index);
        let probes = probe_keys(&old_t.list)
            .into_iter()
            .chain(probe_keys(&new_t.list))
            .collect::<Vec<_>>();
        let inputs: Vec<_> = probes
            .iter()
            .map(|k| (new_t.get(k), old_t.get(k)))
            .collect();
        let union_list = SkipList::from_raw(nvm.clone(), old_t.list.head());
        let mut seen = Ok(());
        let total = merge_indexed(&nvm, &new_t, &old_t, &mark, |_| {
            let (new_walk, old_walk) = (walked(&new_t.list), walked(&old_t.list));
            for (key, input) in probes.iter().zip(&inputs) {
                let visible = new_walk.get(key).or_else(|| old_walk.get(key)).cloned();
                if union.get(&union_list, key) != visible
                    || (new_t.get(key), old_t.get(key)) != *input
                {
                    seen = Err(TestCaseError::fail(format!("key {key:?}")));
                }
            }
        });
        seen?;
        let merged = merged(&nvm, &new_t, &old_t);
        assert_indexed_get_matches(&merged)?;
        prop_assert_eq!(merged.len, merged.index.len());

        // The same merge, crashed after a random store: recovery walks
        // both inputs afresh, then resumes.
        if total.stores > 1 {
            let crashed = before_merge;
            let rebuild = |t: &PmTable| rebuild_table(&crashed, &table_state(t), &elastic, 16, 256);
            let crash_mark = InsertionMark::from_raw(crashed.clone(), mark.region());
            let mut runs = RunMerge::new(
                &crashed,
                new_t.list.head(),
                old_t.list.head(),
                &crash_mark,
                new_t.index.nodes(),
                old_t.index.nodes(),
            );
            let out = runs.run(MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(rng.gen_range(0..total.stores)),
            });
            prop_assert!(!out.is_complete());
            let resumed = resume_merge(
                &crashed,
                &stats,
                &rebuild(&new_t),
                &rebuild(&old_t),
                &crash_mark,
                (16, 256),
            );
            assert_indexed_get_matches(&resumed)?;
            prop_assert_eq!(&resumed.index, &merged.index);
        }

        let restored = snapshot(&nvm, "merged");
        let rebuilt = rebuild_table(&restored, &table_state(&merged), &elastic, 16, 256);
        assert_indexed_get_matches(&rebuilt)
    }

    #[test]
    fn indexed_get_on_empty_and_single_node_tables() {
        for keys in [0, 1] {
            for towers in 0..3 {
                check_indexed_get(keys as u64, keys, towers).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn indexed_get_matches_the_head_descent(
            seed in any::<u64>(),
            keys in 2usize..160,
            towers in 0usize..3,
        ) {
            check_indexed_get(seed, keys, towers)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Tables large enough that the merge pauses at one gate or more
        /// (the newer table moves over 128 keys). Drawn towers only: a flat
        /// or all-tall list makes every head descent linear.
        #[test]
        fn indexed_get_matches_the_head_descent_across_merge_gates(
            seed in any::<u64>(),
            keys in 260usize..700,
        ) {
            check_indexed_get(seed, keys, 0)?;
        }
    }

    /// Applies `entries` to the repository as one lazy-copy run, as the
    /// lazy worker does.
    fn repo_run_of(inner: &Inner, entries: impl IntoIterator<Item = OwnedEntry>) {
        let Repository::Pm(repo) = &inner.repo else {
            unreachable!("a huge-PMTable repository")
        };
        let mut writer = inner.repo_writer.lock();
        repo_run(inner, &mut writer, |edits| {
            for e in entries {
                edits.record(&e.key, repo.apply(&e.key, &e.value, e.seq, e.kind).unwrap());
            }
        });
    }

    fn put_entry(key: &[u8], value: &[u8], seq: u64) -> OwnedEntry {
        OwnedEntry {
            key: key.to_vec(),
            value: value.to_vec(),
            seq,
            kind: OpKind::Put,
        }
    }

    /// A GET parked between its bottom-level probe and its repository
    /// probe, while a whole lazy-copy run of the table it found
    /// `lazy_draining` replaces, inserts and deletes keys of the repository
    /// and publishes the repository's next index. Every key is probed so,
    /// one run each: the resumed GET answers as the model does, through
    /// the older index its `Version` carries; a key the run touched is
    /// answered by the table before the park point. Half the time the hook
    /// leaves the table `lazy_draining`, as the lazy worker does until
    /// after the publish; half the time it also clears it.
    #[test]
    fn a_get_parked_under_a_lazy_copy_run_answers_every_key() {
        const SPACE: u32 = 160;
        // Room for every run's flushed table's DRAM arena, never reused.
        let d = MioDb::open(MioOptions {
            dram_pool_bytes: 16 << 20,
            ..MioOptions::small_for_tests()
        })
        .unwrap();
        let inner = d.inner.clone();
        let b = inner.opts.elastic_levels - 1;
        let key = |k: u32| format!("key{k:05}").into_bytes();
        let mut model = std::collections::BTreeMap::new();
        repo_run_of(
            &inner,
            (0..SPACE).step_by(2).map(|k| put_entry(&key(k), b"old", 1)),
        );
        for k in (0..SPACE).step_by(2) {
            model.insert(key(k), b"old".to_vec());
        }
        let set_draining = |t: Option<Arc<PmTable>>| {
            let mut levels = inner.levels.lock();
            levels[b].lazy_draining = t;
            publish(&inner, |v| v.relinked(&levels));
        };
        let mut rng = StdRng::seed_from_u64(11);
        for (run, probe) in (0..SPACE).enumerate() {
            // Half the key space, a third of it tombstones: the run
            // replaces, deletes and inserts around every probed key.
            let seq = 2 + run as u64;
            let recs: Vec<Rec> = (0..SPACE)
                .filter_map(|k| match rng.gen_range(0..6u32) {
                    0..=2 => None,
                    3 => Some((key(k), Vec::new(), seq, OpKind::Delete, None)),
                    _ => Some((
                        key(k),
                        format!("v{seq}").into_bytes(),
                        seq,
                        OpKind::Put,
                        None,
                    )),
                })
                .collect();
            for (k, value, _, kind, _) in &recs {
                match kind {
                    OpKind::Put => model.insert(k.clone(), value.clone()),
                    OpKind::Delete => model.remove(k),
                };
            }
            let t = flushed_table(&inner.dram, &inner.nvm, &inner.elastic_bytes, &recs);
            set_draining(Some(t.clone()));
            let older = inner.version().repo_index.clone().unwrap();

            let finish = run % 2 == 1;
            let (runner, drained) = (inner.clone(), t.clone());
            BEFORE_REPO_PROBE.with(|h| {
                h.set(Some(Box::new(move || {
                    repo_run_of(&runner, dedup_newest(drained.list.iter(), false));
                    if finish {
                        let mut levels = runner.levels.lock();
                        levels[b].lazy_draining = None;
                        publish(&runner, |v| v.relinked(&levels));
                    }
                })))
            });
            let got = d.get(&key(probe)).unwrap();
            let in_table = recs.iter().any(|r| r.0 == key(probe));
            assert_eq!(
                BEFORE_REPO_PROBE.with(std::cell::Cell::take).is_none(),
                !in_table,
                "run {run}: the run ran under the GET unless the table answered it"
            );
            if in_table {
                repo_run_of(&inner, dedup_newest(t.list.iter(), false));
            }
            assert_eq!(
                got.as_ref(),
                model.get(&key(probe)),
                "run {run}, key {probe}"
            );
            let newer = inner.version().repo_index.clone().unwrap();
            assert!(!Arc::ptr_eq(&older, &newer), "run {run} published an index");

            set_draining(None);
            t.retire();
            for k in 0..SPACE {
                assert_eq!(d.get(&key(k)).unwrap().as_ref(), model.get(&key(k)));
            }
        }
    }

    /// A repository node a lazy-copy run bypasses is not reused while a
    /// `Version` whose index names it is held, and is reused once the last
    /// one is dropped.
    #[test]
    fn a_bypassed_repository_node_outlives_every_version_naming_it() {
        let d = db();
        let inner = &*d.inner;
        let Repository::Pm(repo) = &inner.repo else {
            unreachable!("a huge-PMTable repository")
        };
        let cursor = || repo.parts().2;
        repo_run_of(inner, [put_entry(b"a", b"old", 1)]);
        let held = inner.version();
        let read = |key: &[u8]| held.repo_index.as_ref().unwrap().get(key).map(|h| h.value);
        repo_run_of(inner, [put_entry(b"a", b"new", 2)]);
        // Same key and value length as the bypassed node: not in its place.
        let before = cursor();
        repo_run_of(inner, [put_entry(b"b", b"bbb", 3)]);
        assert!(cursor() > before, "a node was reused under a held Version");
        assert_eq!(read(b"a").as_deref(), Some(&b"old"[..]));
        drop(held);
        // The next run recycles the node; the one after reuses it.
        repo_run_of(inner, [put_entry(b"c", b"ccc", 4)]);
        let before = cursor();
        repo_run_of(inner, [put_entry(b"d", b"ddd", 5)]);
        assert_eq!(cursor(), before, "the bypassed node was not reused");
        for (key, value) in [
            (b"a", b"new"),
            (b"b", b"bbb"),
            (b"c", b"ccc"),
            (b"d", b"ddd"),
        ] {
            assert_eq!(d.get(key).unwrap().as_deref(), Some(&value[..]));
        }
    }

    /// A run that unlinks nothing still queues its entry, so a node named
    /// by a held index older than the one the bypassing run started from
    /// is not reused either: the value read through the held index stays
    /// what it was.
    #[test]
    fn an_insert_only_run_keeps_recycling_behind_older_versions() {
        let d = db();
        let inner = &*d.inner;
        repo_run_of(inner, [put_entry(b"a", b"old", 1)]);
        let held = inner.version();
        let read = |key: &[u8]| held.repo_index.as_ref().unwrap().get(key).map(|h| h.value);
        repo_run_of(inner, [put_entry(b"b", b"bbb", 2)]);
        repo_run_of(inner, [put_entry(b"a", b"new", 3)]);
        // Same key and value length as the node of `a` the held index names.
        repo_run_of(inner, [put_entry(b"c", b"ccc", 4)]);
        assert_eq!(read(b"a").as_deref(), Some(&b"old"[..]));
        drop(held);
        for (key, value) in [(b"a", b"new"), (b"b", b"bbb"), (b"c", b"ccc")] {
            assert_eq!(d.get(key).unwrap().as_deref(), Some(&value[..]));
        }
    }

    /// Lazy copies recycle the repository nodes they bypass once no
    /// `Version` names them: rewriting the same keys through many drains
    /// leaves the repository's chunk count flat, where keeping every
    /// bypassed node added a repository's worth of chunks per drain.
    #[test]
    fn lazy_copies_reuse_the_repository_nodes_they_bypass() {
        let d = db();
        let Repository::Pm(repo) = &d.inner.repo else {
            unreachable!("a huge-PMTable repository")
        };
        let chunks = || repo.parts().1.len();
        let drains = || d.stats().copy_compactions.load(Ordering::Relaxed);
        let value = vec![9u8; 256];
        let rewrite = |rounds: u32| {
            for _ in 0..rounds {
                for k in 0..1000u32 {
                    d.put(format!("key{k:05}").as_bytes(), &value).unwrap();
                }
            }
            d.wait_idle().unwrap();
        };
        rewrite(8);
        let (chunks0, drains0) = (chunks(), drains());
        rewrite(24);
        let drained = drains() - drains0;
        assert!(drained >= 4, "{drained} lazy copies");
        assert!(
            chunks() <= chunks0 + 1,
            "{chunks0} -> {} repository chunks over {drained} lazy copies",
            chunks()
        );
        for k in 0..1000u32 {
            assert_eq!(
                d.get(format!("key{k:05}").as_bytes()).unwrap(),
                Some(value.clone())
            );
        }
    }

    /// The repository index the lazy-copy runs built in DRAM equals the
    /// index walked from the repository in NVM, and answers as the head
    /// descent does at every probe key of the key space.
    fn assert_repo_index_is_the_walk(d: &MioDb, probes: &[Vec<u8>]) -> TestCaseResult {
        let inner = &*d.inner;
        let v = inner.version();
        let r = v.repo_index.as_deref().expect("a huge-PMTable repository");
        let walked = TableIndex::walk(&r.list);
        prop_assert_eq!(&r.index, &walked);
        prop_assert_eq!(r.index.len(), inner.repo.len_estimate());
        for key in probes.iter().chain(&probe_keys(&r.list)) {
            let descent = inner.repo.get(key).unwrap().map(IndexHit::from);
            prop_assert_eq!(r.get(key), descent, "key {:?}", key);
        }
        Ok(())
    }

    /// Lazy-copy runs of random tables — 1–3 versions a key, tombstones —
    /// into the repository, so runs insert, update (bypass) and delete
    /// (unlink); then a snapshot with one more drain in flight, recovered,
    /// which resumes the drain before the index is walked.
    fn check_repo_index(seed: u64, runs: usize, keys: usize) -> TestCaseResult {
        let opts = MioOptions {
            nvm_pool_bytes: 8 << 20,
            ..MioOptions::small_for_tests()
        };
        let d = MioDb::open(opts.clone()).unwrap();
        let inner = &*d.inner;
        let mut rng = StdRng::seed_from_u64(seed);
        let probes: Vec<Vec<u8>> = (0..2 * keys + 2)
            .map(|i| format!("k{i:05}").into_bytes())
            .collect();
        let mut table = |run: u64| {
            let recs = versioned(&mut rng, keys, run << 32, None);
            let recs: Vec<Rec> = recs.into_iter().filter(|_| rng.gen_bool(0.6)).collect();
            flushed_table(&inner.dram, &inner.nvm, &inner.elastic_bytes, &recs)
        };
        for run in 1..=runs as u64 {
            let t = table(run);
            repo_run_of(inner, dedup_newest(t.list.iter(), false));
            assert_repo_index_is_the_walk(&d, &probes)?;
        }

        let draining = table(runs as u64 + 1);
        let b = opts.elastic_levels - 1;
        let set_draining = |t: Option<Arc<PmTable>>| {
            let mut levels = inner.levels.lock();
            levels[b].lazy_draining = t;
            store_manifest_locked(inner, &levels).unwrap();
            publish(inner, |v| v.relinked(&levels));
        };
        set_draining(Some(draining.clone()));
        let path = std::env::temp_dir().join(format!(
            "miodb-repo-index-{}-{seed:x}-{runs}-{keys}.snap",
            std::process::id()
        ));
        d.snapshot(&path).unwrap();
        set_draining(None);
        repo_run_of(inner, dedup_newest(draining.list.iter(), false));
        assert_repo_index_is_the_walk(&d, &probes)?;
        let restored = PmemPool::restore_from_file(
            &path,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        std::fs::remove_file(&path).unwrap();
        let r = MioDb::recover(restored, opts).unwrap();
        assert_repo_index_is_the_walk(&r, &probes)?;
        for key in &probes {
            prop_assert_eq!(r.inner.repo.get(key).unwrap(), inner.repo.get(key).unwrap());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn repo_index_built_in_dram_is_the_walk_after_every_run(
            seed in any::<u64>(),
            runs in 1usize..5,
            keys in 1usize..300,
        ) {
            check_repo_index(seed, runs, keys)?;
        }
    }

    /// Snapshots taken with a zero-copy merge abandoned mid-run — at each
    /// of the first runs' stores, mark and links, and at some later ones:
    /// the recovered engine finishes the run from its mark, then the
    /// merge, answers every acknowledged key, and every table's index, the
    /// merged one's included, is a level-0 walk's.
    #[test]
    fn a_merge_abandoned_mid_run_recovers_every_key() {
        let opts = MioOptions {
            nvm_pool_bytes: 8 << 20,
            ..MioOptions::small_for_tests()
        };
        let mut rng = StdRng::seed_from_u64(41);
        let old_recs = versioned(&mut rng, 120, 0, None);
        let new_recs: Vec<Rec> = versioned(&mut rng, 160, 1 << 32, None)
            .into_iter()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        // Versions of a key are listed oldest first, the newtable's last.
        let mut model = std::collections::BTreeMap::new();
        for (key, value, _, kind, _) in old_recs.iter().chain(&new_recs) {
            model.insert(key.clone(), (*kind == OpKind::Put).then(|| value.clone()));
        }
        let puts: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
            .map(|i| (format!("w{i:03}").into_bytes(), vec![i as u8; 40]))
            .collect();
        for crash_at in (0..13).chain([50, 51, 53, 102]) {
            let d = MioDb::open(opts.clone()).unwrap();
            let inner = &*d.inner;
            for (k, v) in &puts {
                d.put(k, v).unwrap();
            }
            let (dram, nvm, elastic) = (&inner.dram, &inner.nvm, &inner.elastic_bytes);
            let old_t = flushed_table(dram, nvm, elastic, &old_recs);
            let new_t = flushed_table(dram, nvm, elastic, &new_recs);
            let mark = {
                let mut levels = inner.levels.lock();
                levels[0].merging = Some((new_t.clone(), old_t.clone()));
                store_manifest_locked(inner, &levels).unwrap();
                publish(inner, |v| v.relinked(&levels));
                levels[0].mark.clone()
            };
            let out = RunMerge::new(
                nvm,
                new_t.list.head(),
                old_t.list.head(),
                &mark,
                new_t.index.nodes(),
                old_t.index.nodes(),
            )
            .run(MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(crash_at),
            });
            assert!(!out.is_complete(), "crash_at={crash_at}");
            let path = std::env::temp_dir().join(format!(
                "miodb-mid-run-{}-{crash_at}.snap",
                std::process::id()
            ));
            d.snapshot(&path).unwrap();
            drop(d);
            let restored = PmemPool::restore_from_file(
                &path,
                DeviceModel::nvm_unthrottled(),
                Arc::new(Stats::new()),
            )
            .unwrap();
            std::fs::remove_file(&path).unwrap();
            let r = MioDb::recover(restored, opts.clone()).unwrap();
            r.wait_idle().unwrap();
            for (key, value) in &model {
                assert_eq!(
                    &r.get(key).unwrap(),
                    value,
                    "crash_at={crash_at}, key {key:?}"
                );
            }
            for (key, value) in &puts {
                assert_eq!(
                    r.get(key).unwrap().as_ref(),
                    Some(value),
                    "crash_at={crash_at}"
                );
            }
            let v = r.inner.version();
            let mut merged = 0;
            for level in v.levels.iter() {
                assert!(level.mark.load().is_none(), "crash_at={crash_at}");
                for t in level.tables.iter() {
                    assert_eq!(t.index, TableIndex::walk(&t.list), "crash_at={crash_at}");
                    merged +=
                        usize::from(t.index == TableIndex::merged(&new_t.index, &old_t.index));
                }
            }
            assert_eq!(merged, 1, "crash_at={crash_at}: the merged table");
        }
    }

    #[test]
    fn report_shape() {
        let d = db();
        d.put(b"k", b"v").unwrap();
        let r = d.report();
        assert_eq!(r.name, "MioDB");
        assert_eq!(r.tables_per_level.len(), 4);
        assert!(r.nvm_used_bytes > 0);
    }
}
