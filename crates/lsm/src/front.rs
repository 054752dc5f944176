//! The DRAM MemTable front shared by the LevelDB-model engine and the
//! baselines built on it.
//!
//! [`LsmDb`](crate::LsmDb), NoveLSM and MatrixKV differ only *below* the
//! DRAM MemTable (paper §2.3): what a flushed MemTable becomes and how the
//! layer under it is paced. Everything above that line lives here, once:
//!
//! - [`MemFront`]: the active/immutable [`SkipListArena`] pair, the writer
//!   mutex (which guards the sequence counter), the flush signal, the
//!   shutdown flag and the background-error slot;
//! - [`FrontEngine`]: the write path (admission, user-byte count, the
//!   modeled WAL append, sequence numbers, insert with rotation and its
//!   interval stall), the flush thread, the MemTable half of `get` and
//!   `scan`, `wait_idle`, and shutdown;
//! - [`run_compactions`]: the background loop over an [`LsmCore`].
//!
//! An engine implements [`Lower`] for what the paper says differs: its
//! drain, its cumulative-stall pacing and its lower read path.
//!
//! Choices the three hand-copied fronts had drifted apart on:
//!
//! - **Wait timeouts.** Every wake-up is issued under the mutex its waiter
//!   checks its condition under — a writer waiting for the immutable
//!   MemTable holds the writer mutex, the flush thread checks its signal
//!   under the signal mutex, and shutdown raises the signal under it too —
//!   so none is lost, and one fallback, `FALLBACK_WAIT`, serves both
//!   condvars.
//! - **WAL charge.** One modeled sequential append of `17 + key + value`
//!   bytes to the engine's log device through
//!   [`DeviceModel::charge_write`].
//! - **Background errors.** The first failure wins; later ones are
//!   dropped so the root cause stays visible.
//!
//! And one defect all three shared: a writer took its sequence number
//! before a rotation wait, which releases the writer mutex, so a writer
//! that slipped in could be acknowledged first with a *higher* number in
//! the *older* MemTable. Reads then returned the later write until the two
//! MemTables met below, where the higher number won back. The number is
//! now taken at the insert attempt, with no wait in between.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use miodb_common::{
    EngineTelemetry, Error, OpKind, Result, ScanEntry, SequenceNumber, StallKind, Stats, Timed,
};
use miodb_pmem::{device, DeviceModel, PmemPool};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::SkipListArena;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::core::LsmCore;
use crate::merge_iter::{dedup_newest, KWayMerge};

/// How long a waiter sleeps before re-checking its condition on its own.
/// Only a bound on a wake-up that cannot be lost (see the module docs).
const FALLBACK_WAIT: Duration = Duration::from_millis(10);

/// Poll interval of `wait_idle` and of an idle compaction loop.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// One source of a k-way scan merge.
pub type Source = Box<dyn Iterator<Item = OwnedEntry> + Send>;

struct MemState {
    active: Arc<SkipListArena>,
    imm: Option<Arc<SkipListArena>>,
}

/// The DRAM MemTables and the state the write path and the flush thread
/// share.
pub struct MemFront {
    memtable_bytes: usize,
    wal_device: DeviceModel,
    dram: Arc<PmemPool>,
    stats: Arc<Stats>,
    telemetry: EngineTelemetry,
    mem: RwLock<MemState>,
    /// The writer mutex; it guards the last sequence number used.
    writers: Mutex<SequenceNumber>,
    imm_cv: Condvar,
    flush_signal: Mutex<bool>,
    flush_cv: Condvar,
    shutdown: AtomicBool,
    bg_error: Mutex<Option<String>>,
}

impl MemFront {
    /// Creates the front of an engine whose MemTables hold
    /// `memtable_bytes`, whose WAL is charged to `wal_device`, and whose
    /// telemetry tracks `levels` levels.
    ///
    /// # Errors
    ///
    /// Returns an error if the DRAM pool for MemTables cannot be allocated.
    pub fn new(
        memtable_bytes: usize,
        wal_device: DeviceModel,
        levels: usize,
        stats: Arc<Stats>,
    ) -> Result<MemFront> {
        let dram = PmemPool::new(
            (memtable_bytes * 6).max(8 << 20),
            DeviceModel::dram(),
            stats.clone(),
        )?;
        let active = Arc::new(SkipListArena::new(dram.clone(), memtable_bytes)?);
        Ok(MemFront {
            memtable_bytes,
            wal_device,
            dram,
            telemetry: EngineTelemetry::new(levels, stats.clone()),
            stats,
            mem: RwLock::new(MemState { active, imm: None }),
            writers: Mutex::new(0),
            imm_cv: Condvar::new(),
            flush_signal: Mutex::new(false),
            flush_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            bg_error: Mutex::new(None),
        })
    }

    /// The engine's statistics.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// The engine's telemetry.
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// Whether the engine is shutting down.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Records a background failure. Writes and `wait_idle` report it from
    /// now on; only the first one is kept.
    pub fn fail(&self, msg: String) {
        self.bg_error.lock().get_or_insert(msg);
    }

    fn check_error(&self) -> Result<()> {
        match self.bg_error.lock().as_ref() {
            Some(msg) => Err(Error::Background(msg.clone())),
            None => Ok(()),
        }
    }

    /// Raises the shutdown flag and wakes the flush thread and any writer
    /// waiting on a rotation.
    pub(crate) fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        *self.flush_signal.lock() = true;
        self.flush_cv.notify_all();
        let _writers = self.writers.lock();
        self.imm_cv.notify_all();
    }

    /// The active and immutable MemTables, newest first.
    fn memtables(&self) -> (Arc<SkipListArena>, Option<Arc<SkipListArena>>) {
        let mem = self.mem.read();
        (mem.active.clone(), mem.imm.clone())
    }

    /// Inserts into the active MemTable, rotating it when full. The
    /// sequence number is taken per attempt: a rotation wait releases the
    /// writer mutex, and a writer that slipped in meanwhile must not end up
    /// older-numbered yet newer-placed than this one.
    fn insert_with_rotation(
        &self,
        mut writers: MutexGuard<'_, SequenceNumber>,
        key: &[u8],
        value: &[u8],
        kind: OpKind,
    ) -> Result<()> {
        loop {
            let seq = *writers + 1;
            // Scope the Arc clone to the attempt so a MemTable that rotates
            // out is not pinned in DRAM by its own writer.
            let r = {
                let active = self.mem.read().active.clone();
                active.insert(key, value, seq, kind)
            };
            match r {
                Ok(()) => {
                    *writers = seq;
                    return Ok(());
                }
                Err(Error::ArenaFull) => {}
                Err(e) => return Err(e),
            }
            // Rotate. If the immutable MemTable is still being drained,
            // this is an interval stall.
            let mut stall = None;
            while self.mem.read().imm.is_some() {
                if stall.is_none() {
                    stall = Some(self.telemetry.begin(Timed::Stall(StallKind::Interval)));
                }
                self.imm_cv.wait_for(&mut writers, FALLBACK_WAIT);
                if self.is_shut_down() {
                    return Err(Error::Closed);
                }
            }
            drop(stall);
            let fresh = Arc::new(SkipListArena::new(
                self.dram.clone(),
                self.memtable_bytes
                    .max(SkipListArena::capacity_for_entry(key.len(), value.len())),
            )?);
            {
                let mut mem = self.mem.write();
                let old = std::mem::replace(&mut mem.active, fresh);
                mem.imm = Some(old);
            }
            *self.flush_signal.lock() = true;
            self.flush_cv.notify_all();
        }
    }
}

/// What an engine keeps below its DRAM MemTable.
pub trait Lower: Send + Sync + 'static {
    /// The engine's front.
    fn front(&self) -> &MemFront;

    /// Moves a flushed MemTable's entries into the layer below. Runs on
    /// the flush thread while the MemTable is still readable as the
    /// immutable one; its time is the engine's flush time.
    ///
    /// # Errors
    ///
    /// A failure is recorded as the engine's background error.
    fn drain(&self, imm: &SkipListArena) -> Result<()>;

    /// Flush-thread work after the drained MemTable has been released to
    /// writers. Reports its own failures through [`MemFront::fail`].
    fn after_drain(&self) {}

    /// Cumulative-stall pacing, run under the writer mutex before each
    /// write is logged.
    fn pace(&self);

    /// Whether background work below the MemTables is still due.
    fn busy(&self) -> bool;

    /// The newest version of `key` below the MemTables, as value and kind.
    ///
    /// # Errors
    ///
    /// Returns an error on persistent-layer corruption.
    fn get(&self, key: &[u8]) -> Result<Option<(Vec<u8>, OpKind)>>;

    /// Scan sources below the MemTables, newest first. Each source keeps
    /// what it reads alive until it is dropped.
    fn scan_sources(&self, start: &[u8]) -> Vec<Source>;
}

/// A running engine: its state, its flush thread and its background
/// workers. Dropping it shuts the engine down and joins every thread.
pub struct FrontEngine<L: Lower> {
    inner: Arc<L>,
    threads: Vec<JoinHandle<()>>,
}

impl<L: Lower> std::ops::Deref for FrontEngine<L> {
    type Target = L;

    fn deref(&self) -> &L {
        &self.inner
    }
}

impl<L: Lower> FrontEngine<L> {
    /// Starts the flush thread and one thread per entry of `workers`, each
    /// marked as a background thread: the device time it charges is slept
    /// off at its settle points, not spun (see [`miodb_pmem::device`]).
    pub fn start(inner: L, workers: &[fn(&L)]) -> FrontEngine<L> {
        let inner = Arc::new(inner);
        let flush: fn(&L) = flush_loop;
        let threads = std::iter::once(flush)
            .chain(workers.iter().copied())
            .map(|work| {
                let inner = inner.clone();
                std::thread::spawn(move || {
                    device::mark_background();
                    work(&inner)
                })
            })
            .collect();
        FrontEngine { inner, threads }
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] after shutdown, the first background error once
    /// one occurred, or an allocation error from rotation.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, OpKind::Put)
    }

    /// Writes a tombstone for `key`.
    ///
    /// # Errors
    ///
    /// Same as [`FrontEngine::put`].
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", OpKind::Delete)
    }

    fn write(&self, key: &[u8], value: &[u8], kind: OpKind) -> Result<()> {
        let f = self.inner.front();
        if f.is_shut_down() {
            return Err(Error::Closed);
        }
        f.check_error()?;
        let op_start = Instant::now();
        let writers = f.writers.lock();
        f.stats
            .user_bytes_written
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        self.inner.pace();
        // WAL append (modeled): one sequential write of the record.
        f.wal_device
            .charge_write(&f.stats, 17 + key.len() + value.len());
        f.insert_with_rotation(writers, key, value, kind)?;
        let latency = match kind {
            OpKind::Put => &f.telemetry.put_latency,
            OpKind::Delete => &f.telemetry.delete_latency,
        };
        latency.record_elapsed(op_start);
        Ok(())
    }

    /// The current value of `key`: the MemTables first, then
    /// [`Lower::get`].
    ///
    /// # Errors
    ///
    /// Returns the lower layer's read errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let f = self.inner.front();
        let op_start = Instant::now();
        f.stats.gets.fetch_add(1, Ordering::Relaxed);
        let (active, imm) = f.memtables();
        let found = active
            .list()
            .get(key)
            .or_else(|| imm.and_then(|m| m.list().get(key)))
            .map(|r| (r.value, r.kind));
        let found = match found {
            Some(v) => Some(v),
            None => self.inner.get(key)?,
        };
        f.telemetry.get_latency.record_elapsed(op_start);
        match found {
            Some((v, OpKind::Put)) => {
                f.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(v))
            }
            Some((_, OpKind::Delete)) | None => Ok(None),
        }
    }

    /// Up to `limit` live entries from `start` on, merged over the
    /// MemTables and [`Lower::scan_sources`].
    pub fn scan(&self, start: &[u8], limit: usize) -> Vec<ScanEntry> {
        let f = self.inner.front();
        let op_start = Instant::now();
        // The MemTable iterators own nothing: the handles taken here keep
        // their memory alive until the merge has been consumed.
        let (active, imm) = f.memtables();
        let mut sources: Vec<Source> = vec![Box::new(active.list().iter_from(start))];
        if let Some(imm) = &imm {
            sources.push(Box::new(imm.list().iter_from(start)));
        }
        sources.extend(self.inner.scan_sources(start));
        let out = dedup_newest(KWayMerge::new(sources), true)
            .take(limit)
            .map(|e| ScanEntry {
                key: e.key,
                value: e.value,
            })
            .collect();
        f.telemetry.scan_latency.record_elapsed(op_start);
        out
    }

    /// Blocks until no MemTable is waiting to drain and
    /// [`Lower::busy`] is false.
    ///
    /// # Errors
    ///
    /// Returns the first background error.
    pub fn wait_idle(&self) -> Result<()> {
        let f = self.inner.front();
        loop {
            f.check_error()?;
            if f.mem.read().imm.is_none() && !self.inner.busy() {
                return Ok(());
            }
            std::thread::sleep(IDLE_POLL);
        }
    }
}

impl<L: Lower> Drop for FrontEngine<L> {
    fn drop(&mut self) {
        self.inner.front().shut_down();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The flush thread: waits for a rotation, drains the immutable MemTable,
/// releases it to writers, retires it; exits on shutdown once nothing is
/// left to drain.
fn flush_loop<L: Lower>(lower: &L) {
    let f = lower.front();
    loop {
        // Settle: precedes waiting for the next rotation.
        device::settle_idle();
        {
            let mut signal = f.flush_signal.lock();
            while !*signal && !f.is_shut_down() {
                f.flush_cv.wait_for(&mut signal, FALLBACK_WAIT);
            }
            *signal = false;
        }
        let imm = f.mem.read().imm.clone();
        if let Some(imm) = imm {
            let bytes = imm.used_bytes();
            let flush = f.telemetry.begin(Timed::Flush { bytes });
            let drained = lower.drain(&imm);
            // Settle: precedes the end of the flush interval and releasing
            // the immutable MemTable to writers.
            device::settle();
            match drained {
                Ok(()) => flush.finish(bytes),
                Err(e) => {
                    drop(flush);
                    f.fail(format!("flush failed: {e}"));
                }
            }
            f.mem.write().imm = None;
            {
                // Notify under the writer mutex so a writer between its
                // `imm` check and its wait cannot miss the wake-up.
                let _writers = f.writers.lock();
                f.imm_cv.notify_all();
            }
            // Garbage from here on; the last reader to let go frees it.
            imm.retire();
            lower.after_drain();
        }
        if f.is_shut_down() && f.mem.read().imm.is_none() {
            return;
        }
    }
}

/// Runs `core`'s compactions until shutdown, idling while none is due; a
/// failure is recorded on `front` and ends the loop.
pub fn run_compactions(front: &MemFront, core: &LsmCore) {
    while !front.is_shut_down() {
        match core.run_one_compaction() {
            Ok(true) => {}
            Ok(false) => {
                // Settle: precedes the idle poll (a compaction's install
                // settles first; see `LsmCore::build_tables`).
                device::settle_idle();
                std::thread::sleep(IDLE_POLL);
            }
            Err(e) => {
                front.fail(format!("compaction failed: {e}"));
                return;
            }
        }
    }
}
