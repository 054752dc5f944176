//! The read path: the published [`Version`] readers load, the one
//! [`publish`] that replaces it and wakes every engine wait, and `get` and
//! `scan` over it. The write and background paths in [`db`](crate::db)
//! change `mem` and `levels` under their locks and publish here, write the
//! repository in runs through [`repo_run`], and wait through
//! [`Inner::wait_until`]; readers never take those locks.

use std::sync::atomic::{self, Ordering};
use std::sync::Arc;
use std::time::Instant;

use miodb_common::trace::{self, SpanKind};
use miodb_common::{Error, OpKind, Result, ScanEntry};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{InsertionMark, LookupResult};

use crate::db::{Inner, Level, MemState, MioDb};
use crate::repository::RepoFences;
use crate::table::MemTable;

/// Everything a GET or a scan reads, published as one immutable value:
/// the MemTables and every level's tables (the Version/SuperVersion of
/// LevelDB and RocksDB). A reader loads it once — one read-lock, one `Arc`
/// clone — and takes neither the levels lock nor the MemTable lock.
///
/// It is republished through [`publish`], under the lock that guards the
/// mutation, at every structural transition: `mem` changes with
/// [`Version::with_mem`], `levels` changes with [`Version::relinked`], and
/// the repository's fences through [`repo_run`]. So the published
/// `Version` never lags the locked state a reader could otherwise have
/// seen, and every engine wait, a predicate over it, is woken by the
/// publish that can make it true. Lock order: `levels` before `mem` before
/// the `Version`, the repository writer before the `Version`, and
/// `changed`, the engine's wait lock, before the `Version`; nothing takes
/// `levels`, `mem`, the repository writer or `changed` while holding the
/// `Version`, and no waiter holds `levels`, `mem`, the repository writer
/// or a gate while it holds `changed`.
///
/// The `Version` holds each table it names, so a retired table's arenas
/// return to the pool only once it is republished without them and every
/// reader that loaded an older one has let go.
#[derive(Clone)]
pub(crate) struct Version {
    pub(crate) active: Arc<MemTable>,
    pub(crate) imm: Option<Arc<MemTable>>,
    pub(crate) levels: Arc<[LevelView]>,
    /// The huge-PMTable repository's fences as the last lazy-copy run left
    /// them (`None` for the LSM repository); see `Inner::repo_get`.
    pub(crate) repo_fences: Option<Arc<RepoFences>>,
}

/// One level of a [`Version`]: its state and the structural version
/// (`seen`) that state had when it was published.
pub(crate) struct LevelView {
    pub(crate) level: Level,
    pub(crate) seen: u64,
}

/// Publishes the [`Version`] that `next` builds from the current one, then
/// wakes every engine wait ([`Inner::wait_until`]): the one way a
/// structural transition becomes visible, to readers and waiters alike.
/// `next` runs under the `Version` write lock, so a level version it bumps
/// ([`Version::relinked`]) is in place by the time a reader that saw the
/// bump reloads. The replaced `Version` drops under that lock too, so a
/// table it held last is freed before any reader or waiter can load the
/// new one. The wake follows the release: a publisher never holds the
/// `Version` while it takes `changed`.
pub(crate) fn publish(inner: &Inner, next: impl FnOnce(&Version) -> Version) {
    {
        let mut current = inner.current.write();
        *current = Arc::new(next(&current));
    }
    inner.wake();
}

impl Version {
    /// This `Version` with every level's current state, after a `levels`
    /// mutation: bumps the version of every level in `moved` first.
    /// Callers hold the levels lock and publish last in the mutating
    /// scope, so a reader that sees the new `Version` — `wait_idle` among
    /// them — sees everything the scope did.
    pub(crate) fn relinked(&self, levels: &[Level], moved: &[usize]) -> Version {
        for &i in moved {
            levels[i].version.fetch_add(1, Ordering::Release);
        }
        Version {
            levels: levels.iter().map(Level::view).collect(),
            ..self.clone()
        }
    }

    /// This `Version` with the MemTables of `mem`, after a `mem` mutation.
    /// Callers hold the `mem` write lock.
    pub(crate) fn with_mem(&self, mem: &MemState) -> Version {
        Version {
            active: mem.active.clone(),
            imm: mem.imm.clone(),
            ..self.clone()
        }
    }
}

/// Runs `apply`, which writes the repository, as one lazy-copy run: a
/// seqlock with the lazy worker as its one writer. The run epoch is odd
/// while `apply` links and unlinks nodes; then the fences are rebuilt —
/// one walk of level [`FENCE_LEVEL`](crate::table::FENCE_LEVEL), charged
/// to the caller — the epoch turns even, and the fences, tagged with it,
/// are published. Callers hold the repository writer.
pub(crate) fn repo_run<T>(inner: &Inner, apply: impl FnOnce() -> T) -> T {
    let epoch = inner.repo_epoch.load(Ordering::Relaxed);
    inner.repo_epoch.store(epoch + 1, Ordering::Relaxed);
    // Orders the odd epoch before every link store of the run: a probe
    // that loads one of those stores sees the odd epoch at its re-check.
    atomic::fence(Ordering::Release);
    let out = apply();
    let fences = inner.repo.build_fences(epoch + 2);
    inner.repo_epoch.store(epoch + 2, Ordering::Release);
    if let Some(fences) = fences {
        let fences = Arc::new(fences);
        publish(inner, |v| Version {
            repo_fences: Some(fences),
            ..v.clone()
        });
    }
    out
}

impl AsRef<Level> for LevelView {
    fn as_ref(&self) -> &Level {
        &self.level
    }
}

impl Level {
    /// This level as a reader sees it. Callers hold the levels lock, so
    /// `seen` is the version of exactly this state.
    pub(crate) fn view(&self) -> LevelView {
        LevelView {
            level: self.clone(),
            seen: self.version.load(Ordering::Acquire),
        }
    }
}

impl Inner {
    /// The published [`Version`]: one read-lock, one `Arc` clone.
    pub(crate) fn version(&self) -> Arc<Version> {
        self.current.read().clone()
    }

    /// Wakes every engine wait to re-check its predicate. [`publish`]
    /// calls it; so does every change a wait checks outside the
    /// `Version`: the background error, shutdown, flush pressure and the
    /// LSM repository's quiescence.
    pub(crate) fn wake(&self) {
        let _changed = self.changed.lock();
        self.wakeup.notify_all();
    }

    /// The background error, if a worker set one.
    pub(crate) fn background(&self) -> Result<()> {
        match self.bg_error.get() {
            Some(msg) => Err(Error::Background(msg.clone())),
            None => Ok(()),
        }
    }

    /// The one engine wait: blocks until `done` holds for the published
    /// [`Version`] (`Ok(true)`) or `deadline` passes (`Ok(false)`), and
    /// returns [`Error::Closed`] at shutdown and [`Error::Background`]
    /// once a worker failed, whether or not `done` holds. The predicate is
    /// checked under `changed`, which every wake takes, so a publish that
    /// lands between the check and the wait still wakes it. A wait whose
    /// condition changes only at a publish or a wake passes no deadline.
    pub(crate) fn wait_until(
        &self,
        deadline: Option<Instant>,
        done: impl Fn(&Version) -> bool,
    ) -> Result<bool> {
        let mut changed = self.changed.lock();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(Error::Closed);
            }
            self.background()?;
            if done(&self.version()) {
                return Ok(true);
            }
            match deadline {
                None => self.wakeup.wait(&mut changed),
                Some(d) if Instant::now() >= d => return Ok(false),
                Some(d) => {
                    self.wakeup.wait_until(&mut changed, d);
                }
            }
        }
    }

    /// The repository's version of `key`, through `fences` — the ones the
    /// loaded `Version` carries — when they are exact for the list.
    ///
    /// They are while the run epoch equals their tag: no run is in
    /// progress, and none ended since they were built. Repository nodes are
    /// never freed while the engine runs, and every link store is Release.
    /// So a probe that loaded none of a later run's link stores walked the
    /// list the fences were built over, and a probe that loaded one sees
    /// that run's odd epoch after the Acquire fence. A probe whose epoch
    /// moved, or that started during a run or before the fences of the
    /// last one were published, is answered by the head descent.
    pub(crate) fn repo_get(
        &self,
        fences: Option<&RepoFences>,
        key: &[u8],
    ) -> Result<Option<LookupResult>> {
        let Some(f) = fences else {
            return self.repo.get(key);
        };
        let epoch = self.repo_epoch.load(Ordering::Acquire);
        if epoch == f.epoch {
            let found = f.get(key);
            after_repo_probe();
            atomic::fence(Ordering::Acquire);
            if self.repo_epoch.load(Ordering::Relaxed) == epoch {
                return Ok(found);
            }
        }
        self.stats
            .repo_index_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        Ok(f.list.get(key))
    }
}

#[cfg(test)]
thread_local! {
    /// Runs once, in the next `get_impl` on this thread, after a level's
    /// settled and lazy-draining tables were probed and before the probe is
    /// checked against the level version.
    pub(crate) static AFTER_LEVEL_PROBE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

/// The point where a test re-links a level under a finished probe; nothing
/// outside the tests.
#[inline]
fn after_level_probe() {
    #[cfg(test)]
    if let Some(hook) = AFTER_LEVEL_PROBE.with(std::cell::Cell::take) {
        hook();
    }
}

#[cfg(test)]
thread_local! {
    /// Runs once, in the next fenced repository probe on this thread,
    /// after the probe and before its run-epoch re-check.
    pub(crate) static AFTER_REPO_PROBE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

/// The point where a test runs a lazy-copy run under a finished fenced
/// repository probe; nothing outside the tests.
#[inline]
fn after_repo_probe() {
    #[cfg(test)]
    if let Some(hook) = AFTER_REPO_PROBE.with(std::cell::Cell::take) {
        hook();
    }
}

impl MioDb {
    /// The `get` visibility walk;
    /// [`KvEngine::get`](miodb_common::KvEngine::get) wraps it with latency
    /// recording.
    pub(crate) fn get_impl(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = &*self.inner;
        inner.stats.gets.fetch_add(1, Ordering::Relaxed);
        let mut v = inner.version();

        // 1. DRAM MemTables.
        {
            let _probe_span = trace::span(SpanKind::MemtableProbe);
            if let Some(r) = v.active.list().get(key) {
                inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Self::resolve(r));
            }
            if let Some(imm) = &v.imm {
                if let Some(r) = imm.list().get(key) {
                    inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Self::resolve(r));
                }
            }
        }

        // 2. Elastic buffer, level by level, newest table first, following
        //    the paper's merge-visibility protocol. Each level is probed as
        //    the loaded `Version` published it; a settled or lazy-draining
        //    table, probed through its fences and the plain
        //    (non-mark-aware) descent, may be popped into `merging` and
        //    re-linked *while we search it*, silently bypassing the
        //    newtable→mark→oldtable protocol below: a miss can be false,
        //    and a hit can be the other input's older version, reached from
        //    a fence that moved there. Both therefore re-check the level's
        //    structural version and, on change, reload the `Version` and
        //    retry the level — a retry that races the pop sees
        //    `merging = Some` and takes the protected path. Bounded: a level
        //    can only transition a handful of times while one probe runs;
        //    the cap merely keeps a pathological schedule from livelocking,
        //    and on exhaustion we take the last probe's answer (no worse
        //    than the unversioned probe).
        const LEVEL_PROBE_RETRIES: u32 = 64;
        for i in 0..v.levels.len() {
            let mut level_span = trace::span(SpanKind::LevelProbe);
            level_span.annotate(i as u64);
            // A level that changed since `v` was loaded is probed in the
            // `Version` that changed it, not probed stale and retried.
            if v.levels[i].level.version.load(Ordering::Acquire) != v.levels[i].seen {
                v = inner.version();
            }
            for attempt in 1..=LEVEL_PROBE_RETRIES {
                // `seen` was read under the lock that guards every bump, so
                // it is the version of exactly this level state: read after
                // unlocking, it could already include the bump of a merge
                // that re-links these tables, and the check below would
                // accept a probe of a stale snapshot.
                let LevelView { level, seen } = &v.levels[i];
                let mut hit = None;
                for t in level.tables.iter().rev() {
                    if inner.opts.bloom_enabled && !t.bloom.may_contain(key) {
                        inner.stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                        trace::instant(SpanKind::BloomSkip, i as u64);
                        continue;
                    }
                    hit = t.get(key);
                    if hit.is_some() {
                        break;
                    }
                    inner
                        .stats
                        .bloom_false_positives
                        .fetch_add(1, Ordering::Relaxed);
                }
                if let (None, Some((new_t, old_t))) = (&hit, &level.merging) {
                    // newtable -> insertion mark -> oldtable (§4.3). The
                    // newtable search skips the in-flight node (Case 2): a
                    // traversal crossing it mid-splice would follow rewritten
                    // pointers into the oldtable and miss newtable entries.
                    let mark = &level.mark;
                    let hit = if !inner.opts.bloom_enabled
                        || new_t.bloom.may_contain(key)
                        || old_t.bloom.may_contain(key)
                    {
                        let optimistic = miodb_skiplist::get_skip_marked(&new_t.list, key, mark)
                            .or_else(|| mark.read(key))
                            .or_else(|| old_t.list.get(key));
                        match optimistic {
                            Some(r) => Some(r),
                            None => {
                                // Rare revalidation: a reader preempted while
                                // standing on a node that a whole merge step
                                // then moved can compute a false miss that no
                                // optimistic check can detect (ABA). Under the
                                // level gate the merge is at a step boundary
                                // (mark clear, lists well-formed), so plain
                                // searches are exact.
                                let _quiesce = level.gate.lock();
                                new_t
                                    .list
                                    .get(key)
                                    .or_else(|| mark.read(key))
                                    .or_else(|| old_t.list.get(key))
                            }
                        }
                    } else {
                        inner.stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                        trace::instant(SpanKind::BloomSkip, i as u64);
                        mark.read(key)
                    };
                    if let Some(r) = hit {
                        inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Self::resolve(r));
                    }
                }
                if hit.is_none() {
                    hit = level
                        .lazy_draining
                        .as_ref()
                        .filter(|t| !inner.opts.bloom_enabled || t.bloom.may_contain(key))
                        .and_then(|t| t.get(key));
                }
                after_level_probe();
                if level.version.load(Ordering::Acquire) != *seen {
                    inner
                        .stats
                        .level_probe_retries
                        .fetch_add(1, Ordering::Relaxed);
                    if attempt < LEVEL_PROBE_RETRIES {
                        v = inner.version();
                        continue;
                    }
                }
                if let Some(r) = hit {
                    inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Self::resolve(r));
                }
                break;
            }
        }

        // 3. Data repository, through its fences when they are current.
        let _repo_span = trace::span(SpanKind::RepoProbe);
        if let Some(r) = inner.repo_get(v.repo_fences.as_deref(), key)? {
            if r.kind == OpKind::Put {
                inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(r.value));
            }
        }
        Ok(None)
    }

    /// The `scan` source assembly and k-way merge;
    /// [`KvEngine::scan`](miodb_common::KvEngine::scan) wraps it with latency
    /// recording.
    pub(crate) fn scan_impl(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let inner = &*self.inner;
        // Pause zero-copy pointer motion on every level while iterators
        // run (gates are re-acquired by compactors every
        // MERGE_STEPS_PER_GATE steps, bounding our wait). The gates never
        // change, so any `Version` names them; the one the iterators walk
        // is loaded only once they are held, so no merge step runs between
        // the snapshot and the iterators.
        let gated = inner.version();
        let _guards: Vec<_> = gated.levels.iter().map(|l| l.level.gate.lock()).collect();
        // The iterators below walk pool memory through views that own
        // nothing: `v` holds every source's MemTable and tables, and so
        // their arenas, until the merge has been consumed, so a flush or
        // lazy-copy that retires them meanwhile cannot free memory under
        // this scan.
        let v = inner.version();
        let mut sources: Vec<Box<dyn Iterator<Item = OwnedEntry> + Send>> = Vec::new();
        sources.push(Box::new(v.active.list().iter_from(start)));
        if let Some(imm) = &v.imm {
            sources.push(Box::new(imm.list().iter_from(start)));
        }
        for LevelView { level: l, .. } in v.levels.iter() {
            for t in l.tables.iter().rev() {
                sources.push(Box::new(t.list.iter_from(start)));
            }
            if let Some((new_t, old_t)) = &l.merging {
                sources.push(Box::new(new_t.list.iter_from(start)));
                if let Some(e) = l.mark.load().map(|_| ()).and_then(|()| {
                    // Materialize the in-flight node as a one-entry source.
                    mark_entry(&l.mark)
                }) {
                    if e.key.as_slice() >= start {
                        sources.push(Box::new(std::iter::once(e)));
                    }
                }
                sources.push(Box::new(old_t.list.iter_from(start)));
            }
            if let Some(t) = &l.lazy_draining {
                sources.push(Box::new(t.list.iter_from(start)));
            }
        }
        sources.extend(inner.repo.scan_sources(start));

        let merged = dedup_newest(KWayMerge::new(sources), true);
        Ok(merged
            .take(limit)
            .map(|e| ScanEntry {
                key: e.key,
                value: e.value,
            })
            .collect())
    }

    /// Resolves a lookup result into the engine-level answer.
    fn resolve(r: miodb_skiplist::LookupResult) -> Option<Vec<u8>> {
        match r.kind {
            OpKind::Put => Some(r.value),
            OpKind::Delete => None,
        }
    }
}

/// Materializes the insertion mark's node, if any, as an owned entry.
fn mark_entry(mark: &InsertionMark) -> Option<OwnedEntry> {
    let (_node, _) = mark.load()?;
    // Reading via the mark's own lookup keeps all unsafe access inside the
    // skiplist crate; the key is unknown, so expose it via the raw load.
    mark.entry()
}
