//! The read path: the published [`Version`] readers load, the one
//! [`publish`] that replaces it and wakes every engine wait, and `get` and
//! `scan` over it. The write and background paths in [`db`](crate::db)
//! change `mem` and `levels` under their locks and publish here, write the
//! repository in runs through [`repo_run`], and wait through
//! [`Inner::wait_until`]; readers never take those locks.
//!
//! Every table a GET or a scan reads answers through an exact DRAM index: a
//! settled, merging or lazy-draining table through its own, the
//! huge-PMTable repository through the one its `Version` carries
//! ([`RepoIndex`](crate::repository::RepoIndex)). A hit reads its value
//! from NVM and nothing else; a MemTable is descended only if its bloom
//! filter admits the key. A scan ranks its sources as a GET probes them,
//! newest first, and takes no lock and no merge gate.

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use miodb_bloom::key_hash;
use miodb_common::trace::{self, SpanKind};
use miodb_common::{DramBytes, Error, OpKind, Result, ScanEntry};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{SkipList, ValueRef};

use crate::db::{Inner, Level, MemState, MioDb};
use crate::repository::{RepoIndex, Repository};
use crate::table::{IndexHit, MemTable, PmTable, TableIndex};

/// Everything a GET or a scan reads, published as one immutable value:
/// the MemTables and every level's tables (the Version/SuperVersion of
/// LevelDB and RocksDB). A reader loads it once — one read-lock, one `Arc`
/// clone — and takes neither the levels lock nor the MemTable lock.
///
/// It is republished through [`publish`], under the lock that guards the
/// mutation, at every structural transition: `mem` changes with
/// [`Version::with_mem`], `levels` changes with [`Version::relinked`], and
/// the repository's index through [`repo_run`]. So the published
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
    /// The huge-PMTable repository's index as the last lazy-copy run left
    /// it (`None` for the LSM repository).
    pub(crate) repo_index: Option<Arc<RepoIndex>>,
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

/// Runs `apply` as one lazy-copy run: `apply` writes the repository and
/// records each change to its index, in key order, in the edits it is
/// passed ([`TableIndex::record`]); then the index with those edits
/// applied is built in DRAM and published. A run that fails part way
/// publishes what it did, so a retry that finds those entries already
/// applied loses none of them. Callers hold the repository writer, the
/// one publisher of the index: the index the run starts from is still the
/// published one when its successor is.
pub(crate) fn repo_run<T>(inner: &Inner, apply: impl FnOnce(&mut TableIndex) -> T) -> T {
    let mut edits = TableIndex::default();
    let out = apply(&mut edits);
    let last = inner.version().repo_index.clone();
    if let (Some(last), false) = (last, edits.is_empty()) {
        let next = Arc::new(RepoIndex {
            list: last.list.clone(),
            index: last.index.edited(&edits),
        });
        publish(inner, |v| Version {
            repo_index: Some(next),
            ..v.clone()
        });
    }
    out
}

impl Version {
    /// The DRAM this `Version` names, by use: its MemTables, and the bloom
    /// filter and index of every table its levels hold — settled, merging
    /// or draining — and the repository's index.
    pub(crate) fn dram_bytes(&self) -> DramBytes {
        let mut d = DramBytes {
            repo_index: self.repo_index.as_ref().map_or(0, |r| r.index.bytes()),
            ..DramBytes::default()
        };
        for m in std::iter::once(&self.active).chain(&self.imm) {
            let (arena, bloom) = m.dram_bytes();
            d.memtable += arena;
            d.bloom += bloom;
        }
        for LevelView { level, .. } in self.levels.iter() {
            let merging = level.merging.iter().flat_map(|(n, o)| [n, o]);
            for t in level
                .tables
                .iter()
                .chain(merging)
                .chain(&level.lazy_draining)
            {
                d.bloom += t.bloom.bytes();
                d.index += t.index.bytes();
            }
        }
        d
    }
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
}

#[cfg(test)]
thread_local! {
    /// Runs once, in the next `get_impl` on this thread, after a level's
    /// tables were probed and before the probe is checked against the
    /// level version.
    pub(crate) static AFTER_LEVEL_PROBE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
    /// Runs once, in the next `get_impl` on this thread, right after a
    /// merging pair's newtable was probed — hit, miss or bloom skip — and
    /// before the oldtable is.
    pub(crate) static AFTER_NEWTABLE_PROBE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

/// A version a scan source offers: read already (a MemTable's, the LSM
/// repository's), or named by an index and read only if the scan returns
/// it.
enum Found<'a> {
    Read(IndexHit),
    At(&'a SkipList, ValueRef),
}

/// A scan source: versions in key order, a key's newest first.
type Source<'a> = Box<dyn Iterator<Item = (Cow<'a, [u8]>, Found<'a>)> + 'a>;

fn owned<'a>(e: OwnedEntry) -> (Cow<'a, [u8]>, Found<'a>) {
    let hit = IndexHit {
        kind: e.kind,
        value: e.value,
    };
    (Cow::Owned(e.key), Found::Read(hit))
}

/// The entries of `index`, whose values `list` reads, from `start` on.
fn indexed<'a>(index: &'a TableIndex, list: &'a SkipList, start: &[u8]) -> Source<'a> {
    Box::new(
        index
            .iter_from(start)
            .map(move |(key, v)| (Cow::Borrowed(key), Found::At(list, v))),
    )
}

/// The first `limit` live keys of `sources`, ranked newest first as a GET
/// probes them, with their values: each key answered by the first source
/// that holds it, tombstones dropped.
fn ranked_merge(mut sources: Vec<Source<'_>>, limit: usize) -> Vec<ScanEntry> {
    let mut heads: Vec<_> = sources.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::new();
    while out.len() < limit {
        // The smallest key, from the first source of those holding it.
        let first = (0..heads.len())
            .filter_map(|i| Some((heads[i].as_ref()?.0.as_ref(), i)))
            .min()
            .map(|(_, i)| i);
        let Some(i) = first else {
            break;
        };
        let next = sources[i].next();
        let Some((key, found)) = std::mem::replace(&mut heads[i], next) else {
            break;
        };
        for (head, source) in heads.iter_mut().zip(&mut sources) {
            while head.as_ref().is_some_and(|(k, _)| *k == key) {
                *head = source.next();
            }
        }
        let hit = match found {
            Found::Read(hit) => hit,
            Found::At(_, v) if v.kind().is_delete() => continue,
            Found::At(list, v) => IndexHit {
                kind: v.kind(),
                value: list.value_at(v),
            },
        };
        if let Some(value) = MioDb::resolve(hit) {
            out.push(ScanEntry {
                key: key.into_owned(),
                value,
            });
        }
    }
    out
}

/// The point where a test re-links a level, or runs a lazy copy, under a
/// finished probe; nothing outside the tests.
#[inline]
fn after_level_probe() {
    #[cfg(test)]
    if let Some(hook) = AFTER_LEVEL_PROBE.with(std::cell::Cell::take) {
        hook();
    }
}

/// The point, after `t` was probed in `level`, where a test completes a
/// merge under a GET that has probed the merging newtable `t` and not yet
/// its oldtable; nothing outside the tests.
#[inline]
fn after_table_probe(_level: &Level, _t: &Arc<PmTable>) {
    #[cfg(test)]
    if _level
        .merging
        .as_ref()
        .is_some_and(|(new_t, _)| Arc::ptr_eq(new_t, _t))
    {
        if let Some(hook) = AFTER_NEWTABLE_PROBE.with(std::cell::Cell::take) {
            hook();
        }
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
        // The key is hashed once, for every bloom filter probed.
        let h = key_hash(key);

        // 1. DRAM MemTables, each descended only if its filter admits the
        //    key. A writer stores a key's bits before it links the key's
        //    node, so a filter never rejects a node the descent could see.
        {
            let _probe_span = trace::span(SpanKind::MemtableProbe);
            for m in std::iter::once(&v.active).chain(&v.imm) {
                if inner.opts.bloom_enabled && !m.may_contain_hash(h) {
                    continue;
                }
                if let Some(r) = m.list().get(key) {
                    inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Self::resolve(r.into()));
                }
            }
        }

        // 2. Elastic buffer, level by level. A level is one probe loop:
        //    settled tables newest first, then an in-flight merge's
        //    newtable, its oldtable, and a lazy-draining table — each
        //    through its bloom filter and its exact index, which no merge
        //    step that re-links the table's nodes can invalidate (node
        //    payloads never change). So a merging pair needs neither the
        //    insertion mark nor the level gate: the newtable's index holds
        //    every key the newtable held, those of the runs already moved
        //    included, and its versions are newer than the oldtable's.
        //
        //    What can change under a probe is the level: a merge can pop
        //    the probed tables into `merging` behind a newer one, or push
        //    its result down onto a level not yet probed. So every probe,
        //    hit or miss, re-checks the level's structural version and, on
        //    change, reloads the `Version` and retries the level. Bounded:
        //    a level can only transition a handful of times while one probe
        //    runs; the cap merely keeps a pathological schedule from
        //    livelocking, and on exhaustion we take the last probe's answer
        //    (no worse than the unversioned probe).
        let may_contain = |bloom: &miodb_bloom::BloomFilter| {
            !inner.opts.bloom_enabled || bloom.may_contain_hash(h)
        };
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
                let merging = level.merging.iter().flat_map(|(n, o)| [n, o]);
                let tables = level.tables.iter().rev().chain(merging);
                let mut hit = None;
                for t in tables.chain(&level.lazy_draining) {
                    if !may_contain(&t.bloom) {
                        inner.stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                        trace::instant(SpanKind::BloomSkip, i as u64);
                    } else {
                        hit = t.get(key);
                        if hit.is_none() {
                            inner
                                .stats
                                .bloom_false_positives
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    after_table_probe(level, t);
                    if hit.is_some() {
                        break;
                    }
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

        // 3. Data repository, through the index `v` carries.
        let _repo_span = trace::span(SpanKind::RepoProbe);
        let found = match &v.repo_index {
            Some(r) => r.get(key),
            None => inner.repo.get(key)?.map(IndexHit::from),
        };
        match found.and_then(Self::resolve) {
            Some(value) => {
                inner.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(value))
            }
            None => Ok(None),
        }
    }

    /// The `scan` source assembly and ranked merge;
    /// [`KvEngine::scan`](miodb_common::KvEngine::scan) wraps it with latency
    /// recording.
    ///
    /// A scan reads one published `Version` and takes no lock and no gate:
    /// MemTables are iterated from a descent of their towers, every PMTable
    /// — settled, merging or draining — and the huge-PMTable repository
    /// through its index from the first key at or after `start`, reading
    /// values only. Indexes never change and their values never move, so a
    /// zero-copy merge or a lazy copy running meanwhile changes nothing a
    /// scan reads; and `v` holds every table, so their arenas, until the
    /// scan returns.
    pub(crate) fn scan_impl(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let inner = &*self.inner;
        let v = inner.version();
        let mut sources: Vec<Source<'_>> = Vec::new();
        for m in std::iter::once(&v.active).chain(&v.imm) {
            sources.push(Box::new(m.list().iter_from(start).map(owned)));
        }
        for LevelView { level: l, .. } in v.levels.iter() {
            let merging = l.merging.iter().flat_map(|(n, o)| [n, o]);
            for t in l.tables.iter().rev().chain(merging).chain(&l.lazy_draining) {
                sources.push(indexed(&t.index, &t.list, start));
            }
        }
        match (&v.repo_index, &inner.repo) {
            (Some(r), _) => sources.push(indexed(&r.index, &r.list, start)),
            (None, Repository::Lsm(c)) => {
                let runs = KWayMerge::new(c.scan_sources(start));
                sources.push(Box::new(dedup_newest(runs, false).map(owned)));
            }
            (None, Repository::Pm(_)) => unreachable!("a huge PMTable has an index"),
        }
        Ok(ranked_merge(sources, limit))
    }

    /// Resolves a lookup result into the engine-level answer.
    fn resolve(r: IndexHit) -> Option<Vec<u8>> {
        match r.kind {
            OpKind::Put => Some(r.value),
            OpKind::Delete => None,
        }
    }
}
