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
//! filter admits the key. A GET answers from one loaded `Version` alone
//! ([`Inner::get_in`]); a scan ranks its sources as a GET probes them, newest
//! first ([`Level::newest_first`]), and takes no lock and no merge gate.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Instant;

use miodb_bloom::key_hash;
use miodb_common::trace::{self, SpanKind};
use miodb_common::{DramBytes, Error, OpKind, Result, ScanEntry};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{SkipList, Unlinked, ValueRef};

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
/// publish that can make it true.
///
/// Every publish is a consistent cut: the `Version` it installs reaches
/// the newest version of every key acknowledged before it, so a GET needs
/// no other. A transition that moves data publishes its destination no
/// later than it drops the source: a flushed table enters level 0 before
/// `imm` clears, a merged table replaces its inputs in one publish, and a
/// lazy-copy run's index is published before `lazy_draining` clears.
///
/// Lock order: `levels` before `mem` before the `Version`, the repository
/// writer before the `Version`, and `changed`, the engine's wait lock,
/// before the `Version`; nothing takes `levels`, `mem`, the repository
/// writer or `changed` while holding the `Version`, and no waiter holds
/// `levels`, `mem`, the repository writer or a gate while it holds
/// `changed`.
///
/// The `Version` holds each table it names, so a retired table's arenas
/// return to the pool only once it is republished without them and every
/// reader that loaded an older one has let go.
#[derive(Clone)]
pub(crate) struct Version {
    pub(crate) active: Arc<MemTable>,
    pub(crate) imm: Option<Arc<MemTable>>,
    pub(crate) levels: Arc<[Level]>,
    /// The huge-PMTable repository's index as the last lazy-copy run left
    /// it (`None` for the LSM repository).
    pub(crate) repo_index: Option<Arc<RepoIndex>>,
}

/// Where a table sits in its [`Level`], as [`Level::newest_first`] names
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// A settled table, by its position among them (oldest 0).
    Settled(usize),
    /// An in-flight merge's newtable.
    MergingNew,
    /// An in-flight merge's oldtable.
    MergingOld,
    /// The table a lazy copy is draining into the repository.
    Draining,
}

impl Level {
    /// The level's tables newest first, the order a GET probes them and a
    /// scan ranks them: settled tables newest first, then an in-flight
    /// merge's newtable, its oldtable, and a lazy-draining table.
    pub(crate) fn newest_first(&self) -> impl Iterator<Item = (Role, &Arc<PmTable>)> {
        let settled = self.tables.iter().enumerate().rev();
        let merging = self
            .merging
            .iter()
            .flat_map(|(new_t, old_t)| [(Role::MergingNew, new_t), (Role::MergingOld, old_t)]);
        settled
            .map(|(j, t)| (Role::Settled(j), t))
            .chain(merging)
            .chain(self.lazy_draining.iter().map(|t| (Role::Draining, t)))
    }
}

/// Publishes the [`Version`] that `next` builds from the current one, then
/// wakes every engine wait ([`Inner::wait_until`]): the one way a
/// structural transition becomes visible, to readers and waiters alike.
/// The replaced `Version` drops under the `Version` write lock, so a table
/// it held last is freed before any reader or waiter can load the new
/// one. The wake follows the release: a publisher never holds the
/// `Version` while it takes `changed`.
pub(crate) fn publish(inner: &Inner, next: impl FnOnce(&Version) -> Version) {
    {
        let mut current = inner.current.write();
        *current = Arc::new(next(&current));
        #[cfg(test)]
        if let Some(observe) = inner.on_publish.get() {
            observe(inner, &current);
        }
    }
    inner.wake();
}

impl Version {
    /// This `Version` with every level's current state, after a `levels`
    /// mutation. Callers hold the levels lock and publish last in the
    /// mutating scope, so a reader that sees the new `Version` —
    /// `wait_idle` among them — sees everything the scope did.
    pub(crate) fn relinked(&self, levels: &[Level]) -> Version {
        Version {
            levels: levels.into(),
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

/// The repository nodes each lazy-copy run unlinked, in run order, with
/// the index the run started from. The repository writer's lock guards it.
pub(crate) type Unrecycled = VecDeque<(Weak<RepoIndex>, Vec<Unlinked>)>;

/// Runs `apply` as one lazy-copy run: `apply` writes the repository and
/// records each change to its index, in key order, in the edits it is
/// passed ([`TableIndex::record`]); then the index with those edits
/// applied is built in DRAM and published. A run that fails part way
/// publishes what it did, so a retry that finds those entries already
/// applied loses none of them. Callers hold the repository writer, the
/// one publisher of the index, and pass its queue: the index the run
/// starts from is still the published one when its successor is.
///
/// The nodes a run unlinks stay readable through the index it started
/// from and any older one. Every run queues an entry, nodes or none, so
/// the front entry's index is the oldest a `Version` can still hold; its
/// nodes are recycled once that index is dropped, in run order, so an
/// update-heavy workload reuses the repository's space instead of
/// growing it without bound.
pub(crate) fn repo_run<T>(
    inner: &Inner,
    unrecycled: &mut Unrecycled,
    apply: impl FnOnce(&mut TableIndex) -> T,
) -> T {
    let mut edits = TableIndex::default();
    let out = apply(&mut edits);
    let (Repository::Pm(repo), Some(last)) = (&inner.repo, inner.version().repo_index.clone())
    else {
        return out;
    };
    if !edits.is_empty() {
        let next = Arc::new(RepoIndex {
            list: last.list.clone(),
            index: last.index.edited(&edits),
        });
        publish(inner, |v| Version {
            repo_index: Some(next),
            ..v.clone()
        });
    }
    unrecycled.push_back((Arc::downgrade(&last), repo.take_unlinked()));
    drop(last);
    while let Some((_, nodes)) = unrecycled.pop_front_if(|(held, _)| held.strong_count() == 0) {
        repo.recycle(nodes);
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
        for (_, t) in self.levels.iter().flat_map(Level::newest_first) {
            d.bloom += t.bloom.bytes();
            d.index += t.index.bytes();
        }
        d
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
    /// Runs once, in the next GET on this thread, right after a merging
    /// pair's newtable was probed — hit, miss or bloom skip — and before
    /// the oldtable is.
    pub(crate) static AFTER_NEWTABLE_PROBE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
    /// Runs once, in the next GET on this thread that misses every level,
    /// after the bottom level was probed and before the repository is.
    pub(crate) static BEFORE_REPO_PROBE: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
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
        if let Some(value) = resolve(hit) {
            out.push(ScanEntry {
                key: key.into_owned(),
                value,
            });
        }
    }
    out
}

/// The point, after a table in `_role` was probed, where a test completes
/// a merge under a GET that has probed the merging newtable and not yet
/// its oldtable; nothing outside the tests.
#[inline]
fn after_table_probe(_role: Role) {
    #[cfg(test)]
    if _role == Role::MergingNew {
        if let Some(hook) = AFTER_NEWTABLE_PROBE.with(std::cell::Cell::take) {
            hook();
        }
    }
}

/// The point, after the bottom level was probed, where a test runs a lazy
/// copy under a GET; nothing outside the tests.
#[inline]
fn before_repo_probe() {
    #[cfg(test)]
    if let Some(hook) = BEFORE_REPO_PROBE.with(std::cell::Cell::take) {
        hook();
    }
}

impl Inner {
    /// A GET answered from `v` alone: the MemTables, every level's tables
    /// newest first, then the data repository. Each table `v` names is
    /// read through its bloom filter and its exact index, which never
    /// changes, and `v` holds it, so a merge or a lazy copy running
    /// meanwhile changes nothing the GET reads; every publish being a
    /// consistent cut, `v` reaches the newest version of every key
    /// acknowledged before it was loaded.
    pub(crate) fn get_in(&self, v: &Version, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        // The key is hashed once, for every bloom filter probed.
        let h = key_hash(key);
        let admits = |bloom: &miodb_bloom::BloomFilter| {
            !self.opts.bloom_enabled || bloom.may_contain_hash(h)
        };

        // 1. DRAM MemTables, each descended only if its filter admits the
        //    key. A writer stores a key's bits before it links the key's
        //    node, so a filter never rejects a node the descent could see.
        {
            let _probe_span = trace::span(SpanKind::MemtableProbe);
            for m in std::iter::once(&v.active).chain(&v.imm) {
                if self.opts.bloom_enabled && !m.may_contain_hash(h) {
                    continue;
                }
                if let Some(r) = m.list().get(key) {
                    self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(resolve(r.into()));
                }
            }
        }

        // 2. Elastic buffer, level by level, each level's tables newest
        //    first. A merging pair needs neither the insertion mark nor
        //    the level gate: the newtable's index holds every key the
        //    newtable held, those of the runs already moved included, and
        //    its versions are newer than the oldtable's.
        for (i, level) in v.levels.iter().enumerate() {
            let mut level_span = trace::span(SpanKind::LevelProbe);
            level_span.annotate(i as u64);
            for (role, t) in level.newest_first() {
                let hit = if admits(&t.bloom) {
                    let hit = t.get(key);
                    if hit.is_none() {
                        self.stats
                            .bloom_false_positives
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    hit
                } else {
                    self.stats.bloom_skips.fetch_add(1, Ordering::Relaxed);
                    trace::instant(SpanKind::BloomSkip, i as u64);
                    None
                };
                after_table_probe(role);
                if let Some(r) = hit {
                    self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(resolve(r));
                }
            }
        }
        before_repo_probe();

        // 3. Data repository, through the index `v` carries.
        let _repo_span = trace::span(SpanKind::RepoProbe);
        let found = match &v.repo_index {
            Some(r) => r.get(key),
            None => self.repo.get(key)?.map(IndexHit::from),
        };
        match found.and_then(resolve) {
            Some(value) => {
                self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(value))
            }
            None => Ok(None),
        }
    }
}

impl MioDb {
    /// The `get` visibility walk over the published `Version`;
    /// [`KvEngine::get`](miodb_common::KvEngine::get) wraps it with latency
    /// recording.
    pub(crate) fn get_impl(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get_in(&self.inner.version(), key)
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
        for (_, t) in v.levels.iter().flat_map(Level::newest_first) {
            sources.push(indexed(&t.index, &t.list, start));
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
}

/// Resolves a lookup result into the engine-level answer.
fn resolve(r: IndexHit) -> Option<Vec<u8>> {
    match r.kind {
        OpKind::Put => Some(r.value),
        OpKind::Delete => None,
    }
}
