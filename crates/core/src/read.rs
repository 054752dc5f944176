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
//! ([`Inner::get_in`]), probing its tables in the flat list the `Version`
//! carries ([`Version::probes`]); a scan ranks its sources in the same
//! order, newest first, and takes no lock and no merge gate.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Instant;

use miodb_bloom::key_hash;
use miodb_common::histogram::thread_index;
use miodb_common::trace::{self, SpanKind};
use miodb_common::{DramBytes, Error, OpKind, Result, ScanEntry};
use miodb_lsm::merge_iter::{dedup_newest, KWayMerge};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{SkipList, Unlinked, ValueRef};
use parking_lot::RwLock;

use crate::db::{Inner, Level, MemState, MioDb};
use crate::repository::{RepoIndex, Repository};
use crate::table::{IndexHit, MemTable, PmTable, TableIndex};

/// Everything a GET or a scan reads, published as one immutable value:
/// the MemTables and every level's tables (the Version/SuperVersion of
/// LevelDB and RocksDB). A reader loads it once from its thread's replica
/// ([`Published`]) — a read lock and an `Arc` clone on cache lines no
/// reader on another replica writes — and takes neither the levels lock
/// nor the MemTable lock.
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
///
/// Aligned to 128 bytes so that each replica's `Arc` count, which every
/// load writes, sits on a cache-line pair of its own.
#[derive(Clone)]
#[repr(align(128))]
pub(crate) struct Version {
    pub(crate) active: Arc<MemTable>,
    pub(crate) imm: Option<Arc<MemTable>>,
    pub(crate) levels: Arc<[Level]>,
    /// Every table `levels` hold, in [`probe_order`]: what a GET probes
    /// and a scan ranks, collected once per [`Version::relinked`].
    pub(crate) probes: Arc<[Probe]>,
    /// The huge-PMTable repository's index as the last lazy-copy run left
    /// it (`None` for the LSM repository).
    pub(crate) repo_index: Option<Arc<RepoIndex>>,
}

/// A table as [`probe_order`] yields it: its level, its role there, and
/// the table.
pub(crate) struct Probe {
    pub(crate) level: usize,
    pub(crate) role: Role,
    pub(crate) table: Arc<PmTable>,
}

/// Replicas of the published [`Version`]: one per stripe of
/// [`thread_index`], as [`Stats`](miodb_common::Stats)' counters are
/// striped.
pub(crate) const REPLICAS: usize = 8;

/// One replica, alone on its cache-line pair: the lock word a reader
/// writes is shared only with readers of the same stripe.
#[repr(align(128))]
struct Replica(RwLock<Arc<Version>>);

/// The published [`Version`], replicated: a reader loads its own thread's
/// replica ([`Published::load`]), and [`publish`] replaces every replica
/// before it returns, each with its own copy of the one `Version` it
/// built, naming the same tables.
pub(crate) struct Published {
    replicas: [Replica; REPLICAS],
}

impl Published {
    /// Every replica holding a copy of `v`.
    pub(crate) fn new(v: &Version) -> Published {
        Published {
            replicas: std::array::from_fn(|_| Replica(RwLock::new(Arc::new(v.clone())))),
        }
    }

    /// The calling thread's replica: one read lock, one `Arc` clone.
    pub(crate) fn load(&self) -> Arc<Version> {
        self.replicas[thread_index() % REPLICAS].0.read().clone()
    }

    /// Every replica, in order, as [`publish`] holds them.
    #[cfg(test)]
    pub(crate) fn each(&self) -> impl Iterator<Item = Arc<Version>> + '_ {
        self.replicas.iter().map(|r| r.0.read().clone())
    }
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
    /// The level's tables newest first: settled tables newest first, then
    /// an in-flight merge's newtable, its oldtable, and a lazy-draining
    /// table. A GET probes and a scan ranks them in [`probe_order`], which
    /// moves the draining table behind every level.
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

/// Every table `levels` hold, with its level, in the order a GET probes
/// them and a scan ranks them, newest first: level by level, each level's
/// [`Level::newest_first`] but its lazy-draining table, then the draining
/// table. The lazy worker drains the oldest table of the deepest level
/// that holds any, and a merge during the drain moves only newer tables
/// below that level, so the draining table is older than every other.
pub(crate) fn probe_order(levels: &[Level]) -> impl Iterator<Item = (usize, Role, &Arc<PmTable>)> {
    let levels = levels.iter().enumerate();
    let newer = levels.clone().flat_map(|(i, l)| {
        let held = l.newest_first().filter(|(r, _)| *r != Role::Draining);
        held.map(move |(r, t)| (i, r, t))
    });
    let draining = levels.filter_map(|(i, l)| Some((i, Role::Draining, l.lazy_draining.as_ref()?)));
    newer.chain(draining)
}

/// The tables of `levels` in [`probe_order`], collected.
fn probes(levels: &[Level]) -> Arc<[Probe]> {
    let probe = |(level, role, table): (usize, Role, &Arc<PmTable>)| Probe {
        level,
        role,
        table: table.clone(),
    };
    probe_order(levels).map(probe).collect()
}

/// Publishes the [`Version`] that `next` builds from the current one, then
/// wakes every engine wait ([`Inner::wait_until`]): the one way a
/// structural transition becomes visible, to readers and waiters alike.
/// It write-locks every replica, in order, builds the next `Version` once
/// and installs a copy in each before it releases any, so publishers are
/// serialized and no reader loads the new `Version` before every replica
/// holds it. The replaced copies drop under those locks, so a table the
/// old `Version` held last is freed before any reader or waiter can load
/// the new one. The wake follows the release: a publisher never holds the
/// `Version` while it takes `changed`.
pub(crate) fn publish(inner: &Inner, next: impl FnOnce(&Version) -> Version) {
    {
        let mut replicas = inner.current.replicas.each_ref().map(|r| r.0.write());
        let v = next(&replicas[0]);
        for replica in &mut replicas {
            **replica = Arc::new(v.clone());
        }
        #[cfg(test)]
        if let Some(observe) = inner.on_publish.get() {
            observe(inner, &replicas[0]);
        }
    }
    inner.wake();
}

impl Version {
    /// The first `Version`: `active`, no immutable MemTable, `levels` and
    /// the repository's index.
    pub(crate) fn new(
        active: Arc<MemTable>,
        levels: &[Level],
        repo_index: Option<Arc<RepoIndex>>,
    ) -> Version {
        Version {
            active,
            imm: None,
            levels: levels.into(),
            probes: probes(levels),
            repo_index,
        }
    }

    /// This `Version` with every level's current state, after a `levels`
    /// mutation. Callers hold the levels lock and publish last in the
    /// mutating scope, so a reader that sees the new `Version` —
    /// `wait_idle` among them — sees everything the scope did.
    pub(crate) fn relinked(&self, levels: &[Level]) -> Version {
        Version {
            levels: levels.into(),
            probes: probes(levels),
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

/// Runs one lazy-copy run of `records`, a drained table's newest version
/// of each key in key order, into the huge-PMTable repository: planned
/// against the published index
/// ([`GrowableSkipList::run`](miodb_skiplist::GrowableSkipList::run)), with each
/// change recorded in the run's edits ([`TableIndex::record`]); then the
/// index with those edits applied is built in DRAM and published. A run
/// that fails part way publishes what it did, so a retry is planned
/// against an index that is exact again. Callers hold the repository
/// writer, the one publisher of the index, and pass its queue: the index
/// the run is planned against is still the published one when its
/// successor is.
///
/// The nodes a run unlinks stay readable through the index it started
/// from and any older one. Every run queues an entry, nodes or none, so
/// the front entry's index is the oldest a `Version` can still hold; its
/// nodes are recycled once that index is dropped, in run order, so an
/// update-heavy workload reuses the repository's space instead of
/// growing it without bound.
pub(crate) fn repo_run(
    inner: &Inner,
    unrecycled: &mut Unrecycled,
    records: impl Iterator<Item = OwnedEntry>,
) -> Result<()> {
    let (Repository::Pm(repo), Some(last)) = (&inner.repo, inner.version().repo_index.clone())
    else {
        unreachable!("a huge PMTable has an index")
    };
    let mut edits = TableIndex::default();
    let out = repo.run(records, last.index.iter_from(&[]), |key, outcome| {
        edits.record(key, outcome)
    });
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
    /// The published [`Version`], from the calling thread's replica
    /// ([`Published::load`]).
    pub(crate) fn version(&self) -> Arc<Version> {
        self.current.load()
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
    /// newest first ([`Version::probes`]), then the data repository. Each
    /// table `v` names is read through its bloom filter and its exact
    /// index, which never changes, and `v` holds it, so a merge or a lazy
    /// copy running meanwhile changes nothing the GET reads; every publish
    /// being a consistent cut, `v` reaches the newest version of every key
    /// acknowledged before it was loaded. The tables' bloom skips and false
    /// positives are counted here and added once a GET.
    pub(crate) fn get_in(&self, v: &Version, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        // The key is hashed once, for every bloom filter probed.
        let h = key_hash(key);
        let bloom = self.opts.bloom_enabled;

        // 1. DRAM MemTables, each descended only if its filter admits the
        //    key. A writer stores a key's bits before it links the key's
        //    node, so a filter never rejects a node the descent could see.
        {
            let _probe_span = trace::span(SpanKind::MemtableProbe);
            for m in std::iter::once(&v.active).chain(&v.imm) {
                if bloom && !m.may_contain_hash(h) {
                    continue;
                }
                if let Some(r) = m.list().get(key) {
                    self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(resolve(r.into()));
                }
            }
        }

        // 2. Elastic buffer, every table in `probe_order`, one span for
        //    each run of tables of one level. A merging pair needs neither
        //    the insertion mark nor the level gate: the newtable's index
        //    holds every key the newtable held, those of the runs already
        //    moved included, and its versions are newer than the
        //    oldtable's.
        let (mut skips, mut false_positives) = (0, 0);
        let mut hit = None;
        let mut level_span: Option<(usize, trace::SpanGuard)> = None;
        for p in v.probes.iter() {
            if level_span.as_ref().is_none_or(|(at, _)| *at != p.level) {
                drop(level_span.take());
                let mut span = trace::span(SpanKind::LevelProbe);
                span.annotate(p.level as u64);
                level_span = Some((p.level, span));
            }
            if bloom && !p.table.bloom.may_contain_hash(h) {
                skips += 1;
                trace::instant(SpanKind::BloomSkip, p.level as u64);
            } else {
                hit = p.table.get(key);
                false_positives += u64::from(hit.is_none());
            }
            after_table_probe(p.role);
            if hit.is_some() {
                break;
            }
        }
        drop(level_span);
        if skips > 0 {
            self.stats.bloom_skips.fetch_add(skips, Ordering::Relaxed);
        }
        if false_positives > 0 {
            self.stats
                .bloom_false_positives
                .fetch_add(false_positives, Ordering::Relaxed);
        }
        if let Some(r) = hit {
            self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(resolve(r));
        }
        before_repo_probe();

        // 3. Data repository, through the index `v` carries.
        let _repo_span = trace::span(SpanKind::RepoProbe);
        match v.repo_get(&self.repo, key)?.and_then(resolve) {
            Some(value) => {
                self.stats.get_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(value))
            }
            None => Ok(None),
        }
    }
}

impl Version {
    /// The data repository's version of `key`: the huge PMTable's through
    /// the index this `Version` carries, the LSM repository's (`repo`) by
    /// its own lookup.
    pub(crate) fn repo_get(&self, repo: &Repository, key: &[u8]) -> Result<Option<IndexHit>> {
        Ok(match (&self.repo_index, repo) {
            (Some(r), _) => r.get(key),
            (None, Repository::Lsm(c)) => c.get(key)?.map(|e| IndexHit {
                kind: e.kind,
                value: e.value,
            }),
            (None, Repository::Pm(_)) => unreachable!("a huge PMTable has an index"),
        })
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
        for p in v.probes.iter() {
            sources.push(indexed(&p.table.index, &p.table.list, start));
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
