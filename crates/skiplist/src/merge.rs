//! Zero-copy compaction: merging two PMTables by pointer re-linking only.
//!
//! Implements §4.3 of the paper at level 0, by *runs*. Take each key's
//! newest node in both tables, in key order, the newtable (younger)
//! winning a key both hold. A run is a maximal sequence of newtable keys
//! with no surviving oldtable key between them: its first node `f`, its
//! last `r`, the oldtable node `p` before it (or the oldtable head) and the
//! first surviving oldtable node `s` after it (or 0). On the newtable's
//! level 0 the run is already linked in order, `f` to `r`, so it moves
//! with three link stores and one mark store — 32 bytes however long it
//! is — and no KV byte moves:
//!
//! 1. the [`InsertionMark`] names `a`, the newtable front after the run
//!    ([`END`] for none),
//! 2. `r.next := s`,
//! 3. `p.next := f`,
//! 4. `new_head.next := a`.
//!
//! The oldtable nodes the run supersedes, the older newtable versions of
//! `r`'s key and the older oldtable versions of `p`'s key sit between the
//! boundaries those links join, so they leave the list with no store of
//! their own; older versions of the other keys of the run stay behind the
//! newest one, as in the newtable. Towers above level 0 are neither read
//! nor written: after its flush a PMTable is searched only through its
//! exact DRAM index, and its towers are dead.
//!
//! A *planner* finds the runs from two key-ordered sequences of (key,
//! newest node). The engine feeds it the two tables' DRAM indexes
//! ([`RunMerge`]), so a merge reads no NVM at all; [`zero_copy_merge`]
//! feeds it level-0 walks, for recovery and for callers without indexes.
//! Both drive the one executor.
//!
//! # Crash resumability (§4.7)
//!
//! A run is in flight iff the mark is set and differs from
//! `new_head.next` ([`END`] standing for 0): step 1 makes them differ,
//! step 4 makes them equal again, and the mark is cleared once the
//! newtable is empty. [`zero_copy_merge`] first finishes a run in flight:
//! `f` is `new_head.next` and `a` the mark; walking the oldtable by key
//! gives `p`, and `p.next == f` says steps 2 and 3 are done; otherwise the
//! newtable's level 0 from `f`, walked against the oldtable's from `p`,
//! ends either at `a` (step 2 not done) or where it joins the oldtable at
//! `s` (done), and its last key is `r`'s. Every step is then idempotent.
//! Until then a level-0 walk of the newtable may end early, at `r`, or run
//! on into the oldtable: recovery indexes the merged table by a walk made
//! after the resume.
//!
//! Nodes a run bypasses keep their outgoing pointers; their memory is
//! reclaimed with their arena, by the later lazy-copy compaction (lazy
//! freeing, §4.4).

use std::iter::Peekable;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use miodb_common::Result;
use miodb_pmem::{PmemPool, PmemRegion};

use crate::node::raw;

#[cfg(test)]
thread_local! {
    /// Every persistent store the merges on this thread made, in order.
    static STORES: std::cell::RefCell<Vec<(u64, u64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Notes one persistent store — a link word or the mark slot — for the
/// tests that compare store sequences; nothing outside them.
#[inline]
fn record_store(_slot: u64, _value: u64) {
    #[cfg(test)]
    STORES.with(|s| s.borrow_mut().push((_slot, _value)));
}

/// What the mark holds while the last run of a merge is in flight: no node
/// sits at offset 1.
pub const END: u64 = 1;

/// A persistent one-word slot naming the newtable front after the run in
/// flight of a zero-copy merge (0 when no merge is under way). The slot
/// lives in NVM, making merges crash-resumable.
#[derive(Clone, Debug)]
pub struct InsertionMark {
    pool: Arc<PmemPool>,
    region: PmemRegion,
}

impl InsertionMark {
    /// Allocates a cleared mark slot in `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`miodb_common::Error::PoolExhausted`] if the pool is full.
    pub fn alloc(pool: &Arc<PmemPool>) -> Result<InsertionMark> {
        let region = pool.alloc(64)?;
        pool.atomic_u64(region.offset).store(0, Ordering::Release);
        Ok(InsertionMark {
            pool: pool.clone(),
            region,
        })
    }

    /// Re-attaches to a mark slot that survived a crash (its offset comes
    /// from the manifest).
    pub fn from_raw(pool: Arc<PmemPool>, region: PmemRegion) -> InsertionMark {
        InsertionMark { pool, region }
    }

    /// The slot's region (persisted in the manifest).
    pub fn region(&self) -> PmemRegion {
        self.region
    }

    /// The mark word, if a merge is under way: the newtable front the last
    /// run started named, or [`END`].
    pub fn load(&self) -> Option<u64> {
        let v = self
            .pool
            .atomic_u64(self.region.offset)
            .load(Ordering::Acquire);
        (v != 0).then_some(v)
    }
}

/// Counters describing one merge call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Newtable keys re-linked into the oldtable.
    pub moved: u64,
    /// Runs moved.
    pub runs: u64,
    /// Persistent 8-byte stores made: link words and the mark.
    pub stores: u64,
}

impl std::ops::AddAssign for MergeStats {
    /// Adds the counters of a later call on the same pair of tables.
    fn add_assign(&mut self, later: MergeStats) {
        self.moved += later.moved;
        self.runs += later.runs;
        self.stores += later.stores;
    }
}

/// Result of a merge call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The newtable was fully drained into the oldtable.
    Complete(MergeStats),
    /// A limit fired; call again to continue.
    Paused(MergeStats),
}

impl MergeOutcome {
    /// The stats regardless of completion.
    pub fn stats(&self) -> MergeStats {
        match *self {
            MergeOutcome::Complete(s) | MergeOutcome::Paused(s) => s,
        }
    }

    /// Returns `true` if the merge finished.
    pub fn is_complete(&self) -> bool {
        matches!(self, MergeOutcome::Complete(_))
    }
}

/// Optional stopping conditions, used by tests and incremental compactors.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeLimits {
    /// Stop (cleanly, between runs) after this many runs.
    pub max_steps: Option<usize>,
    /// Abandon abruptly after this many stores, the mark's included,
    /// leaving a run half moved — simulates a crash mid-run.
    pub abandon_after_link_writes: Option<u64>,
}

impl MergeLimits {
    /// No limits: run to completion.
    pub fn none() -> MergeLimits {
        MergeLimits::default()
    }
}

/// One run, as the planner found it: see the module docs.
struct Run {
    p: u64,
    f: u64,
    r: u64,
    s: u64,
    a: u64,
    keys: u64,
}

/// Finds the runs of a merge from its two inputs: each key's newest node,
/// in key order. Its cursors stay where the last run ended.
struct Planner<N: Iterator, O: Iterator> {
    new: Peekable<N>,
    old: Peekable<O>,
    /// The last surviving oldtable node passed (first the oldtable head):
    /// the next run's `p`.
    pred: u64,
}

impl<N: Iterator, O: Iterator> Planner<N, O> {
    fn new(new: N, old: O, old_head: u64) -> Self {
        Planner {
            new: new.peekable(),
            old: old.peekable(),
            pred: old_head,
        }
    }
}

impl<'a, N, O> Iterator for Planner<N, O>
where
    N: Iterator<Item = (&'a [u8], u64)>,
    O: Iterator<Item = (&'a [u8], u64)>,
{
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let (mut key, f) = self.new.next()?;
        while let Some((_, node)) = self.old.next_if(|&(k, _)| k < key) {
            self.pred = node;
        }
        let (mut r, mut keys) = (f, 1);
        loop {
            // An oldtable version of the key is superseded.
            self.old.next_if(|&(k, _)| k == key);
            // The run goes on while no surviving oldtable key sorts before
            // the next newtable key.
            let boundary = self.old.peek().copied();
            match self
                .new
                .next_if(|&(k, _)| boundary.is_none_or(|(b, _)| b >= k))
            {
                Some((k, node)) => {
                    (key, r) = (k, node);
                    keys += 1;
                }
                None => {
                    let s = boundary.map_or(0, |(_, node)| node);
                    let a = self.new.peek().map_or(0, |&(_, node)| node);
                    return Some(Run {
                        p: self.pred,
                        f,
                        r,
                        s,
                        a,
                        keys,
                    });
                }
            }
        }
    }
}

/// Makes a merge's stores, run by run.
struct Exec<'a> {
    pool: &'a PmemPool,
    new_head: u64,
    old_head: u64,
    mark: &'a InsertionMark,
    limits: MergeLimits,
    stats: MergeStats,
}

impl<'a> Exec<'a> {
    fn new(pool: &'a PmemPool, new_head: u64, old_head: u64, mark: &'a InsertionMark) -> Self {
        Exec {
            pool,
            new_head,
            old_head,
            mark,
            limits: MergeLimits::none(),
            stats: MergeStats::default(),
        }
    }

    /// One release store of `value` at `slot`, charged as an 8-byte device
    /// write; false if the crash limit fired (the caller unwinds at once).
    #[must_use]
    fn store(&mut self, slot: u64, value: u64) -> bool {
        let limit = self.limits.abandon_after_link_writes;
        if limit.is_some_and(|max| self.stats.stores >= max) {
            return false;
        }
        self.pool.atomic_u64(slot).store(value, Ordering::Release);
        self.pool.charge_write(8);
        record_store(slot, value);
        self.stats.stores += 1;
        true
    }

    fn move_run(&mut self, run: &Run) -> bool {
        let mark = if run.a == 0 { END } else { run.a };
        let moved = self.store(self.mark.region.offset, mark)
            && self.store(raw::tower_slot(run.r, 0), run.s)
            && self.store(raw::tower_slot(run.p, 0), run.f)
            && self.store(raw::tower_slot(self.new_head, 0), run.a);
        if moved {
            self.stats.moved += run.keys;
            self.stats.runs += 1;
        }
        moved
    }

    /// Moves the runs `plan` finds until it has none left (then clears the
    /// mark) or a limit fires.
    fn drain(&mut self, plan: &mut impl Iterator<Item = Run>) -> MergeOutcome {
        let mut runs = 0;
        let complete = loop {
            if self.limits.max_steps.is_some_and(|max| runs >= max) {
                break false;
            }
            match plan.next() {
                Some(run) if self.move_run(&run) => runs += 1,
                Some(_) => break false,
                None => break self.store(self.mark.region.offset, 0),
            }
        };
        match complete {
            true => MergeOutcome::Complete(self.stats),
            false => MergeOutcome::Paused(self.stats),
        }
    }

    /// Finishes the run in flight, if any (see the module docs), from
    /// level-0 walks. False if the crash limit fired.
    fn finish_in_flight(&mut self) -> bool {
        let pool = self.pool;
        let f = raw::next(pool, self.new_head, 0);
        let Some(mark) = self.mark.load() else {
            return true;
        };
        let a = if mark == END { 0 } else { mark };
        if a == f {
            return true;
        }
        // `p`: the newest node of the last oldtable key before `f`'s; `o`:
        // the first node at or after it.
        let (mut p, mut o) = (self.old_head, 0);
        for (key, node) in Heads::new(pool, raw::next(pool, self.old_head, 0)) {
            if key >= raw::key(pool, f) {
                o = node;
                break;
            }
            p = node;
        }
        if raw::next(pool, p, 0) != f {
            // Walk the run against the oldtable, `s` skipping the oldtable
            // keys it supersedes, until it meets `a` or joins at `s`.
            let (mut r, mut s) = (0, o);
            for (key, n) in Heads::new(pool, f) {
                if n == a || n == s {
                    break;
                }
                r = n;
                while s != 0 && raw::key(pool, s) == key {
                    s = raw::next(pool, s, 0);
                }
            }
            if !self.store(raw::tower_slot(r, 0), s) || !self.store(raw::tower_slot(p, 0), f) {
                return false;
            }
        }
        self.store(raw::tower_slot(self.new_head, 0), a)
    }
}

/// The newest node of every key of a level 0, in key order, from `first`:
/// the walk-fed planner's input. Each node read is charged as one visit.
struct Heads<'a> {
    pool: &'a PmemPool,
    next: u64,
    last: Option<&'a [u8]>,
}

impl<'a> Heads<'a> {
    fn new(pool: &'a PmemPool, first: u64) -> Self {
        Heads {
            pool,
            next: first,
            last: None,
        }
    }
}

impl<'a> Iterator for Heads<'a> {
    type Item = (&'a [u8], u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next != 0 {
            let node = self.next;
            raw::charge_visit(self.pool);
            let key = raw::key(self.pool, node);
            self.next = raw::next(self.pool, node, 0);
            if self.last != Some(key) {
                self.last = Some(key);
                return Some((key, node));
            }
        }
        None
    }
}

/// Merges the list rooted at `new_head` into the list rooted at
/// `old_head`, feeding the planner from level-0 walks of both. A run left
/// in flight by a crash ([`MergeLimits::abandon_after_link_writes`]) is
/// finished first (paper §4.7); so is an index-fed merge's.
pub fn zero_copy_merge(
    pool: &Arc<PmemPool>,
    new_head: u64,
    old_head: u64,
    mark: &InsertionMark,
    limits: MergeLimits,
) -> MergeOutcome {
    let mut exec = Exec::new(pool, new_head, old_head, mark);
    exec.limits = limits;
    if !exec.finish_in_flight() {
        return MergeOutcome::Paused(exec.stats);
    }
    let heads = |head| Heads::new(pool, raw::next(pool, head, 0));
    exec.drain(&mut Planner::new(
        heads(new_head),
        heads(old_head),
        old_head,
    ))
}

/// A zero-copy merge fed from the two tables' DRAM indexes: `new` and
/// `old` yield each key's newest node, in key order. It reads no NVM, and
/// keeps its cursors between calls, so a compactor that moves a bounded
/// number of runs per call never restarts from a head. It must start on
/// an unmerged pair; a crash is resumed by [`zero_copy_merge`].
pub struct RunMerge<'a, N: Iterator, O: Iterator> {
    exec: Exec<'a>,
    plan: Planner<N, O>,
}

impl<'a, 'k, N, O> RunMerge<'a, N, O>
where
    N: Iterator<Item = (&'k [u8], u64)>,
    O: Iterator<Item = (&'k [u8], u64)>,
{
    /// A merge of the table at `new_head`, whose newest nodes `new`
    /// yields, into the one at `old_head`, whose newest nodes `old` yields.
    pub fn new(
        pool: &'a PmemPool,
        new_head: u64,
        old_head: u64,
        mark: &'a InsertionMark,
        new: N,
        old: O,
    ) -> Self {
        debug_assert!(mark.load().is_none(), "a merge is already under way");
        RunMerge {
            exec: Exec::new(pool, new_head, old_head, mark),
            plan: Planner::new(new, old, old_head),
        }
    }

    /// Moves runs until the merge completes or a limit of `limits` fires;
    /// the stats are this call's.
    pub fn run(&mut self, limits: MergeLimits) -> MergeOutcome {
        (self.exec.limits, self.exec.stats) = (limits, MergeStats::default());
        self.exec.drain(&mut self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{SkipList, MAX_HEIGHT};
    use crate::SkipListArena;
    use miodb_common::{OpKind, Stats};
    use miodb_pmem::DeviceModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(
            16 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap()
    }

    fn table(pool: &Arc<PmemPool>, entries: &[(&[u8], &[u8], u64)]) -> SkipListArena {
        let t = SkipListArena::new(pool.clone(), 1 << 20).unwrap();
        for (k, v, s) in entries {
            t.insert(k, v, *s, OpKind::Put).unwrap();
        }
        t
    }

    /// The newest version of every key of the list at `head`, walked at
    /// level 0: `(key, value, seq, kind)`.
    fn newest(p: &Arc<PmemPool>, head: u64) -> Vec<(Vec<u8>, Vec<u8>, u64, OpKind)> {
        let list = SkipList::from_raw(p.clone(), head);
        let mut out: Vec<(Vec<u8>, Vec<u8>, u64, OpKind)> = Vec::new();
        for e in list.iter() {
            if out.last().is_none_or(|l| l.0 != e.key) {
                out.push((e.key, e.value, e.seq, e.kind));
            }
        }
        out
    }

    fn kv(p: &Arc<PmemPool>, head: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        newest(p, head).into_iter().map(|e| (e.0, e.1)).collect()
    }

    fn pairs(entries: &[(&[u8], &[u8])]) -> Vec<(Vec<u8>, Vec<u8>)> {
        entries
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    #[test]
    fn merge_disjoint_tables() {
        let p = pool();
        let new = table(&p, &[(b"b", b"2", 10), (b"d", b"4", 11)]);
        let old = table(&p, &[(b"a", b"1", 1), (b"c", b"3", 2)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert!(out.is_complete());
        assert_eq!((out.stats().moved, out.stats().runs), (2, 2));
        assert_eq!(
            kv(&p, old.head()),
            pairs(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3"), (b"d", b"4")])
        );
        assert!(new.list().is_empty());
        assert!(mark.load().is_none());
    }

    #[test]
    fn merge_dedups_overlapping_keys() {
        let p = pool();
        let new = table(&p, &[(b"a", b"new-a", 10), (b"b", b"new-b", 11)]);
        let old = table(
            &p,
            &[
                (b"a", b"old-a", 1),
                (b"b", b"old-b", 2),
                (b"c", b"old-c", 3),
            ],
        );
        let mark = InsertionMark::alloc(&p).unwrap();
        let stats = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none()).stats();
        // One run, `a` to `b`, between the head and `c`.
        assert_eq!((stats.moved, stats.runs), (2, 1));
        assert_eq!(
            kv(&p, old.head()),
            pairs(&[(b"a", b"new-a"), (b"b", b"new-b"), (b"c", b"old-c")])
        );
        assert_eq!(old.list().count_nodes(), 3, "old versions bypassed");
    }

    #[test]
    fn merge_dedups_within_newtable() {
        let p = pool();
        let new = table(&p, &[(b"k", b"v1", 5), (b"k", b"v2", 6), (b"k", b"v3", 7)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let stats = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none()).stats();
        assert_eq!((stats.moved, stats.runs), (1, 1));
        assert_eq!(kv(&p, old.head()), pairs(&[(b"k", b"v3")]));
        // The run's last key drops its older versions at `r.next := s`.
        assert_eq!(old.list().count_nodes(), 1);
    }

    #[test]
    fn merge_into_empty_old() {
        let p = pool();
        let new = table(&p, &[(b"x", b"1", 1), (b"y", b"2", 2), (b"z", b"3", 3)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert_eq!((out.stats().moved, out.stats().runs), (3, 1));
        assert_eq!(old.list().count_nodes(), 3);
    }

    #[test]
    fn merge_empty_new_is_noop() {
        let p = pool();
        let new = table(&p, &[]);
        let old = table(&p, &[(b"a", b"1", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        // Nothing moves; the one store is the mark's clear.
        assert_eq!(
            out.stats(),
            MergeStats {
                stores: 1,
                ..MergeStats::default()
            }
        );
        assert_eq!(old.list().count_nodes(), 1);
    }

    #[test]
    fn tombstones_flow_through_merge() {
        let p = pool();
        let new = SkipListArena::new(p.clone(), 1 << 20).unwrap();
        new.insert(b"dead", b"", 10, OpKind::Delete).unwrap();
        let old = table(&p, &[(b"dead", b"alive", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let merged = newest(&p, old.head());
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].2, merged[0].3), (10, OpKind::Delete));
    }

    #[test]
    fn paused_merge_resumes_cleanly() {
        let p = pool();
        // Every other key on each side: 100 one-key runs.
        let side = |odd: u32, seq0: u64| {
            let t = SkipListArena::new(p.clone(), 1 << 20).unwrap();
            for i in 0..100u32 {
                let key = format!("k{:03}", 2 * i + odd);
                t.insert(key.as_bytes(), b"v", seq0 + u64::from(i), OpKind::Put)
                    .unwrap();
            }
            t
        };
        let (new, old) = (side(0, 100), side(1, 0));
        let mark = InsertionMark::alloc(&p).unwrap();
        let mut total = MergeStats::default();
        let mut rounds = 0;
        loop {
            let out = zero_copy_merge(
                &p,
                new.head(),
                old.head(),
                &mark,
                MergeLimits {
                    max_steps: Some(7),
                    abandon_after_link_writes: None,
                },
            );
            total += out.stats();
            rounds += 1;
            if out.is_complete() {
                break;
            }
            assert!(rounds < 100, "merge did not converge");
        }
        assert_eq!((total.moved, total.runs), (100, 100));
        assert_eq!(rounds, 15);
        assert_eq!(old.list().count_nodes(), 200);
        assert!(mark.load().is_none());
    }

    #[test]
    fn crash_mid_step_resumes_without_loss() {
        // Abandon after every possible store count and verify the resumed
        // merge always converges to the same correct state.
        for crash_at in 0..40u64 {
            let p = pool();
            let new = table(
                &p,
                &[
                    (b"a", b"na", 10),
                    (b"b", b"nb", 11),
                    (b"c", b"nc", 12),
                    (b"d", b"nd", 13),
                ],
            );
            let old = table(&p, &[(b"a", b"oa", 1), (b"c", b"oc", 2), (b"e", b"oe", 3)]);
            let mark = InsertionMark::alloc(&p).unwrap();
            let crash = MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(crash_at),
            };
            if !zero_copy_merge(&p, new.head(), old.head(), &mark, crash).is_complete() {
                // "Restart": resume with no limits.
                let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
                assert!(out.is_complete(), "crash_at={crash_at}");
            }
            assert_eq!(
                kv(&p, old.head()),
                pairs(&[
                    (b"a", b"na"),
                    (b"b", b"nb"),
                    (b"c", b"nc"),
                    (b"d", b"nd"),
                    (b"e", b"oe")
                ]),
                "crash_at={crash_at}"
            );
            assert_eq!(old.list().count_nodes(), 5, "crash_at={crash_at}");
            assert!(mark.load().is_none(), "crash_at={crash_at}");
            assert!(new.list().is_empty());
        }
    }

    // ---- Random inputs, both feeds, every crash point ------------------

    /// The stores this thread's merges made since the last call.
    fn take_stores() -> Vec<(u64, u64)> {
        STORES.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }

    /// One node of a test table: key number, seq, kind, tower height.
    type Spec = (u32, u64, OpKind, usize);

    /// p = 1/4 towers, with the two extremes over-represented.
    fn tower(r: &mut StdRng) -> usize {
        match r.gen_range(0..16u32) {
            0 => MAX_HEIGHT,
            1 | 2 => 1,
            _ => {
                let mut h = 1;
                while h < MAX_HEIGHT && r.gen_range(0..4u32) == 0 {
                    h += 1;
                }
                h
            }
        }
    }

    /// `n` nodes over keys `lo..hi`: up to three versions of a key (in-table
    /// duplicates), one node in eight a tombstone, seqs from `seq0` up.
    fn random_table(r: &mut StdRng, n: usize, lo: u32, hi: u32, seq0: u64) -> Vec<Spec> {
        let mut spec = Vec::new();
        let mut seq = seq0;
        while spec.len() < n {
            let key = r.gen_range(lo..hi);
            for _ in 0..1 + r.gen_range(0..8u32) / 6 {
                let kind = if r.gen_range(0..8u32) == 0 {
                    OpKind::Delete
                } else {
                    OpKind::Put
                };
                spec.push((key, seq, kind, tower(r)));
                seq += 1;
            }
        }
        spec
    }

    struct Pair {
        pool: Arc<PmemPool>,
        new_head: u64,
        old_head: u64,
        mark: InsertionMark,
    }

    /// A fresh pool holding the two tables and a mark; building the same
    /// specs twice gives byte-identical pools.
    fn build_pair(new: &[Spec], old: &[Spec]) -> Pair {
        let pool = PmemPool::new(
            2 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        let heads: Vec<u64> = [new, old]
            .iter()
            .map(|spec| {
                let t = SkipListArena::new(pool.clone(), 512 << 10).unwrap();
                for &(key, seq, kind, height) in spec.iter() {
                    let k = format!("key{key:06}");
                    t.insert_with_height(k.as_bytes(), b"v", seq, kind, height)
                        .unwrap();
                }
                t.head()
            })
            .collect();
        let mark = InsertionMark::alloc(&pool).unwrap();
        // The arenas are dropped unretired: their memory stays in the pool.
        Pair {
            pool,
            new_head: heads[0],
            old_head: heads[1],
            mark,
        }
    }

    /// Each key's newest node of the list at `head`, as an index holds it.
    fn entries(p: &Arc<PmemPool>, head: u64) -> Vec<(Vec<u8>, u64)> {
        let heads = Heads::new(p, raw::next(p, head, 0));
        heads.map(|(k, n)| (k.to_vec(), n)).collect()
    }

    fn view(e: &[(Vec<u8>, u64)]) -> impl Iterator<Item = (&[u8], u64)> + '_ {
        e.iter().map(|(k, n)| (k.as_slice(), *n))
    }

    /// The merge of `pair` fed from DRAM copies of both inputs' newest
    /// nodes, in windows of `limits`, until complete; the summed stats.
    /// Asserts that it reads no NVM, and writes 8 bytes a store.
    fn index_fed(pair: &Pair, limits: MergeLimits) -> MergeStats {
        let (new, old) = (
            entries(&pair.pool, pair.new_head),
            entries(&pair.pool, pair.old_head),
        );
        let mut merge = RunMerge::new(
            &pair.pool,
            pair.new_head,
            pair.old_head,
            &pair.mark,
            view(&new),
            view(&old),
        );
        let before = pair.pool.stats().snapshot();
        let mut total = MergeStats::default();
        loop {
            let out = merge.run(limits);
            total += out.stats();
            if out.is_complete() {
                let io = pair.pool.stats().snapshot().diff(&before);
                assert_eq!(io.nvm_bytes_read, 0, "an index-fed merge reads nothing");
                assert_eq!(io.nvm_bytes_written, 8 * total.stores);
                return total;
            }
        }
    }

    type Drive = fn(&Pair, MergeLimits) -> MergeStats;

    /// [`zero_copy_merge`] in windows of `limits` until complete.
    fn walk_fed(pair: &Pair, limits: MergeLimits) -> MergeStats {
        let mut total = MergeStats::default();
        loop {
            let out = zero_copy_merge(&pair.pool, pair.new_head, pair.old_head, &pair.mark, limits);
            total += out.stats();
            if out.is_complete() {
                return total;
            }
        }
    }

    /// Level 0 of the list at `head` as (key, seq), asserting it strictly
    /// ascends in multi-version order.
    fn level0(p: &Arc<PmemPool>, head: u64) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = Vec::new();
        let mut cur = raw::next(p, head, 0);
        while cur != 0 {
            let key = std::str::from_utf8(&raw::key(p, cur)[3..])
                .unwrap()
                .parse()
                .unwrap();
            let node = (key, raw::seq(p, cur));
            if let Some(&(k, s)) = out.last() {
                assert!(k < key || (k == key && s > node.1), "level 0 out of order");
            }
            out.push(node);
            cur = raw::next(p, cur, 0);
        }
        out
    }

    /// The newest version per key of the merged table, level 0 walked.
    fn newest_per_key(p: &Arc<PmemPool>, head: u64) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = Vec::new();
        for (k, s) in level0(p, head) {
            if out.last().is_none_or(|&(last, _)| last != k) {
                out.push((k, s));
            }
        }
        out
    }

    /// What the merge must hold: every key's newest version, the
    /// newtable's over the oldtable's.
    fn model(new: &[Spec], old: &[Spec]) -> Vec<(u32, u64)> {
        let mut m: BTreeMap<u32, u64> = BTreeMap::new();
        for side in [old, new] {
            let mut newest: BTreeMap<u32, u64> = BTreeMap::new();
            for &(k, s, ..) in side {
                let e = newest.entry(k).or_insert(s);
                *e = (*e).max(s);
            }
            m.extend(newest);
        }
        m.into_iter().collect()
    }

    /// Seeded table pairs in every relative position: the newtable wholly
    /// above, wholly below, interleaved with and equal in range to the
    /// oldtable; newer and older than it; empty on either side.
    fn shapes() -> Vec<(Vec<Spec>, Vec<Spec>)> {
        let mut pairs = Vec::new();
        for seed in 1..=6u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let n = r.gen_range(40..240usize);
            let m = r.gen_range(40..240usize);
            for (new_range, old_range) in [
                ((1000, 1400), (0, 400)), // wholly above
                ((0, 400), (1000, 1400)), // wholly below
                ((0, 400), (0, 400)),     // same keys both sides
                ((0, 4000), (0, 4000)),   // interleaved, few shared keys
                ((100, 160), (0, 400)),   // a dense clump inside
            ] {
                let old = random_table(&mut r, m, old_range.0, old_range.1, 1);
                let new = random_table(&mut r, n, new_range.0, new_range.1, 10_000);
                pairs.push((new, old));
            }
            // A newtable *older* than the oldtable still wins its keys.
            pairs.push((
                random_table(&mut r, n, 0, 300, 1),
                random_table(&mut r, m, 0, 300, 10_000),
            ));
            pairs.push((random_table(&mut r, n, 0, 300, 1), Vec::new()));
            pairs.push((Vec::new(), random_table(&mut r, m, 0, 300, 1)));
        }
        pairs
    }

    #[test]
    fn index_fed_merge_makes_the_stores_of_a_walk_fed_merge() {
        let mut seen = MergeStats::default();
        for (i, (new, old)) in shapes().iter().enumerate() {
            let (a, b) = (build_pair(new, old), build_pair(new, old));
            take_stores();
            let walked = walk_fed(&a, MergeLimits::none());
            let walk_stores = take_stores();
            let indexed = index_fed(&b, MergeLimits::none());
            assert_eq!(walked, indexed, "pair {i}");
            assert_eq!(walk_stores, take_stores(), "pair {i}");
            // Three link words and the mark a run, the mark's clear a merge.
            let bytes = 32 * indexed.runs + 8;
            assert_eq!(8 * indexed.stores, bytes, "pair {i}");
            assert_eq!(level0(&a.pool, a.old_head), level0(&b.pool, b.old_head));
            assert_eq!(
                newest_per_key(&a.pool, a.old_head),
                model(new, old),
                "pair {i}"
            );
            assert_eq!(raw::next(&a.pool, a.new_head, 0), 0);
            seen += indexed;
        }
        // The shapes did exercise every branch of a run.
        assert!(seen.moved > 1000 && seen.runs < seen.moved);
    }

    #[test]
    fn one_step_windows_equal_one_unlimited_call() {
        // The stores do not change with where the windows fall, nor with
        // whether a window restarts from the heads (walk-fed) or keeps its
        // cursors (index-fed).
        for (i, (new, old)) in shapes().iter().enumerate().step_by(3) {
            take_stores();
            let whole = walk_fed(&build_pair(new, old), MergeLimits::none());
            let stores = take_stores();
            for window in [1, 7] {
                let limits = MergeLimits {
                    max_steps: Some(window),
                    abandon_after_link_writes: None,
                };
                for drive in [walk_fed as Drive, index_fed] {
                    let stepped = drive(&build_pair(new, old), limits);
                    assert_eq!(stepped, whole, "pair {i}, {window}-run windows");
                    assert_eq!(take_stores(), stores, "pair {i}, {window}-run windows");
                }
            }
        }
    }

    /// Whether a run of the merge of `pair` is in flight: the mark is set
    /// and names another newtable front than the head's.
    fn in_flight(pair: &Pair) -> bool {
        let front = raw::next(&pair.pool, pair.new_head, 0);
        pair.mark
            .load()
            .is_some_and(|m| m != front && !(m == END && front == 0))
    }

    /// Small pairs that put runs at both ends, superseded oldtable keys,
    /// in-table duplicates and tombstones on both sides, full overlap and
    /// an empty side under every crash point.
    fn crash_shapes() -> Vec<(Vec<Spec>, Vec<Spec>)> {
        let mut r = StdRng::seed_from_u64(0xC0FFEE);
        let mut new = random_table(&mut r, 40, 0, 60, 10_000);
        let mut old = random_table(&mut r, 40, 5, 55, 1);
        for k in [0, 17, 59] {
            new.push((k, 20_000, OpKind::Put, 2));
            new.push((k, 19_000, OpKind::Delete, MAX_HEIGHT));
            old.push((k, 5_000, OpKind::Put, MAX_HEIGHT));
            old.push((k, 4_000, OpKind::Put, 1));
        }
        let same: Vec<u32> = (0..20).collect();
        let side = |seq0: u64| -> Vec<Spec> {
            same.iter()
                .map(|&k| (k, seq0 + u64::from(k), OpKind::Put, 1))
                .collect()
        };
        vec![
            (new, old),
            (side(1000), side(1)), // full overlap: one run
            (random_table(&mut r, 30, 0, 40, 100), Vec::new()),
            (Vec::new(), random_table(&mut r, 30, 0, 40, 1)),
            (
                random_table(&mut r, 30, 0, 400, 1000),
                random_table(&mut r, 30, 0, 400, 1),
            ),
        ]
    }

    /// The first call of a merge of `pair`, index-fed or walk-fed.
    fn first_call(pair: &Pair, indexed: bool, limits: MergeLimits) -> MergeOutcome {
        if !indexed {
            return zero_copy_merge(&pair.pool, pair.new_head, pair.old_head, &pair.mark, limits);
        }
        let (new, old) = (
            entries(&pair.pool, pair.new_head),
            entries(&pair.pool, pair.old_head),
        );
        let mut merge = RunMerge::new(
            &pair.pool,
            pair.new_head,
            pair.old_head,
            &pair.mark,
            view(&new),
            view(&old),
        );
        merge.run(limits)
    }

    fn crash_after(stores: u64) -> MergeLimits {
        MergeLimits {
            max_steps: None,
            abandon_after_link_writes: Some(stores),
        }
    }

    #[test]
    fn crash_at_every_link_write_resumes_to_the_same_table() {
        for (i, (new, old)) in crash_shapes().iter().enumerate() {
            let whole = build_pair(new, old);
            take_stores();
            let stats = walk_fed(&whole, MergeLimits::none());
            let mut expect_stores = take_stores();
            expect_stores.dedup();
            let expect = level0(&whole.pool, whole.old_head);
            assert_eq!(newest_per_key(&whole.pool, whole.old_head), model(new, old));
            assert_eq!(stats.stores, 4 * stats.runs + 1);
            for crash_at in 0..stats.stores {
                // A second crash, in the resume, for the first few stores
                // of a run finished from its mark.
                for (indexed, again) in [
                    (false, None),
                    (true, None),
                    (true, Some(1)),
                    (false, Some(2)),
                ] {
                    let case = format!("pair {i}, crash_at={crash_at}, {indexed}, {again:?}");
                    let pair = build_pair(new, old);
                    take_stores();
                    let out = first_call(&pair, indexed, crash_after(crash_at));
                    assert!(!out.is_complete(), "{case}");
                    assert_eq!(out.stats().stores, crash_at, "{case}");
                    // The mark's store opens a run, the head's closes it.
                    assert_eq!(in_flight(&pair), crash_at % 4 != 0, "{case}");
                    if let Some(j) = again {
                        zero_copy_merge(
                            &pair.pool,
                            pair.new_head,
                            pair.old_head,
                            &pair.mark,
                            crash_after(j),
                        );
                    }
                    // "Restart": everything a new call knows is in the pool.
                    let resumed = zero_copy_merge(
                        &pair.pool,
                        pair.new_head,
                        pair.old_head,
                        &pair.mark,
                        MergeLimits::none(),
                    );
                    assert!(resumed.is_complete(), "{case}");
                    // The calls made the uninterrupted merge's stores, in
                    // its order; a resume repeats at most the store the
                    // crash left in place.
                    let mut both = take_stores();
                    both.dedup();
                    assert_eq!(both, expect_stores, "{case}");
                    assert_eq!(level0(&pair.pool, pair.old_head), expect, "{case}");
                    assert_eq!(raw::next(&pair.pool, pair.new_head, 0), 0, "{case}");
                    assert!(pair.mark.load().is_none(), "{case}");
                }
            }
        }
    }
}
