//! Zero-copy compaction: merging two PMTables by pointer re-linking only.
//!
//! Implements §4.3 of the paper. The *newtable* (younger) is drained node
//! by node into the *oldtable* (older); no KV bytes move. For each run of
//! same-key versions at the front of the newtable:
//!
//! 1. the newest node `n` is recorded in the persistent [`InsertionMark`]
//!    (phase `Unlink`),
//! 2. the older duplicates behind it are unlinked and dropped (they are
//!    superseded by `n`),
//! 3. `n` is unlinked from the newtable,
//! 4. the mark advances to phase `Splice` and `n` is spliced into the
//!    oldtable at its multi-version position, bypassing any older
//!    duplicates already there,
//! 5. the mark is cleared.
//!
//! All link updates are single atomic release stores, so concurrent
//! readers never block; an iterator that merges **newtable → mark →
//! oldtable** (the mark's node through [`InsertionMark::entry`]) observes
//! every node at every instant of the merge (paper §4.3, cases 1–2). Point
//! lookups need none of this: the engine answers them through each input's
//! exact DRAM index, which no merge step can invalidate, since node
//! payloads never change.
//!
//! Unlinked nodes keep their outgoing pointers, so a reader standing on one
//! continues traversing correctly; their memory is reclaimed only by the
//! later lazy-copy compaction (lazy freeing, §4.4).
//!
//! The merge is **resumable**: if the process dies mid-step (simulated via
//! [`MergeLimits::abandon_after_link_writes`] plus a pool snapshot),
//! re-running [`zero_copy_merge`] first completes the marked node's step —
//! every sub-operation is idempotent — then continues draining.
//!
//! # The finger
//!
//! Nodes leave the newtable front to back, so the oldtable positions they
//! are spliced at only ever move forward. A call therefore searches from
//! the head once, for its first splice, and afterwards resumes each search
//! from the previous splice's predecessors (`find_preds_from`): the cost of
//! a step follows the distance between two consecutive newtable keys in the
//! oldtable, not the oldtable's depth. Unlinking needs no search at all —
//! the node being unlinked is the newtable's front node or a same-key
//! duplicate right behind it. What the finger relies on:
//!
//! - **Keys strictly ascend** from one splice to the next: the front
//!   duplicates of a key are dropped before its newest version moves, so
//!   the next front node has a greater key.
//! - **Every finger entry sorts before every later key.** The finger is
//!   the `preds` of the last search with the spliced node written into the
//!   levels its tower reaches — the last node of each level at or before
//!   the node just moved.
//! - **Nothing unlinked is a finger entry.** Bypassed oldtable duplicates
//!   sort *after* the spliced node, and newtable nodes are never entries.
//! - **The finger is volatile.** It lives in the call's stack frame, never
//!   in NVM: the crash prelude, every resumed [`MergeOutcome::Paused`] and
//!   every window of an incremental compactor starts from the head, so the
//!   mark protocol and §4.7 resumability are exactly what they were.
//!
//! The finger changes which nodes the merge *reads*; the sequence of link
//! and mark stores — all a reader or a crash can observe — is that of a
//! merge locating every node by head search (the tests hold the two
//! sequences equal).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use miodb_common::Result;
use miodb_pmem::{PmemPool, PmemRegion};

use crate::node::{find_preds, find_preds_from, raw, MAX_HEIGHT};

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

/// Merge progress phase, persisted in the low bits of the mark word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePhase {
    /// The marked node is being unlinked from the newtable.
    Unlink = 0,
    /// The marked node is being spliced into the oldtable.
    Splice = 1,
}

/// A persistent one-word slot naming the node currently in flight between
/// the two tables of a zero-copy merge.
///
/// Scans materialize its node ([`InsertionMark::entry`]) between the
/// newtable and the oldtable so the in-flight node is never missed. The
/// slot lives in NVM, making merges crash-resumable.
#[derive(Clone)]
pub struct InsertionMark {
    pool: Arc<PmemPool>,
    region: PmemRegion,
}

impl std::fmt::Debug for InsertionMark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InsertionMark")
            .field("slot", &self.region.offset)
            .field("value", &self.load_raw())
            .finish()
    }
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

    fn load_raw(&self) -> u64 {
        self.pool
            .atomic_u64(self.region.offset)
            .load(Ordering::Acquire)
    }

    /// Current marked node and phase, if a merge step is in flight.
    pub fn load(&self) -> Option<(u64, MergePhase)> {
        let v = self.load_raw();
        if v == 0 {
            None
        } else {
            let phase = if v & 1 == 0 {
                MergePhase::Unlink
            } else {
                MergePhase::Splice
            };
            Some((v & !7, phase))
        }
    }

    fn set(&self, node: u64, phase: MergePhase) {
        debug_assert_eq!(node & 7, 0);
        self.pool
            .atomic_u64(self.region.offset)
            .store(node | phase as u64, Ordering::Release);
        record_store(self.region.offset, node | phase as u64);
        self.pool.charge_write(8);
    }

    fn clear(&self) {
        self.pool
            .atomic_u64(self.region.offset)
            .store(0, Ordering::Release);
        record_store(self.region.offset, 0);
        // Bump the step counter (second word of the slot): readers use it
        // to detect that a merge step completed during their descent.
        let steps = self
            .pool
            .atomic_u64(self.region.offset + 8)
            .fetch_add(1, Ordering::Release);
        record_store(self.region.offset + 8, steps + 1);
        self.pool.charge_write(16);
    }

    /// Number of completed merge steps through this mark (monotonic).
    pub fn step_count(&self) -> u64 {
        self.pool
            .atomic_u64(self.region.offset + 8)
            .load(Ordering::Acquire)
    }

    /// Materializes the in-flight node (key included) as an owned entry,
    /// for merging iterators that must not miss it.
    pub fn entry(&self) -> Option<crate::iter::OwnedEntry> {
        let (node, _) = self.load()?;
        let pool = &*self.pool;
        raw::charge_visit(pool);
        Some(crate::iter::OwnedEntry {
            key: raw::key(pool, node).to_vec(),
            value: raw::value(pool, node).to_vec(),
            seq: raw::seq(pool, node),
            kind: raw::kind(pool, node),
        })
    }

    /// Frees the slot. Callers must ensure no merge is using it.
    pub fn release(self) {
        self.pool.free(self.region);
    }
}

/// Counters describing one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Nodes re-linked from the newtable into the oldtable.
    pub moved: u64,
    /// Newtable nodes dropped because a newer version superseded them.
    pub dropped_new: u64,
    /// Oldtable nodes bypassed (logically deleted) by newer versions.
    pub bypassed_old: u64,
    /// Atomic link-word writes performed.
    pub link_writes: u64,
}

impl std::ops::AddAssign for MergeStats {
    /// Adds the counters of a later call on the same pair of tables.
    fn add_assign(&mut self, later: MergeStats) {
        self.moved += later.moved;
        self.dropped_new += later.dropped_new;
        self.bypassed_old += later.bypassed_old;
        self.link_writes += later.link_writes;
    }
}

/// Result of [`zero_copy_merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The newtable was fully drained into the oldtable.
    Complete(MergeStats),
    /// A limit fired; call [`zero_copy_merge`] again to continue.
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
    /// Stop (cleanly, between steps) after this many key runs.
    pub max_steps: Option<usize>,
    /// Abandon abruptly after this many link writes, leaving the mark and
    /// half-updated pointers in place — simulates a crash mid-step.
    pub abandon_after_link_writes: Option<u64>,
}

impl MergeLimits {
    /// No limits: run to completion.
    pub fn none() -> MergeLimits {
        MergeLimits::default()
    }
}

struct Ctx<'a> {
    pool: &'a PmemPool,
    stats: MergeStats,
    limits: MergeLimits,
    /// The finger: `preds` of the oldtable position just behind the last
    /// node this call spliced. `None` until the call's first splice, which
    /// seeds it with a head search. DRAM-only — see the module docs.
    finger: Option<[u64; MAX_HEIGHT]>,
    /// Locate by head search everywhere, as the merge did before it had a
    /// finger: the reference the finger is tested against.
    #[cfg(test)]
    reference: bool,
}

impl<'a> Ctx<'a> {
    fn new(pool: &'a PmemPool, limits: MergeLimits) -> Ctx<'a> {
        Ctx {
            pool,
            stats: MergeStats::default(),
            limits,
            finger: None,
            #[cfg(test)]
            reference: false,
        }
    }

    /// Performs one atomic link write; returns false if the crash limit
    /// fired (caller must unwind immediately without cleanup).
    #[must_use]
    fn store_link(&mut self, node: u64, level: usize, target: u64) -> bool {
        if let Some(max) = self.limits.abandon_after_link_writes {
            if self.stats.link_writes >= max {
                return false;
            }
        }
        raw::set_next(self.pool, node, level, target);
        record_store(raw::tower_slot(node, level), target);
        self.stats.link_writes += 1;
        true
    }

    /// Unlinks `node` — the newtable's front node `first` or a same-key
    /// duplicate right behind it — at every level that still links it.
    /// Idempotent, and needs no search: `first` is all that precedes
    /// `node`, so the predecessor is `first` where that tower reaches and
    /// the head above (the head everywhere for `first` itself).
    #[must_use]
    fn unlink(&mut self, new_head: u64, first: u64, node: u64) -> bool {
        #[cfg(test)]
        if self.reference {
            return self.unlink_by_search(new_head, node);
        }
        let pool = self.pool;
        let reach = if node == first {
            0
        } else {
            raw::height(pool, first)
        };
        for level in (0..raw::height(pool, node)).rev() {
            let pred = if level < reach { first } else { new_head };
            if raw::next(pool, pred, level) == node {
                let succ = raw::next(pool, node, level);
                if !self.store_link(pred, level, succ) {
                    return false;
                }
            }
        }
        true
    }

    /// Unlinks and drops every node after `first` at the newtable front
    /// that shares its key (they are older versions, superseded by
    /// `first`). The older duplicates are removed *before* `first` so that
    /// a concurrent reader searching newtable→mark→oldtable always finds
    /// the newest version first. Returns false if the crash limit fired.
    #[must_use]
    fn drop_front_duplicates(&mut self, new_head: u64, first: u64) -> bool {
        let pool = self.pool;
        let key = raw::key(pool, first);
        loop {
            // An unlinked duplicate leaves `first`'s level-0 link on the
            // next one.
            let dup = raw::next(pool, first, 0);
            if dup == 0 || raw::key(pool, dup) != key {
                return true;
            }
            raw::charge_visit(pool);
            if !self.unlink(new_head, first, dup) {
                return false;
            }
            self.stats.dropped_new += 1;
        }
    }

    /// Splices `node` into the oldtable at its multi-version position,
    /// dropping it if a newer version already exists there and bypassing
    /// older duplicates. Idempotent. Leaves the finger just behind `node`.
    #[must_use]
    fn splice(&mut self, old_head: u64, node: u64) -> bool {
        #[cfg(test)]
        if self.reference {
            self.finger = None;
        }
        let pool = self.pool;
        let key = raw::key(pool, node);
        let seq = raw::seq(pool, node);
        let height = raw::height(pool, node);
        let mut preds = [0u64; MAX_HEIGHT];
        match &self.finger {
            Some(from) => find_preds_from(pool, from, key, seq, &mut preds),
            None => find_preds(pool, old_head, key, seq, &mut preds),
        };

        // A same-key predecessor is necessarily newer (multi-version order):
        // the incoming node is superseded and dropped.
        if preds[0] != old_head && raw::key(pool, preds[0]) == key {
            self.stats.dropped_new += 1;
            self.finger = Some(preds);
            return true;
        }

        // Bypass older duplicates already in the oldtable. They sit directly
        // after the insertion position (or after `node` itself on resume),
        // and keep their own links once bypassed, so the walk goes through
        // them.
        let mut dup = raw::next(pool, preds[0], 0);
        while dup != 0 {
            if dup != node {
                if raw::key(pool, dup) != key {
                    break;
                }
                raw::charge_visit(pool);
                for level in (0..raw::height(pool, dup)).rev() {
                    // The predecessor of `dup` at this level is either the
                    // already-spliced `node` or the position predecessor.
                    let pred = if level < height && raw::next(pool, node, level) == dup {
                        node
                    } else if raw::next(pool, preds[level], level) == dup {
                        preds[level]
                    } else {
                        continue;
                    };
                    let succ = raw::next(pool, dup, level);
                    if !self.store_link(pred, level, succ) {
                        return false;
                    }
                }
                self.stats.bypassed_old += 1;
            }
            dup = raw::next(pool, dup, 0);
        }

        // Link bottom-up so the node becomes reachable at level 0 first.
        #[allow(clippy::needless_range_loop)] // level indexes preds AND towers
        for level in 0..height {
            let succ = raw::next(pool, preds[level], level);
            if succ == node {
                continue; // already linked here (resume)
            }
            if !self.store_link(node, level, succ) {
                return false;
            }
            if !self.store_link(preds[level], level, node) {
                return false;
            }
        }
        self.stats.moved += 1;
        preds[..height].fill(node);
        self.finger = Some(preds);
        true
    }

    /// Carries the marked `node` from `phase` to the end of its step.
    /// Returns false if the crash limit fired.
    #[must_use]
    fn step(
        &mut self,
        new_head: u64,
        old_head: u64,
        mark: &InsertionMark,
        node: u64,
        phase: MergePhase,
    ) -> bool {
        // The mover's own device read: the node's header and key. Where it
        // goes is read by the search in `splice`.
        raw::charge_visit(self.pool);
        if phase == MergePhase::Unlink {
            // Older duplicates of the marked node may still sit at the
            // newtable front; drop them first, then unlink the node itself.
            if !self.drop_front_duplicates(new_head, node) || !self.unlink(new_head, node, node) {
                return false;
            }
            mark.set(node, MergePhase::Splice);
        }
        if !self.splice(old_head, node) {
            return false;
        }
        mark.clear();
        true
    }

    fn run(&mut self, new_head: u64, old_head: u64, mark: &InsertionMark) -> MergeOutcome {
        // Crash-recovery prelude: finish the marked node's step.
        if let Some((node, phase)) = mark.load() {
            if !self.step(new_head, old_head, mark, node, phase) {
                return MergeOutcome::Paused(self.stats);
            }
        }
        let mut steps = 0usize;
        loop {
            if self.limits.max_steps.is_some_and(|max| steps >= max) {
                return MergeOutcome::Paused(self.stats);
            }
            let first = raw::next(self.pool, new_head, 0);
            if first == 0 {
                return MergeOutcome::Complete(self.stats);
            }
            mark.set(first, MergePhase::Unlink);
            if !self.step(new_head, old_head, mark, first, MergePhase::Unlink) {
                return MergeOutcome::Paused(self.stats);
            }
            steps += 1;
        }
    }
}

/// Merges the list rooted at `new_head` into the list rooted at
/// `old_head` by pointer re-linking, using `mark` for reader visibility
/// and crash resumability. See the module docs for the step protocol.
///
/// If `mark` is set on entry, the interrupted step is completed first
/// (crash recovery, paper §4.7).
pub fn zero_copy_merge(
    pool: &Arc<PmemPool>,
    new_head: u64,
    old_head: u64,
    mark: &InsertionMark,
    limits: MergeLimits,
) -> MergeOutcome {
    Ctx::new(pool, limits).run(new_head, old_head, mark)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SkipList;
    use crate::SkipListArena;
    use miodb_common::{OpKind, Stats};
    use miodb_pmem::{DeviceModel, PmemPool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn merged_view(pool: &Arc<PmemPool>, old: &SkipListArena) -> SkipList {
        SkipList::from_raw(pool.clone(), old.head())
    }

    #[test]
    fn merge_disjoint_tables() {
        let p = pool();
        let new = table(&p, &[(b"b", b"2", 10), (b"d", b"4", 11)]);
        let old = table(&p, &[(b"a", b"1", 1), (b"c", b"3", 2)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert!(out.is_complete());
        assert_eq!(out.stats().moved, 2);
        assert_eq!(out.stats().dropped_new, 0);
        let m = merged_view(&p, &old);
        let keys: Vec<Vec<u8>> = m.iter().map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        assert!(SkipList::from_raw(p.clone(), new.head()).is_empty());
        assert!(mark.load().is_none());
    }

    #[test]
    fn merge_dedups_overlapping_keys() {
        let p = pool();
        // Newtable strictly newer.
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
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let stats = out.stats();
        assert_eq!(stats.moved, 2);
        assert_eq!(stats.bypassed_old, 2);
        let m = merged_view(&p, &old);
        assert_eq!(m.get(b"a").unwrap().value, b"new-a");
        assert_eq!(m.get(b"b").unwrap().value, b"new-b");
        assert_eq!(m.get(b"c").unwrap().value, b"old-c");
        assert_eq!(m.count_nodes(), 3, "old duplicates bypassed");
    }

    #[test]
    fn merge_dedups_within_newtable() {
        let p = pool();
        let new = table(&p, &[(b"k", b"v1", 5), (b"k", b"v2", 6), (b"k", b"v3", 7)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let stats = out.stats();
        assert_eq!(stats.moved, 1);
        assert_eq!(stats.dropped_new, 2);
        let m = merged_view(&p, &old);
        assert_eq!(m.get(b"k").unwrap().value, b"v3");
        assert_eq!(m.count_nodes(), 1);
    }

    #[test]
    fn merge_into_empty_old() {
        let p = pool();
        let new = table(&p, &[(b"x", b"1", 1), (b"y", b"2", 2), (b"z", b"3", 3)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert_eq!(out.stats().moved, 3);
        assert_eq!(merged_view(&p, &old).count_nodes(), 3);
    }

    #[test]
    fn merge_empty_new_is_noop() {
        let p = pool();
        let new = table(&p, &[]);
        let old = table(&p, &[(b"a", b"1", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert_eq!(out.stats(), MergeStats::default());
        assert_eq!(merged_view(&p, &old).count_nodes(), 1);
    }

    #[test]
    fn tombstones_flow_through_merge() {
        let p = pool();
        let new = SkipListArena::new(p.clone(), 1 << 20).unwrap();
        new.insert(b"dead", b"", 10, OpKind::Delete).unwrap();
        let old = table(&p, &[(b"dead", b"alive", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let r = merged_view(&p, &old).get(b"dead").unwrap();
        assert_eq!(r.kind, OpKind::Delete);
        assert_eq!(r.seq, 10);
    }

    #[test]
    fn paused_merge_resumes_cleanly() {
        let p = pool();
        let entries: Vec<(Vec<u8>, Vec<u8>, u64)> = (0..100u32)
            .map(|i| {
                (
                    format!("k{i:03}").into_bytes(),
                    b"v".to_vec(),
                    100 + i as u64,
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8], u64)> = entries
            .iter()
            .map(|(k, v, s)| (k.as_slice(), v.as_slice(), *s))
            .collect();
        let new = table(&p, &refs);
        let old = table(&p, &[(b"k050x", b"mid", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let mut total_moved = 0;
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
            total_moved += out.stats().moved;
            rounds += 1;
            if out.is_complete() {
                break;
            }
            assert!(rounds < 100, "merge did not converge");
        }
        assert_eq!(total_moved, 100);
        let m = merged_view(&p, &old);
        assert_eq!(m.count_nodes(), 101);
        for i in 0..100u32 {
            assert!(
                m.get(format!("k{i:03}").as_bytes()).is_some(),
                "k{i:03} lost"
            );
        }
    }

    #[test]
    fn crash_mid_step_resumes_without_loss() {
        // Abandon after every possible link-write count and verify the
        // resumed merge always converges to the same correct state.
        for crash_at in 1..60u64 {
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
            let out = zero_copy_merge(
                &p,
                new.head(),
                old.head(),
                &mark,
                MergeLimits {
                    max_steps: None,
                    abandon_after_link_writes: Some(crash_at),
                },
            );
            if out.is_complete() {
                // crash_at beyond total writes: nothing to resume.
            } else {
                // "Restart": resume with no limits.
                let out2 = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
                assert!(out2.is_complete(), "crash_at={crash_at}");
            }
            let m = merged_view(&p, &old);
            assert_eq!(m.get(b"a").unwrap().value, b"na", "crash_at={crash_at}");
            assert_eq!(m.get(b"b").unwrap().value, b"nb", "crash_at={crash_at}");
            assert_eq!(m.get(b"c").unwrap().value, b"nc", "crash_at={crash_at}");
            assert_eq!(m.get(b"d").unwrap().value, b"nd", "crash_at={crash_at}");
            assert_eq!(m.get(b"e").unwrap().value, b"oe", "crash_at={crash_at}");
            assert_eq!(m.count_nodes(), 5, "crash_at={crash_at}");
            assert!(mark.load().is_none(), "crash_at={crash_at}");
            assert!(SkipList::from_raw(p.clone(), new.head()).is_empty());
        }
    }

    // ---- The finger against the head search it replaced ----------------

    impl Ctx<'_> {
        /// `unlink` as it was before the finger: a head search of the
        /// newtable for a node that is, by construction, at its front.
        pub(super) fn unlink_by_search(&mut self, head: u64, node: u64) -> bool {
            let pool = self.pool;
            let mut preds = [0u64; MAX_HEIGHT];
            find_preds(
                pool,
                head,
                raw::key(pool, node),
                raw::seq(pool, node),
                &mut preds,
            );
            for level in (0..raw::height(pool, node)).rev() {
                if raw::next(pool, preds[level], level) == node {
                    let succ = raw::next(pool, node, level);
                    if !self.store_link(preds[level], level, succ) {
                        return false;
                    }
                }
            }
            true
        }
    }

    /// `zero_copy_merge` with every node located by head search.
    fn reference_merge(
        pool: &Arc<PmemPool>,
        new_head: u64,
        old_head: u64,
        mark: &InsertionMark,
        limits: MergeLimits,
    ) -> MergeOutcome {
        let mut ctx = Ctx::new(pool, limits);
        ctx.reference = true;
        ctx.run(new_head, old_head, mark)
    }

    type Merge = fn(&Arc<PmemPool>, u64, u64, &InsertionMark, MergeLimits) -> MergeOutcome;

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

    /// `n` nodes over keys `lo..hi`: up to three versions of a key, one
    /// node in eight a tombstone, seqs from `seq0` up.
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

    /// A fresh pool holding the two tables and a mark; building the same
    /// specs twice gives byte-identical pools.
    fn build_pair(new: &[Spec], old: &[Spec]) -> (Arc<PmemPool>, u64, u64, InsertionMark) {
        let p = PmemPool::new(
            2 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        let heads: Vec<u64> = [new, old]
            .iter()
            .map(|spec| {
                let t = SkipListArena::new(p.clone(), 512 << 10).unwrap();
                for &(key, seq, kind, height) in spec.iter() {
                    let k = format!("key{key:06}");
                    t.insert_with_height(k.as_bytes(), b"v", seq, kind, height)
                        .unwrap();
                }
                t.head()
            })
            .collect();
        let mark = InsertionMark::alloc(&p).unwrap();
        // The arenas are dropped unretired: their memory stays in the pool.
        (p, heads[0], heads[1], mark)
    }

    /// Every level of the list at `head`, as node offsets; asserts each is
    /// strictly ascending and holds only towers that reach it.
    fn levels(p: &Arc<PmemPool>, head: u64) -> Vec<Vec<u64>> {
        (0..MAX_HEIGHT)
            .map(|level| {
                let mut nodes = Vec::new();
                let mut cur = raw::next(p, head, level);
                while cur != 0 {
                    assert!(raw::height(p, cur) > level);
                    if let Some(&prev) = nodes.last() {
                        let ord = miodb_common::types::mv_cmp(
                            raw::key(p, prev),
                            raw::seq(p, prev),
                            raw::key(p, cur),
                            raw::seq(p, cur),
                        );
                        assert_eq!(ord, std::cmp::Ordering::Less, "level {level} out of order");
                    }
                    nodes.push(cur);
                    cur = raw::next(p, cur, level);
                }
                nodes
            })
            .collect()
    }

    /// What the merged table must hold: everything of the oldtable except
    /// the versions a newtable key supersedes, plus the newest newtable
    /// version of every key the oldtable has nothing newer for.
    fn model(new: &[Spec], old: &[Spec]) -> Vec<(u32, u64)> {
        use std::collections::BTreeMap;
        let mut newest: BTreeMap<u32, u64> = BTreeMap::new();
        for &(k, s, _, _) in new {
            let e = newest.entry(k).or_insert(s);
            *e = (*e).max(s);
        }
        let mut out: Vec<(u32, u64)> = Vec::new();
        for (&k, &s) in &newest {
            if !old.iter().any(|&(ok, os, _, _)| ok == k && os > s) {
                out.push((k, s));
            }
        }
        for &(k, s, _, _) in old {
            // An older version right behind the spliced node is bypassed.
            if !newest
                .get(&k)
                .is_some_and(|&ns| ns > s && out.contains(&(k, ns)))
            {
                out.push((k, s));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        out
    }

    fn contents(p: &Arc<PmemPool>, head: u64) -> Vec<(u32, u64)> {
        SkipList::from_raw(p.clone(), head)
            .iter()
            .map(|e| {
                let k = std::str::from_utf8(&e.key[3..]).unwrap().parse().unwrap();
                (k, e.seq)
            })
            .collect()
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
            // A newtable that is *older* than the oldtable (recovery can
            // re-run a merge whose inputs were re-read): dropped_new.
            pairs.push((
                random_table(&mut r, n, 0, 300, 1),
                random_table(&mut r, m, 0, 300, 10_000),
            ));
            pairs.push((random_table(&mut r, n, 0, 300, 1), Vec::new()));
            pairs.push((Vec::new(), random_table(&mut r, m, 0, 300, 1)));
        }
        pairs
    }

    /// Runs `merge` in windows of `limits` until complete; the summed
    /// stats and every store made.
    fn drive(
        merge: Merge,
        pair: &(Arc<PmemPool>, u64, u64, InsertionMark),
        limits: MergeLimits,
    ) -> (MergeStats, Vec<(u64, u64)>) {
        let (p, new_head, old_head, mark) = pair;
        take_stores();
        let mut total = MergeStats::default();
        loop {
            let out = merge(p, *new_head, *old_head, mark, limits);
            total += out.stats();
            if out.is_complete() {
                return (total, take_stores());
            }
        }
    }

    #[test]
    fn finger_merge_makes_the_stores_of_a_head_search_merge() {
        let mut seen = MergeStats::default();
        for (i, (new, old)) in shapes().iter().enumerate() {
            let a = build_pair(new, old);
            let b = build_pair(new, old);
            let (finger_stats, finger_stores) = drive(zero_copy_merge, &a, MergeLimits::none());
            let (ref_stats, ref_stores) = drive(reference_merge, &b, MergeLimits::none());
            assert_eq!(finger_stats, ref_stats, "pair {i}");
            assert_eq!(finger_stores, ref_stores, "pair {i}");
            assert_eq!(levels(&a.0, a.2), levels(&b.0, b.2), "pair {i}");
            assert_eq!(contents(&a.0, a.2), model(new, old), "pair {i}");
            assert!(levels(&a.0, a.1).iter().all(Vec::is_empty), "pair {i}");
            seen += finger_stats;
        }
        // The shapes did exercise every branch of a step.
        assert!(seen.moved > 1000 && seen.dropped_new > 100 && seen.bypassed_old > 100);
    }

    #[test]
    fn one_step_windows_equal_one_unlimited_call() {
        // Every call re-seeds its finger from the head; the stores do not
        // change with where the windows fall.
        for (i, (new, old)) in shapes().iter().enumerate().step_by(3) {
            let whole = drive(zero_copy_merge, &build_pair(new, old), MergeLimits::none());
            for window in [1, 7] {
                let limits = MergeLimits {
                    max_steps: Some(window),
                    abandon_after_link_writes: None,
                };
                let stepped = drive(zero_copy_merge, &build_pair(new, old), limits);
                assert_eq!(stepped, whole, "pair {i}, {window}-step windows");
            }
        }
    }

    #[test]
    fn crash_at_every_link_write_resumes_to_the_same_table() {
        // Tall front duplicates in the newtable and tall older duplicates
        // in the oldtable, so crash points fall inside a front-duplicate
        // unlink and inside an oldtable bypass as well as inside the
        // unlink and the splice of the moved node.
        let mut r = StdRng::seed_from_u64(0xC0FFEE);
        let mut new = random_table(&mut r, 60, 0, 40, 10_000);
        let mut old = random_table(&mut r, 60, 0, 40, 1);
        for k in [3, 17, 29] {
            new.push((k, 20_000, OpKind::Put, 2));
            new.push((k, 19_000, OpKind::Put, MAX_HEIGHT));
            new.push((k, 18_000, OpKind::Delete, 5));
            old.push((k, 5_000, OpKind::Put, MAX_HEIGHT));
            old.push((k, 4_000, OpKind::Put, 1));
        }
        let whole = build_pair(&new, &old);
        let (stats, stores) = drive(zero_copy_merge, &whole, MergeLimits::none());
        assert!(stats.dropped_new >= 6 && stats.bypassed_old >= 6);
        assert_eq!(contents(&whole.0, whole.2), model(&new, &old));

        for crash_at in 0..stats.link_writes {
            let pair = build_pair(&new, &old);
            let (p, new_head, old_head, mark) = &pair;
            take_stores();
            let crash = MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(crash_at),
            };
            let out = zero_copy_merge(p, *new_head, *old_head, mark, crash);
            assert!(!out.is_complete(), "crash_at={crash_at}");
            assert_eq!(out.stats().link_writes, crash_at);
            assert!(mark.load().is_some(), "a crash is always mid-step");
            // "Restart": everything a new call knows is in the pool.
            let resumed = zero_copy_merge(p, *new_head, *old_head, mark, MergeLimits::none());
            assert!(resumed.is_complete(), "crash_at={crash_at}");
            // The two calls together made the stores of the uninterrupted
            // merge, in its order; the only extra is a link the crash cut
            // off from its pair (a tower word set, its predecessor not yet
            // pointed at it), which the resume writes again.
            let mut both = take_stores();
            both.dedup();
            let mut expect = stores.clone();
            expect.dedup();
            assert_eq!(both, expect, "crash_at={crash_at}");
            assert_eq!(levels(p, *old_head), levels(&whole.0, whole.2));
            assert!(levels(p, *new_head).iter().all(Vec::is_empty));
            assert!(mark.load().is_none());
            let mut sum = out.stats();
            sum += resumed.stats();
            let rewritten = sum.link_writes - stats.link_writes;
            assert!(rewritten <= 1, "crash_at={crash_at}: {rewritten}");
            sum.link_writes = stats.link_writes;
            assert_eq!(sum, stats, "crash_at={crash_at}");
        }
    }

    #[test]
    fn resumed_call_goes_on_from_the_finger_after_its_prelude() {
        let mut r = StdRng::seed_from_u64(0xFEED);
        let new = random_table(&mut r, 1500, 0, 100_000, 1_000_000);
        let old = random_table(&mut r, 1500, 0, 100_000, 1);
        let reads_of_resume = |merge: Merge| {
            let (p, new_head, old_head, mark) = build_pair(&new, &old);
            let crash = MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(700),
            };
            assert!(!merge(&p, new_head, old_head, &mark, crash).is_complete());
            let before = p.stats().snapshot().nvm_bytes_read;
            assert!(merge(&p, new_head, old_head, &mark, MergeLimits::none()).is_complete());
            (p.stats().snapshot().nvm_bytes_read - before, take_stores())
        };
        let (finger_reads, finger_stores) = reads_of_resume(zero_copy_merge);
        let (head_reads, head_stores) = reads_of_resume(reference_merge);
        assert_eq!(finger_stores, head_stores);
        assert!(
            finger_reads * 3 < head_reads,
            "{finger_reads} B read with the finger, {head_reads} B without"
        );
    }
}
