//! The bottom-level data repository: huge PMTable or on-SSD LSM.
//!
//! A GET reaches the huge-PMTable repository through its exact DRAM index
//! ([`RepoIndex`]), published in the engine's `Version`: a search in DRAM,
//! then one read of the value for a hit and none for a miss. Each lazy-copy
//! run builds the next index in DRAM from the previous one and the run's
//! own edits; only recovery walks the list in NVM to build one.

use std::sync::Arc;

use miodb_common::{OpKind, Result, SequenceNumber, Stats};
use miodb_lsm::{LsmCore, LsmOptions};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::{GrowableSkipList, LookupResult, SkipList};

use crate::table::{IndexHit, TableIndex};

/// The huge-PMTable repository's exact DRAM index: every key with where
/// its one node's value lives, as the last lazy-copy run left the list.
///
/// It needs no check against runs in progress. Repository nodes are never
/// rewritten and never freed while the engine runs, so an entry stays
/// readable after a later run bypasses or unlinks its node. And a run only
/// touches keys of the table it drains, whose data any `Version` published
/// before the run's own index names — as that table, in its level or as
/// `lazy_draining` until after the publish, or, in a `Version` older than
/// the table, as the MemTables and tables it came from — and a GET probes
/// all of those before the repository. So an older index is exact for
/// every key the run does not touch, and the data its `Version` names
/// answers every key the run does.
#[derive(Debug)]
pub struct RepoIndex {
    /// Read view of the repository.
    pub list: SkipList,
    /// Every key of `list` and where its value lives.
    pub index: TableIndex,
}

impl RepoIndex {
    /// The repository's version of `key`: one read of the value for a
    /// hit, none for a miss.
    pub fn get(&self, key: &[u8]) -> Option<IndexHit> {
        self.index.get(&self.list, key)
    }
}

/// The destination of lazy-copy compactions.
///
/// In DRAM-NVM mode this is the paper's huge PMTable (a single growable
/// skip list holding exactly the live key set). In DRAM-NVM-SSD mode it is
/// a traditional multi-level SSTable LSM on the SSD device, preserving
/// backward compatibility (§4.1).
#[allow(clippy::large_enum_variant)] // one per engine, built once, never moved
pub enum Repository {
    /// Huge persistent skip list in the NVM pool.
    Pm(GrowableSkipList),
    /// SSTable hierarchy on an SSD-class device.
    Lsm(Box<LsmCore>),
}

impl std::fmt::Debug for Repository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Repository::Pm(r) => f.debug_tuple("Repository::Pm").field(r).finish(),
            Repository::Lsm(c) => f.debug_tuple("Repository::Lsm").field(c).finish(),
        }
    }
}

impl Repository {
    /// Creates a huge-PMTable repository in `nvm`.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new_pm(nvm: Arc<PmemPool>, chunk_bytes: usize) -> Result<Repository> {
        Ok(Repository::Pm(GrowableSkipList::new(nvm, chunk_bytes)?))
    }

    /// Creates an SSD-backed LSM repository.
    pub fn new_lsm(lsm: LsmOptions, device: DeviceModel, stats: Arc<Stats>) -> Repository {
        let store = miodb_lsm::TableStore::new(device, stats);
        Repository::Lsm(Box::new(LsmCore::new(store, lsm)))
    }

    /// Applies one entry from a lazy-copy drain. For the LSM repository
    /// callers should batch with [`Repository::ingest_run`] instead.
    ///
    /// # Errors
    ///
    /// Propagates allocation/build failures.
    pub fn apply(&self, key: &[u8], value: &[u8], seq: SequenceNumber, kind: OpKind) -> Result<()> {
        match self {
            Repository::Pm(r) => {
                r.apply(key, value, seq, kind)?;
                Ok(())
            }
            Repository::Lsm(c) => {
                let e = OwnedEntry {
                    key: key.to_vec(),
                    value: value.to_vec(),
                    seq,
                    kind,
                };
                c.ingest_sorted_run(std::iter::once(e))?;
                Ok(())
            }
        }
    }

    /// Drains a whole sorted run into the repository (preferred for the
    /// LSM mode: one serialized table instead of per-entry ingestion).
    ///
    /// # Errors
    ///
    /// Propagates allocation/build failures.
    pub fn ingest_run(
        &self,
        entries: impl Iterator<Item = OwnedEntry> + Send + 'static,
    ) -> Result<()> {
        match self {
            Repository::Pm(r) => {
                for e in entries {
                    r.apply(&e.key, &e.value, e.seq, e.kind)?;
                }
                Ok(())
            }
            Repository::Lsm(c) => {
                c.ingest_sorted_run(entries)?;
                Ok(())
            }
        }
    }

    /// Point lookup. The PM repository never stores tombstones, the LSM
    /// repository may return them (they are dropped at its bottom level).
    pub fn get(&self, key: &[u8]) -> Result<Option<LookupResult>> {
        match self {
            Repository::Pm(r) => Ok(r.get(key)),
            Repository::Lsm(c) => Ok(c.get(key)?.map(|e| LookupResult {
                value: e.value,
                seq: e.seq,
                kind: e.kind,
            })),
        }
    }

    /// The huge-PMTable repository's index, walked over its level 0 in
    /// NVM ([`TableIndex::walk`]); `None` for the LSM repository. Recovery
    /// is the only caller: a running engine derives each index from the
    /// last ([`TableIndex::edited`]).
    pub fn walk_index(&self) -> Option<RepoIndex> {
        match self {
            Repository::Pm(r) => {
                let list = r.list();
                Some(RepoIndex {
                    index: TableIndex::walk(&list),
                    list,
                })
            }
            Repository::Lsm(_) => None,
        }
    }

    /// Runs pending LSM compactions (no-op for the PM repository).
    ///
    /// # Errors
    ///
    /// Propagates compaction failures.
    pub fn maintain(&self) -> Result<bool> {
        match self {
            Repository::Pm(_) => Ok(false),
            Repository::Lsm(c) => c.run_one_compaction(),
        }
    }

    /// Returns `true` when no background maintenance is pending.
    pub fn is_quiescent(&self) -> bool {
        match self {
            Repository::Pm(_) => true,
            Repository::Lsm(c) => c.needs_compaction().is_none(),
        }
    }

    /// Live keys (PM) or total entries across tables (LSM, approximate —
    /// includes not-yet-compacted duplicates).
    pub fn len_estimate(&self) -> usize {
        match self {
            Repository::Pm(r) => r.len(),
            Repository::Lsm(c) => c.tables_per_level().iter().sum::<usize>(),
        }
    }

    /// Tables per level for reports (empty for the PM repository).
    pub fn tables_per_level(&self) -> Vec<usize> {
        match self {
            Repository::Pm(_) => Vec::new(),
            Repository::Lsm(c) => c.tables_per_level(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::Stats;

    #[test]
    fn pm_repository_round_trip() {
        let stats = Arc::new(Stats::new());
        let nvm = PmemPool::new(16 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
        let repo = Repository::new_pm(nvm, 256 * 1024).unwrap();
        repo.apply(b"k", b"v", 1, OpKind::Put).unwrap();
        assert_eq!(repo.get(b"k").unwrap().unwrap().value, b"v");
        repo.apply(b"k", b"", 2, OpKind::Delete).unwrap();
        assert!(repo.get(b"k").unwrap().is_none());
        assert!(repo.is_quiescent());
    }

    #[test]
    fn lsm_repository_round_trip() {
        let stats = Arc::new(Stats::new());
        let repo = Repository::new_lsm(
            LsmOptions {
                table_bytes: 16 * 1024,
                level1_max_bytes: 64 * 1024,
                ..LsmOptions::default()
            },
            DeviceModel::ssd_unthrottled(),
            stats,
        );
        let entries: Vec<OwnedEntry> = (0..100u32)
            .map(|i| OwnedEntry {
                key: format!("key{i:04}").into_bytes(),
                value: b"v".to_vec(),
                seq: i as u64 + 1,
                kind: OpKind::Put,
            })
            .collect();
        repo.ingest_run(entries.into_iter()).unwrap();
        assert_eq!(repo.get(b"key0042").unwrap().unwrap().seq, 43);
        while repo.maintain().unwrap() {}
        assert!(repo.is_quiescent());
        assert_eq!(repo.get(b"key0042").unwrap().unwrap().seq, 43);
    }

    #[test]
    fn lsm_repository_tombstones_surface() {
        let stats = Arc::new(Stats::new());
        let repo =
            Repository::new_lsm(LsmOptions::default(), DeviceModel::ssd_unthrottled(), stats);
        repo.apply(b"k", b"v", 1, OpKind::Put).unwrap();
        repo.apply(b"k", b"", 2, OpKind::Delete).unwrap();
        let r = repo.get(b"k").unwrap().unwrap();
        assert_eq!(r.kind, OpKind::Delete);
    }
}
