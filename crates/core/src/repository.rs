//! The bottom-level data repository: huge PMTable or on-SSD LSM.
//!
//! A GET reaches the huge-PMTable repository through its exact DRAM index
//! ([`RepoIndex`]), published in the engine's `Version`: a search in DRAM,
//! then one read of the value for a hit and none for a miss. Each lazy-copy
//! run is planned from that index ([`GrowableSkipList::run`]) and builds
//! the next one in DRAM from it and the run's own edits; only recovery
//! walks the list in NVM to build one.

use std::sync::Arc;

use miodb_common::{Result, Stats};
use miodb_lsm::{LsmCore, LsmOptions};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::{GrowableSkipList, SkipList};

use crate::table::{IndexHit, TableIndex};

/// The huge-PMTable repository's exact DRAM index: every key with where
/// its one node's value lives, as the last lazy-copy run left the list.
///
/// It needs no check against runs in progress. A node a later run bypasses
/// or unlinks is recycled only once no `Version` holding this index is
/// left (the engine's `repo_run`), so an entry stays readable
/// for as long as the index is. And a run only
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
    use miodb_common::{OpKind, Stats};
    use miodb_skiplist::iter::OwnedEntry;

    fn entry(key: &[u8], value: &[u8], seq: u64, kind: OpKind) -> OwnedEntry {
        OwnedEntry {
            key: key.to_vec(),
            value: value.to_vec(),
            seq,
            kind,
        }
    }

    #[test]
    fn pm_repository_round_trip() {
        let stats = Arc::new(Stats::new());
        let nvm = PmemPool::new(16 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap();
        let repo = Repository::new_pm(nvm, 256 * 1024).unwrap();
        let Repository::Pm(list) = &repo else {
            unreachable!("a huge PMTable")
        };
        // One run a record, each planned against the index walked after
        // the last.
        let run = |e: OwnedEntry| {
            let last = repo.walk_index().unwrap();
            list.run([e], last.index.iter_from(&[]), |_, _| {}).unwrap();
            repo.walk_index().unwrap()
        };
        let read = run(entry(b"k", b"v", 1, OpKind::Put)).get(b"k");
        assert_eq!(read.unwrap().value, b"v");
        assert!(run(entry(b"k", b"", 2, OpKind::Delete)).get(b"k").is_none());
        assert!(repo.is_quiescent());
    }

    fn lsm(repo: &Repository) -> &LsmCore {
        let Repository::Lsm(c) = repo else {
            unreachable!("an LSM repository")
        };
        c
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
        let entries = (0..100u32).map(|i| {
            let key = format!("key{i:04}").into_bytes();
            entry(&key, b"v", i as u64 + 1, OpKind::Put)
        });
        lsm(&repo).ingest_sorted_run(entries).unwrap();
        assert_eq!(lsm(&repo).get(b"key0042").unwrap().unwrap().seq, 43);
        while repo.maintain().unwrap() {}
        assert!(repo.is_quiescent());
        assert_eq!(lsm(&repo).get(b"key0042").unwrap().unwrap().seq, 43);
    }

    #[test]
    fn lsm_repository_tombstones_surface() {
        let stats = Arc::new(Stats::new());
        let repo =
            Repository::new_lsm(LsmOptions::default(), DeviceModel::ssd_unthrottled(), stats);
        for e in [
            entry(b"k", b"v", 1, OpKind::Put),
            entry(b"k", b"", 2, OpKind::Delete),
        ] {
            lsm(&repo).ingest_sorted_run(std::iter::once(e)).unwrap();
        }
        let r = lsm(&repo).get(b"k").unwrap().unwrap();
        assert_eq!(r.kind, OpKind::Delete);
    }
}
