//! Forward iteration over a skip list.

use std::sync::Arc;

use miodb_common::{OpKind, SequenceNumber};
use miodb_pmem::PmemPool;

use crate::node::raw;

/// An owned copy of one entry produced by iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEntry {
    /// User key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
    /// Sequence number of this version.
    pub seq: SequenceNumber,
    /// Put or tombstone.
    pub kind: OpKind,
}

/// Iterator over a skip list in multi-version order (keys ascending,
/// versions newest-first).
///
/// The iterator copies entries out so it stays valid while compactions
/// re-link the list; it follows level-0 links with acquire loads.
pub struct SkipListIter {
    pool: Arc<PmemPool>,
    cur: u64,
}

impl std::fmt::Debug for SkipListIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipListIter")
            .field("cur", &self.cur)
            .finish()
    }
}

impl SkipListIter {
    pub(crate) fn new(pool: Arc<PmemPool>, start: u64) -> SkipListIter {
        SkipListIter { pool, cur: start }
    }
}

impl Iterator for SkipListIter {
    type Item = OwnedEntry;

    fn next(&mut self) -> Option<OwnedEntry> {
        if self.cur == 0 {
            return None;
        }
        let pool = &*self.pool;
        raw::charge_visit(pool);
        let entry = OwnedEntry {
            key: raw::key(pool, self.cur).to_vec(),
            value: raw::value(pool, self.cur).to_vec(),
            seq: raw::seq(pool, self.cur),
            kind: raw::kind(pool, self.cur),
        };
        pool.charge_read(entry.value.len());
        self.cur = raw::next(pool, self.cur, 0);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipListArena;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;

    #[test]
    fn iterates_all_entries_in_order() {
        let pool = PmemPool::new(1 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        let t = SkipListArena::new(pool, 256 * 1024).unwrap();
        for i in [5u32, 1, 9, 3, 7] {
            t.insert(
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
                i as u64,
                OpKind::Put,
            )
            .unwrap();
        }
        let entries: Vec<OwnedEntry> = t.list().iter().collect();
        let keys: Vec<&[u8]> = entries.iter().map(|e| e.key.as_slice()).collect();
        assert_eq!(keys, vec![b"k1" as &[u8], b"k3", b"k5", b"k7", b"k9"]);
        assert_eq!(entries[0].value, b"v1");
    }

    #[test]
    fn empty_iterator() {
        let pool = PmemPool::new(1 << 20, DeviceModel::dram(), Arc::new(Stats::new())).unwrap();
        let t = SkipListArena::new(pool, 64 * 1024).unwrap();
        assert_eq!(t.list().iter().count(), 0);
    }
}
