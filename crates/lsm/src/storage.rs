//! Table storage over a modeled block device.
//!
//! SSTables are immutable byte blobs. The store keeps them in process
//! memory but charges every read and write to a [`DeviceModel`] (NVM-class
//! for the in-memory-mode baselines, SSD-class for tiered deployments),
//! which is what produces the serialization-dominated behaviour the paper
//! measures. Reads are charged at block granularity, mirroring page-sized
//! device access.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use miodb_common::{Error, Result, Stats};
use miodb_pmem::DeviceModel;
use parking_lot::RwLock;

/// Identifier of a stored table.
pub type TableId = u64;

/// An immutable blob store with device-modeled timing and accounting.
pub struct TableStore {
    device: DeviceModel,
    stats: Arc<Stats>,
    files: RwLock<HashMap<TableId, Arc<Vec<u8>>>>,
    next_id: AtomicU64,
    total_bytes: AtomicU64,
}

impl std::fmt::Debug for TableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableStore")
            .field("device", &self.device.class)
            .field("tables", &self.files.read().len())
            .field("total_bytes", &self.total_bytes())
            .finish()
    }
}

impl TableStore {
    /// Creates a store charged to `device`, with counters routed to
    /// `stats`.
    pub fn new(device: DeviceModel, stats: Arc<Stats>) -> Arc<TableStore> {
        Arc::new(TableStore {
            device,
            stats,
            files: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            total_bytes: AtomicU64::new(0),
        })
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The shared statistics block.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Persists `data` as a new table, charging a full sequential write.
    pub fn put_table(&self, data: Vec<u8>) -> TableId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.device.charge_write(&self.stats, data.len());
        self.total_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.files.write().insert(id, Arc::new(data));
        id
    }

    /// Reads `len` bytes at `offset` from table `id`, charging the device
    /// at 4 KiB block granularity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the table is missing or the range
    /// is out of bounds.
    pub fn read(&self, id: TableId, offset: usize, len: usize) -> Result<Vec<u8>> {
        let file = self.blob(id)?;
        self.read_blob(&file, offset, len)
    }

    /// Pins table `id`'s contents; the blob outlives a concurrent
    /// [`delete`](TableStore::delete), so readers holding a superseded
    /// level snapshot keep working while compaction reclaims the table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the table is missing.
    pub fn blob(&self, id: TableId) -> Result<Arc<Vec<u8>>> {
        self.files
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::Corruption(format!("missing table {id}")))
    }

    /// Reads from a pinned blob with the same device charging as
    /// [`read`](TableStore::read).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for out-of-bounds ranges.
    pub fn read_blob(&self, file: &Arc<Vec<u8>>, offset: usize, len: usize) -> Result<Vec<u8>> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| Error::Corruption("table read overflow".to_string()))?;
        if end > file.len() {
            return Err(Error::Corruption(format!(
                "table read {offset}+{len} beyond {}",
                file.len()
            )));
        }
        // Block-granular charging: reading 1 byte still costs a 4 KiB page.
        let first_block = offset / 4096;
        let last_block = (end.max(1) - 1) / 4096;
        self.device
            .charge_read(&self.stats, (last_block - first_block + 1) * 4096);
        Ok(file[offset..end].to_vec())
    }

    /// Size of table `id`, if present.
    pub fn table_len(&self, id: TableId) -> Option<usize> {
        self.files.read().get(&id).map(|f| f.len())
    }

    /// Deletes a table (space is reclaimed immediately).
    pub fn delete(&self, id: TableId) {
        if let Some(f) = self.files.write().remove(&id) {
            self.total_bytes
                .fetch_sub(f.len() as u64, Ordering::Relaxed);
        }
    }

    /// Total live bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Number of live tables.
    pub fn table_count(&self) -> usize {
        self.files.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<TableStore> {
        TableStore::new(DeviceModel::ssd_unthrottled(), Arc::new(Stats::new()))
    }

    #[test]
    fn put_read_round_trip() {
        let s = store();
        let id = s.put_table(vec![1, 2, 3, 4, 5]);
        assert_eq!(s.read(id, 1, 3).unwrap(), vec![2, 3, 4]);
        assert_eq!(s.table_len(id), Some(5));
    }

    #[test]
    fn missing_table_is_corruption() {
        let s = store();
        assert!(s.read(999, 0, 1).unwrap_err().is_corruption());
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let s = store();
        let id = s.put_table(vec![0u8; 100]);
        assert!(s.read(id, 90, 20).unwrap_err().is_corruption());
    }

    #[test]
    fn delete_reclaims_bytes() {
        let s = store();
        let id = s.put_table(vec![0u8; 1000]);
        assert_eq!(s.total_bytes(), 1000);
        s.delete(id);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.table_count(), 0);
    }

    #[test]
    fn writes_charged_to_ssd() {
        let stats = Arc::new(Stats::new());
        let s = TableStore::new(DeviceModel::ssd_unthrottled(), stats.clone());
        s.put_table(vec![0u8; 4096]);
        assert_eq!(stats.ssd_bytes_written.load(Ordering::Relaxed), 4096);
    }

    #[test]
    fn reads_charged_per_block() {
        let stats = Arc::new(Stats::new());
        let s = TableStore::new(DeviceModel::nvm_unthrottled(), stats.clone());
        let id = s.put_table(vec![0u8; 10_000]);
        s.read(id, 0, 10).unwrap();
        assert_eq!(stats.nvm_bytes_read.load(Ordering::Relaxed), 4096);
        s.read(id, 4000, 200).unwrap(); // spans two blocks
        assert_eq!(stats.nvm_bytes_read.load(Ordering::Relaxed), 4096 + 8192);
    }
}
