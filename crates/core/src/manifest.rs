//! Crash-consistent engine metadata in the NVM pool.
//!
//! The manifest names everything recovery needs (paper §4.7): WAL segments
//! of the active and immutable MemTables, every level's PMTables (head
//! offset + arena set), in-flight zero-copy merges and their insertion
//! marks, an in-flight lazy-copy drain, and the repository's skip-list
//! state.
//!
//! Commit protocol: the serialized state is written to a fresh NVM region,
//! then one of two fixed header slots is updated (version, region, length,
//! CRC). Readers pick the valid slot with the higher version, so a crash
//! mid-store falls back to the previous state. The superseded region is
//! freed after the new slot is in place.

use std::sync::Arc;

use miodb_common::{Error, Result};
use miodb_pmem::{PmemPool, PmemRegion};
use parking_lot::Mutex;

const SLOT_BYTES: u64 = 64;
const SLOT0: u64 = 0;
const SLOT1: u64 = SLOT_BYTES;

/// Persistent descriptor of one PMTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableState {
    /// Head node offset in the NVM pool.
    pub head: u64,
    /// Approximate node count.
    pub len: u64,
    /// Approximate user bytes.
    pub data_bytes: u64,
    /// Largest sequence number contained.
    pub newest_seq: u64,
    /// Arenas owned by the table.
    pub arenas: Vec<PmemRegion>,
}

/// Persistent descriptor of one elastic-buffer level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LevelState {
    /// Insertion-mark slot of the level.
    pub mark: Option<PmemRegion>,
    /// In-flight zero-copy merge `(newtable, oldtable)`.
    pub merging: Option<(TableState, TableState)>,
    /// In-flight lazy-copy drain (bottom buffer level only).
    pub lazy_draining: Option<TableState>,
    /// Settled tables, oldest first.
    pub tables: Vec<TableState>,
}

/// Persistent descriptor of the huge-PMTable repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoState {
    pub head: u64,
    pub chunk_size: u64,
    pub cursor: u64,
    pub end: u64,
    pub chunks: Vec<PmemRegion>,
}

/// The full recoverable engine state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestState {
    /// Last sequence number issued at store time.
    pub seq: u64,
    /// WAL segments of the active MemTable.
    pub active_wal: Vec<PmemRegion>,
    /// WAL segments of the immutable MemTable, if one exists.
    pub imm_wal: Option<Vec<PmemRegion>>,
    /// Elastic-buffer levels, top first.
    pub levels: Vec<LevelState>,
    /// Huge-PMTable repository (absent in SSD mode, whose table store is
    /// outside the pool).
    pub repo: Option<RepoState>,
}

/// Writer/reader of the double-slot manifest.
pub struct Manifest {
    pool: Arc<PmemPool>,
    inner: Mutex<ManifestInner>,
}

struct ManifestInner {
    version: u64,
    /// Regions currently referenced by the two slots.
    regions: [Option<PmemRegion>; 2],
}

impl std::fmt::Debug for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manifest")
            .field("version", &self.inner.lock().version)
            .finish()
    }
}

impl Manifest {
    /// Creates a manifest writer for a fresh pool (slots zeroed by pool
    /// initialization).
    pub fn create(pool: Arc<PmemPool>) -> Manifest {
        Manifest {
            pool,
            inner: Mutex::new(ManifestInner {
                version: 0,
                regions: [None, None],
            }),
        }
    }

    /// Serializes and commits `state`.
    ///
    /// # Errors
    ///
    /// Returns pool-exhaustion errors; the previous manifest stays intact
    /// in that case.
    pub fn store(&self, state: &ManifestState) -> Result<()> {
        let payload = encode(state);
        let region = self.pool.alloc(payload.len().max(64))?;
        self.pool.write_bytes(region.offset, &payload);

        let mut inner = self.inner.lock();
        let slot_idx = (inner.version % 2) as usize; // alternate slots
        let slot_off = if slot_idx == 0 { SLOT0 } else { SLOT1 };
        let version = inner.version + 1;
        let mut slot = [0u8; SLOT_BYTES as usize];
        slot[0..8].copy_from_slice(&version.to_le_bytes());
        slot[8..16].copy_from_slice(&region.offset.to_le_bytes());
        slot[16..24].copy_from_slice(&region.len.to_le_bytes());
        slot[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        // The CRC covers the header fields too: a torn version or offset
        // would otherwise resurrect a superseded manifest whose regions the
        // newer commit already recycled.
        let crc = slot_crc(&slot, &payload);
        slot[32..36].copy_from_slice(&crc.to_le_bytes());
        self.pool.write_bytes(slot_off, &slot);

        if let Some(old) = inner.regions[slot_idx].take() {
            self.pool.free(old);
        }
        inner.regions[slot_idx] = Some(region);
        inner.version = version;
        Ok(())
    }

    /// Loads the newest valid state from a (restored) pool, along with a
    /// manifest writer that continues the version sequence.
    ///
    /// Returns `Ok(None)` if no manifest was ever committed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if both slots are unreadable but
    /// non-zero.
    pub fn load(pool: Arc<PmemPool>) -> Result<(Manifest, Option<ManifestState>)> {
        let mut candidates = Vec::new();
        let mut regions = [None, None];
        for (idx, slot_off) in [(0usize, SLOT0), (1usize, SLOT1)] {
            let mut slot = [0u8; SLOT_BYTES as usize];
            pool.read_bytes(slot_off, &mut slot);
            // Invariant: every `try_into` below slices a fixed-size range
            // out of the 64-byte `slot` array — the conversions cannot
            // fail, only the *decoded values* are untrusted (checked next).
            let version = u64::from_le_bytes(slot[0..8].try_into().unwrap());
            if version == 0 {
                continue;
            }
            let off = u64::from_le_bytes(slot[8..16].try_into().unwrap());
            let region_len = u64::from_le_bytes(slot[16..24].try_into().unwrap());
            let payload_len = u64::from_le_bytes(slot[24..32].try_into().unwrap()) as usize;
            let stored_crc = u32::from_le_bytes(slot[32..36].try_into().unwrap());
            // Overflow-safe: a torn slot can hold arbitrary offset/length
            // values, so `off + region_len` must not be allowed to wrap.
            let in_bounds = off
                .checked_add(region_len)
                .is_some_and(|end| end <= pool.capacity() as u64);
            if payload_len as u64 > region_len || !in_bounds {
                continue;
            }
            let mut payload = vec![0u8; payload_len];
            pool.read_bytes(off, &mut payload);
            if slot_crc(&slot, &payload) != stored_crc {
                continue;
            }
            let region = PmemRegion {
                offset: off,
                len: region_len,
            };
            regions[idx] = Some(region);
            candidates.push((version, idx, payload));
        }
        candidates.sort_by_key(|(v, _, _)| *v);
        let Some((version, _idx, payload)) = candidates.pop() else {
            return Ok((Manifest::create(pool), None));
        };
        let state = decode(&payload)?;
        Ok((
            Manifest {
                pool,
                inner: Mutex::new(ManifestInner { version, regions }),
            },
            Some(state),
        ))
    }
}

impl ManifestState {
    /// Checks that every region this state references is still allocated
    /// in `pool`.
    ///
    /// A manifest can decode cleanly yet be stale — e.g. post-crash media
    /// corruption invalidated the newest slot and load fell back to a
    /// generation whose regions later commits already recycled. Walking
    /// such regions would read reused or never-written memory, so recovery
    /// rejects the state up front.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] naming the first dead region.
    pub fn validate_live(&self, pool: &PmemPool) -> Result<()> {
        let check = |what: &str, r: &PmemRegion| -> Result<()> {
            if pool.region_is_live(r.offset, r.len) {
                Ok(())
            } else {
                Err(Error::Corruption(format!(
                    "manifest references freed or unallocated memory: {what} at {:#x}+{:#x}",
                    r.offset, r.len
                )))
            }
        };
        for r in &self.active_wal {
            check("active WAL segment", r)?;
        }
        for r in self.imm_wal.iter().flatten() {
            check("immutable WAL segment", r)?;
        }
        for l in &self.levels {
            if let Some(m) = &l.mark {
                check("insertion mark", m)?;
            }
            let merging = l.merging.iter().flat_map(|(a, b)| [a, b]);
            for t in l.tables.iter().chain(l.lazy_draining.iter()).chain(merging) {
                for r in &t.arenas {
                    check("PMTable arena", r)?;
                }
            }
        }
        for r in self.repo.iter().flat_map(|r| &r.chunks) {
            check("repository chunk", r)?;
        }
        Ok(())
    }
}

/// CRC of one commit: the 32 header bytes of the slot followed by the
/// payload, so corruption of either invalidates the slot.
fn slot_crc(slot: &[u8; SLOT_BYTES as usize], payload: &[u8]) -> u32 {
    let mut h = miodb_common::crc32::Crc32::new();
    h.update(&slot[0..32]);
    h.update(payload);
    h.finish()
}

// --- serialization helpers ------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_regions(out: &mut Vec<u8>, regions: &[PmemRegion]) {
    put_u32(out, regions.len() as u32);
    for r in regions {
        put_u64(out, r.offset);
        put_u64(out, r.len);
    }
}

fn put_table(out: &mut Vec<u8>, t: &TableState) {
    put_u64(out, t.head);
    put_u64(out, t.len);
    put_u64(out, t.data_bytes);
    put_u64(out, t.newest_seq);
    put_regions(out, &t.arenas);
}

fn encode(state: &ManifestState) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    put_u64(&mut out, state.seq);
    put_regions(&mut out, &state.active_wal);
    match &state.imm_wal {
        Some(regs) => {
            out.push(1);
            put_regions(&mut out, regs);
        }
        None => out.push(0),
    }
    put_u32(&mut out, state.levels.len() as u32);
    for l in &state.levels {
        match &l.mark {
            Some(m) => {
                out.push(1);
                put_u64(&mut out, m.offset);
                put_u64(&mut out, m.len);
            }
            None => out.push(0),
        }
        match &l.merging {
            Some((a, b)) => {
                out.push(1);
                put_table(&mut out, a);
                put_table(&mut out, b);
            }
            None => out.push(0),
        }
        match &l.lazy_draining {
            Some(t) => {
                out.push(1);
                put_table(&mut out, t);
            }
            None => out.push(0),
        }
        put_u32(&mut out, l.tables.len() as u32);
        for t in &l.tables {
            put_table(&mut out, t);
        }
    }
    match &state.repo {
        Some(r) => {
            out.push(1);
            put_u64(&mut out, r.head);
            put_u64(&mut out, r.chunk_size);
            put_u64(&mut out, r.cursor);
            put_u64(&mut out, r.end);
            put_regions(&mut out, &r.chunks);
        }
        None => out.push(0),
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    // Invariant (both readers): the explicit bounds check above each
    // `try_into` guarantees the slice is exactly 8 (resp. 4) bytes, so the
    // conversion cannot fail; truncated input surfaces as `Corruption`.
    fn u64(&mut self) -> Result<u64> {
        if self.pos + 8 > self.buf.len() {
            return Err(Error::Corruption("manifest truncated".to_string()));
        }
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32> {
        if self.pos + 4 > self.buf.len() {
            return Err(Error::Corruption("manifest truncated".to_string()));
        }
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn byte(&mut self) -> Result<u8> {
        if self.pos >= self.buf.len() {
            return Err(Error::Corruption("manifest truncated".to_string()));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn regions(&mut self) -> Result<Vec<PmemRegion>> {
        let n = self.u32()? as usize;
        if n > 1_000_000 {
            return Err(Error::Corruption("implausible region count".to_string()));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(PmemRegion {
                offset: self.u64()?,
                len: self.u64()?,
            });
        }
        Ok(out)
    }

    fn table(&mut self) -> Result<TableState> {
        Ok(TableState {
            head: self.u64()?,
            len: self.u64()?,
            data_bytes: self.u64()?,
            newest_seq: self.u64()?,
            arenas: self.regions()?,
        })
    }
}

fn decode(buf: &[u8]) -> Result<ManifestState> {
    let mut r = Reader { buf, pos: 0 };
    let seq = r.u64()?;
    let active_wal = r.regions()?;
    let imm_wal = if r.byte()? == 1 {
        Some(r.regions()?)
    } else {
        None
    };
    let n_levels = r.u32()? as usize;
    if n_levels > 64 {
        return Err(Error::Corruption("implausible level count".to_string()));
    }
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let mark = if r.byte()? == 1 {
            Some(PmemRegion {
                offset: r.u64()?,
                len: r.u64()?,
            })
        } else {
            None
        };
        let merging = if r.byte()? == 1 {
            Some((r.table()?, r.table()?))
        } else {
            None
        };
        let lazy_draining = if r.byte()? == 1 {
            Some(r.table()?)
        } else {
            None
        };
        let n_tables = r.u32()? as usize;
        if n_tables > 1_000_000 {
            return Err(Error::Corruption("implausible table count".to_string()));
        }
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            tables.push(r.table()?);
        }
        levels.push(LevelState {
            mark,
            merging,
            lazy_draining,
            tables,
        });
    }
    let repo = if r.byte()? == 1 {
        Some(RepoState {
            head: r.u64()?,
            chunk_size: r.u64()?,
            cursor: r.u64()?,
            end: r.u64()?,
            chunks: r.regions()?,
        })
    } else {
        None
    };
    Ok(ManifestState {
        seq,
        active_wal,
        imm_wal,
        levels,
        repo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(
            8 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap()
    }

    fn sample_state() -> ManifestState {
        ManifestState {
            seq: 42,
            active_wal: vec![PmemRegion {
                offset: 65536,
                len: 4096,
            }],
            imm_wal: Some(vec![PmemRegion {
                offset: 131072,
                len: 4096,
            }]),
            levels: vec![
                LevelState {
                    mark: Some(PmemRegion {
                        offset: 70000,
                        len: 64,
                    }),
                    merging: None,
                    lazy_draining: None,
                    tables: vec![TableState {
                        head: 80000,
                        len: 10,
                        data_bytes: 1000,
                        newest_seq: 40,
                        arenas: vec![PmemRegion {
                            offset: 80000,
                            len: 8192,
                        }],
                    }],
                },
                LevelState::default(),
            ],
            repo: Some(RepoState {
                head: 90000,
                chunk_size: 65536,
                cursor: 90100,
                end: 155536,
                chunks: vec![PmemRegion {
                    offset: 90000,
                    len: 65536,
                }],
            }),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample_state();
        let decoded = decode(&encode(&s)).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn store_load_round_trip() {
        let p = pool();
        let m = Manifest::create(p.clone());
        let s = sample_state();
        m.store(&s).unwrap();
        let (_m2, loaded) = Manifest::load(p).unwrap();
        assert_eq!(loaded.unwrap(), s);
    }

    #[test]
    fn newest_version_wins() {
        let p = pool();
        let m = Manifest::create(p.clone());
        let mut s = sample_state();
        m.store(&s).unwrap();
        s.seq = 100;
        m.store(&s).unwrap();
        s.seq = 200;
        m.store(&s).unwrap();
        let (_m2, loaded) = Manifest::load(p).unwrap();
        assert_eq!(loaded.unwrap().seq, 200);
    }

    #[test]
    fn empty_pool_has_no_manifest() {
        let (_m, loaded) = Manifest::load(pool()).unwrap();
        assert!(loaded.is_none());
    }

    #[test]
    fn load_continues_version_sequence() {
        let p = pool();
        let m = Manifest::create(p.clone());
        let mut s = sample_state();
        m.store(&s).unwrap();
        drop(m);
        let (m2, _) = Manifest::load(p.clone()).unwrap();
        s.seq = 777;
        m2.store(&s).unwrap();
        let (_m3, loaded) = Manifest::load(p).unwrap();
        assert_eq!(loaded.unwrap().seq, 777);
    }

    #[test]
    fn corrupt_newest_slot_falls_back() {
        let p = pool();
        let m = Manifest::create(p.clone());
        let mut s = sample_state();
        s.seq = 1;
        m.store(&s).unwrap();
        s.seq = 2;
        m.store(&s).unwrap();
        // Corrupt the region referenced by the newest slot (slot index =
        // (version-1)%2 = 1 for version 2).
        let mut slot = [0u8; 64];
        p.read_bytes(SLOT1, &mut slot);
        let off = u64::from_le_bytes(slot[8..16].try_into().unwrap());
        p.write_bytes(off, &[0xFF; 8]);
        let (_m2, loaded) = Manifest::load(p).unwrap();
        assert_eq!(
            loaded.unwrap().seq,
            1,
            "must fall back to older valid state"
        );
    }

    #[test]
    fn store_survives_many_updates_without_leaking() {
        let p = pool();
        let m = Manifest::create(p.clone());
        let s = sample_state();
        let baseline = {
            m.store(&s).unwrap();
            m.store(&s).unwrap();
            p.used_bytes()
        };
        for _ in 0..100 {
            m.store(&s).unwrap();
        }
        assert_eq!(
            p.used_bytes(),
            baseline,
            "old manifest regions must be freed"
        );
    }
}
