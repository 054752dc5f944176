//! NVM-resident write-ahead log.
//!
//! MioDB appends every write to a persistent log **before** inserting it
//! into the DRAM MemTable (paper §4.7): random-access insertion happens in
//! fast DRAM while the NVM sees only a sequential append. One log exists
//! per MemTable generation; after the MemTable has been one-piece-flushed
//! (and is therefore itself persistent), its log is discarded.
//!
//! Record layout (little-endian):
//!
//! ```text
//! crc32   u32   over everything after this field
//! len     u32   payload length (seq..value)
//! seq     u64
//! kind    u8
//! klen    u32
//! vlen    u32
//! key     klen bytes
//! value   vlen bytes
//! ```
//!
//! Replay stops at the first record whose checksum fails or whose header is
//! zero — exactly the torn-tail semantics of a crash during append.

use std::sync::Arc;

use miodb_common::crc32::Crc32;
use miodb_common::{fault, Error, OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion, RegionLease};
use parking_lot::Mutex;

const RECORD_HEADER: usize = 4 + 4; // crc + len
const PAYLOAD_FIXED: usize = 8 + 1 + 4 + 4; // seq + kind + klen + vlen
/// Per-segment header: (next_offset u64, next_len u64). Segments form a
/// persistent chain so replay finds every segment even if the manifest's
/// segment list is stale (a segment allocated after the last manifest
/// store would otherwise be lost, dropping acknowledged writes and
/// reusing their sequence numbers after recovery).
const SEGMENT_HEADER: usize = 16;
/// Record kind byte marking a multi-operation batch payload.
const BATCH_KIND: u8 = 2;

/// One operation of a write group, borrowing the caller's buffers (the
/// group leader logs on behalf of writers that are still parked, so no
/// copy is taken).
#[derive(Debug, Clone, Copy)]
pub struct GroupOp<'a> {
    /// User key.
    pub key: &'a [u8],
    /// Value (empty for tombstones).
    pub value: &'a [u8],
    /// Put or tombstone.
    pub kind: OpKind,
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// User key.
    pub key: Vec<u8>,
    /// Value (empty for tombstones).
    pub value: Vec<u8>,
    /// Sequence number.
    pub seq: SequenceNumber,
    /// Put or tombstone.
    pub kind: OpKind,
}

/// Encodes one single-op record exactly as [`WriteAheadLog::append`]
/// persists it: `crc32 | len | seq | kind | klen | vlen | key | value`,
/// CRC patched in. The returned bytes are what the log stores **and**
/// what replication ships, so one checksum covers both copies.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] for oversized keys or values.
pub fn encode_record(
    key: &[u8],
    value: &[u8],
    seq: SequenceNumber,
    kind: OpKind,
) -> Result<Vec<u8>> {
    if key.len() > u32::MAX as usize || value.len() > u32::MAX as usize {
        return Err(Error::InvalidArgument(
            "key/value too large for wal".to_string(),
        ));
    }
    let payload_len = PAYLOAD_FIXED + key.len() + value.len();
    let mut buf = Vec::with_capacity(RECORD_HEADER + payload_len);
    buf.extend_from_slice(&[0u8; 4]); // crc placeholder
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(kind as u8);
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    patch_crc(&mut buf);
    Ok(buf)
}

/// Encodes a whole write group (or batch) as **one** crc-framed record,
/// exactly as [`WriteAheadLog::append_group`] persists it. Operations
/// receive consecutive sequence numbers starting at `seq_base`. An empty
/// group encodes to an empty buffer (nothing to log or ship).
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] for oversized keys or values.
pub fn encode_group_record(ops: &[GroupOp<'_>], seq_base: SequenceNumber) -> Result<Vec<u8>> {
    if ops.is_empty() {
        return Ok(Vec::new());
    }
    let body: usize = ops.iter().map(|op| 9 + op.key.len() + op.value.len()).sum();
    let payload_len = 8 + 1 + 4 + body;
    let mut buf = Vec::with_capacity(RECORD_HEADER + payload_len);
    buf.extend_from_slice(&[0u8; 4]); // crc placeholder
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&seq_base.to_le_bytes());
    buf.push(BATCH_KIND);
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        if op.key.len() > u32::MAX as usize || op.value.len() > u32::MAX as usize {
            return Err(Error::InvalidArgument(
                "key/value too large for wal".to_string(),
            ));
        }
        buf.push(op.kind as u8);
        buf.extend_from_slice(&(op.key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(op.value.len() as u32).to_le_bytes());
        buf.extend_from_slice(op.key);
        buf.extend_from_slice(op.value);
    }
    patch_crc(&mut buf);
    Ok(buf)
}

/// Decodes a run of consecutive framed records (as produced by
/// [`encode_record`] / [`encode_group_record`], possibly concatenated)
/// back into individual [`WalRecord`]s.
///
/// Unlike [`WriteAheadLog::replay`], which treats a bad checksum as the
/// log's torn tail, shipped bytes arrive over a CRC-protected transport
/// and must be perfect: any framing or checksum defect is an error here.
///
/// # Errors
///
/// Returns [`Error::Corruption`] for truncated framing, checksum
/// mismatches or malformed payloads.
pub fn decode_record_bytes(bytes: &[u8]) -> Result<Vec<WalRecord>> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        if off + RECORD_HEADER > bytes.len() {
            return Err(Error::Corruption("truncated wal record header".to_string()));
        }
        let stored_crc = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as usize;
        if len < PAYLOAD_FIXED {
            return Err(Error::Corruption(format!("wal record too short: {len}")));
        }
        let end = off + RECORD_HEADER + len;
        if end > bytes.len() {
            return Err(Error::Corruption(
                "truncated wal record payload".to_string(),
            ));
        }
        let payload = &bytes[off + RECORD_HEADER..end];
        let mut crc = Crc32::new();
        crc.update(&(len as u32).to_le_bytes());
        crc.update(payload);
        if crc.finish() != stored_crc {
            return Err(Error::Corruption("wal record crc mismatch".to_string()));
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if payload[8] == BATCH_KIND {
            if !decode_batch(payload, seq, &mut out) {
                return Err(Error::Corruption("malformed wal batch record".to_string()));
            }
        } else {
            let kind = OpKind::from_u8(payload[8])
                .ok_or_else(|| Error::Corruption("bad wal op kind".to_string()))?;
            let klen = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
            let vlen = u32::from_le_bytes(payload[13..17].try_into().unwrap()) as usize;
            if PAYLOAD_FIXED + klen + vlen != len {
                return Err(Error::Corruption("bad wal record lengths".to_string()));
            }
            out.push(WalRecord {
                key: payload[PAYLOAD_FIXED..PAYLOAD_FIXED + klen].to_vec(),
                value: payload[PAYLOAD_FIXED + klen..].to_vec(),
                seq,
                kind,
            });
        }
        off = end;
    }
    Ok(out)
}

/// Computes and stores the leading crc32 of a framed record buffer.
fn patch_crc(buf: &mut [u8]) {
    let mut crc = Crc32::new();
    crc.update(&buf[4..]);
    let crc = crc.finish().to_le_bytes();
    buf[..4].copy_from_slice(&crc);
}

#[derive(Debug)]
struct WalState {
    segments: Vec<RegionLease>,
    cursor: u64,
    end: u64,
    /// Set when a torn write left a detectably-partial record at the tail.
    /// Appending past it would put a good record *after* the tear, which
    /// replay (correctly) never reads — silently losing an acknowledged
    /// write. So the log fails all further appends until the MemTable
    /// rotates onto a fresh log.
    poisoned: bool,
}

/// An append-only log of one MemTable generation, stored in the NVM pool.
pub struct WriteAheadLog {
    pool: Arc<PmemPool>,
    segment_size: usize,
    state: Mutex<WalState>,
}

impl std::fmt::Debug for WriteAheadLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("WriteAheadLog")
            .field("segments", &s.segments.len())
            .field("cursor", &s.cursor)
            .finish()
    }
}

impl WriteAheadLog {
    /// Opens a fresh log that grows in `segment_size`-byte NVM segments.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] if the first segment cannot be
    /// allocated.
    pub fn new(pool: Arc<PmemPool>, segment_size: usize) -> Result<WriteAheadLog> {
        let segment_size = segment_size.max(4096);
        let first = pool.alloc(segment_size)?;
        // Zero the chain header and the first record header so replay of
        // an empty log stops immediately.
        pool.write_bytes(first.offset, &[0u8; SEGMENT_HEADER + RECORD_HEADER]);
        Ok(WriteAheadLog {
            segment_size,
            state: Mutex::new(WalState {
                cursor: first.offset + SEGMENT_HEADER as u64,
                end: first.end(),
                segments: vec![RegionLease::new(pool.clone(), first)],
                poisoned: false,
            }),
            pool,
        })
    }

    /// Appends a record; the write is persistent (modeled) when this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PoolExhausted`] when a new segment is needed and
    /// the pool is full, and [`Error::InvalidArgument`] for oversized keys
    /// or values.
    pub fn append(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        self.append_encoded(&encode_record(key, value, seq, kind)?)
    }

    /// Appends a whole **write group** (or batch) as one crc-framed
    /// record: one record header, one modeled NVM append for every
    /// operation of every writer in the group. Operations receive
    /// consecutive sequence numbers starting at `seq_base`, in slice
    /// order, and after a crash either every operation replays or none
    /// does (the durability half of LevelDB's `WriteBatch` semantics).
    ///
    /// The encode buffer is sized exactly from the group's byte length up
    /// front, so large groups never reallocate mid-encode.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`WriteAheadLog::append`].
    pub fn append_group(&self, ops: &[GroupOp<'_>], seq_base: SequenceNumber) -> Result<()> {
        let buf = encode_group_record(ops, seq_base)?;
        if buf.is_empty() {
            return Ok(());
        }
        self.append_encoded(&buf)
    }

    /// Appends one fully framed record (`crc | len | payload`) exactly as
    /// [`encode_record`] / [`encode_group_record`] produced it, so a
    /// caller that also ships the record encodes it once and logs and
    /// ships the same bytes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`WriteAheadLog::append`].
    pub fn append_encoded(&self, buf: &[u8]) -> Result<()> {
        if fault::hit(fault::points::WAL_APPEND_PRE_CRC).is_some() {
            // Injected fsync-style failure before persistence: nothing
            // reaches the log, the tail stays clean, and later appends may
            // succeed.
            return Err(Error::Io(std::io::Error::other(
                "injected wal append failure",
            )));
        }
        let total = buf.len();
        let mut s = self.state.lock();
        if s.poisoned {
            return Err(Error::Io(std::io::Error::other(
                "wal poisoned by earlier torn write; rotate the memtable",
            )));
        }
        // Leave room for a zero header terminator at the segment tail.
        if s.cursor + (total + RECORD_HEADER) as u64 > s.end {
            let seg_len = self
                .segment_size
                .max(total + RECORD_HEADER + SEGMENT_HEADER);
            let seg = self.pool.alloc(seg_len)?;
            // Initialize the new segment fully, then link it from the
            // current segment's chain header — replay never observes a
            // half-initialized segment.
            self.pool
                .write_bytes(seg.offset, &[0u8; SEGMENT_HEADER + RECORD_HEADER]);
            // Invariant: `segments` is non-empty from construction onwards
            // (`new` seeds it with the first segment).
            let prev = s.segments.last().unwrap().region();
            let mut link = [0u8; SEGMENT_HEADER];
            link[0..8].copy_from_slice(&seg.offset.to_le_bytes());
            link[8..16].copy_from_slice(&seg.len.to_le_bytes());
            self.pool.write_bytes(prev.offset, &link);
            s.cursor = seg.offset + SEGMENT_HEADER as u64;
            s.end = seg.end();
            s.segments.push(RegionLease::new(self.pool.clone(), seg));
        }
        let off = s.cursor;
        // Terminator for torn-tail detection, then the record itself. The
        // record's first bytes (the crc) are written last-ish by virtue of
        // being part of one bulk write; a torn write is caught by the crc.
        // Both pieces are one modeled device write: one fixed latency.
        self.pool
            .store_bytes(off + total as u64, &[0u8; RECORD_HEADER]);
        if fault::hit(fault::points::WAL_APPEND_TORN).is_some() {
            // Injected crash mid-append: the header (with the final crc)
            // lands, the payload is cut short. Replay sees a crc mismatch
            // and stops at the previous record; this log is poisoned until
            // rotation (see `WalState::poisoned`).
            self.pool.store_bytes(off, &buf[..total / 2]);
            self.pool.charge_write(total / 2 + RECORD_HEADER);
            s.poisoned = true;
            return Err(Error::Io(std::io::Error::other("injected torn wal append")));
        }
        s.cursor += total as u64;
        self.pool.store_bytes(off, buf);
        self.pool.charge_write(total + RECORD_HEADER);
        Ok(())
    }

    /// True once a torn write has poisoned the log (all appends fail until
    /// the owning MemTable rotates onto a fresh log).
    pub fn poisoned(&self) -> bool {
        self.state.lock().poisoned
    }

    /// Total bytes appended so far (all segments).
    pub fn bytes_written(&self) -> u64 {
        let s = self.state.lock();
        let full: u64 = s.segments[..s.segments.len() - 1]
            .iter()
            .map(|r| r.region().len)
            .sum();
        // Invariant: `segments` is non-empty from construction onwards.
        full + (s.cursor - s.segments.last().unwrap().region().offset) - SEGMENT_HEADER as u64
    }

    /// Segment regions, for the manifest.
    pub fn segments(&self) -> Vec<PmemRegion> {
        let s = self.state.lock();
        s.segments.iter().map(RegionLease::region).collect()
    }

    /// Marks every segment as garbage (called after the MemTable the log
    /// protected has been flushed and the manifest stopped naming it): the
    /// segments return to the pool when the last handle to this log drops.
    pub fn retire(&self) {
        for seg in &self.state.lock().segments {
            seg.retire();
        }
    }

    /// Retires the log and drops this handle: a sole owner's segments are
    /// back in the pool when this returns.
    pub fn release(self) {
        self.retire();
    }

    /// Replays the log starting from its first segment, following the
    /// persistent segment chain (so segments allocated after the last
    /// manifest store are still found). Returns the decoded records and
    /// every segment visited (for reclamation). Replay of a segment stops
    /// at the first torn or absent record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] only for structurally impossible
    /// states (e.g. record length exceeding its segment, a cyclic chain);
    /// a bad checksum is treated as the log's end, not an error.
    pub fn replay_chain(
        pool: &PmemPool,
        first: PmemRegion,
    ) -> Result<(Vec<WalRecord>, Vec<PmemRegion>)> {
        let mut segments = Vec::new();
        let mut seg = first;
        loop {
            segments.push(seg);
            if segments.len() > 1_000_000 {
                return Err(Error::Corruption("wal segment chain too long".to_string()));
            }
            let mut header = [0u8; SEGMENT_HEADER];
            pool.read_bytes(seg.offset, &mut header);
            let next_off = u64::from_le_bytes(header[0..8].try_into().unwrap());
            let next_len = u64::from_le_bytes(header[8..16].try_into().unwrap());
            if next_off == 0 || next_len == 0 {
                break;
            }
            if next_off + next_len > pool.capacity() as u64 {
                return Err(Error::Corruption(
                    "wal chain points outside pool".to_string(),
                ));
            }
            seg = PmemRegion {
                offset: next_off,
                len: next_len,
            };
        }
        let records = Self::replay(pool, &segments)?;
        Ok((records, segments))
    }

    /// Replays the records of `segments` (in order) from `pool`, stopping
    /// at the first torn or absent record of each segment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] only for structurally impossible
    /// states (e.g. record length exceeding its segment); a bad checksum is
    /// treated as the log's end, not an error.
    pub fn replay(pool: &PmemPool, segments: &[PmemRegion]) -> Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        'segments: for seg in segments {
            let mut off = seg.offset + SEGMENT_HEADER as u64;
            loop {
                if off + RECORD_HEADER as u64 > seg.end() {
                    break;
                }
                let mut header = [0u8; RECORD_HEADER];
                pool.read_bytes(off, &mut header);
                let stored_crc = u32::from_le_bytes(header[0..4].try_into().unwrap());
                let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
                if len == 0 {
                    // Normal end of this segment; appends continue in the
                    // next chained segment (which only exists if every
                    // record here completed).
                    break;
                }
                if len < PAYLOAD_FIXED {
                    break 'segments; // torn header: the log ends here
                }
                if off + (RECORD_HEADER + len) as u64 > seg.end() {
                    return Err(Error::Corruption(format!(
                        "wal record of {len} bytes exceeds segment"
                    )));
                }
                let mut payload = vec![0u8; len];
                pool.read_bytes(off + RECORD_HEADER as u64, &mut payload);
                let mut crc = Crc32::new();
                crc.update(&(len as u32).to_le_bytes());
                crc.update(&payload);
                if crc.finish() != stored_crc {
                    break 'segments; // torn record: the log ends here
                }
                let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                if payload[8] == BATCH_KIND {
                    if !decode_batch(&payload, seq, &mut out) {
                        break 'segments; // torn batch framing
                    }
                } else {
                    let kind = OpKind::from_u8(payload[8])
                        .ok_or_else(|| Error::Corruption("bad wal op kind".to_string()))?;
                    let klen = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
                    let vlen = u32::from_le_bytes(payload[13..17].try_into().unwrap()) as usize;
                    if PAYLOAD_FIXED + klen + vlen != len {
                        break 'segments; // torn lengths: the log ends here
                    }
                    out.push(WalRecord {
                        key: payload[PAYLOAD_FIXED..PAYLOAD_FIXED + klen].to_vec(),
                        value: payload[PAYLOAD_FIXED + klen..].to_vec(),
                        seq,
                        kind,
                    });
                }
                off += (RECORD_HEADER + len) as u64;
            }
        }
        Ok(out)
    }
}

/// Decodes a batch payload into individual records with consecutive
/// sequence numbers; returns false on malformed framing.
fn decode_batch(payload: &[u8], seq_base: u64, out: &mut Vec<WalRecord>) -> bool {
    if payload.len() < 13 {
        return false;
    }
    let count = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
    let mut pos = 13usize;
    let mut batch = Vec::with_capacity(count.min(1024));
    for i in 0..count {
        if pos + 9 > payload.len() {
            return false;
        }
        let Some(kind) = OpKind::from_u8(payload[pos]) else {
            return false;
        };
        let klen = u32::from_le_bytes(payload[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(payload[pos + 5..pos + 9].try_into().unwrap()) as usize;
        pos += 9;
        if pos + klen + vlen > payload.len() {
            return false;
        }
        batch.push(WalRecord {
            key: payload[pos..pos + klen].to_vec(),
            value: payload[pos + klen..pos + klen + vlen].to_vec(),
            seq: seq_base + i as u64,
            kind,
        });
        pos += klen + vlen;
    }
    if pos != payload.len() {
        return false;
    }
    out.extend(batch);
    true
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

    fn group_ops(entries: &[(Vec<u8>, Vec<u8>, OpKind)]) -> Vec<GroupOp<'_>> {
        entries
            .iter()
            .map(|(key, value, kind)| GroupOp {
                key,
                value,
                kind: *kind,
            })
            .collect()
    }

    #[test]
    fn append_replay_round_trip() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        wal.append(b"a", b"1", 1, OpKind::Put).unwrap();
        wal.append(b"b", b"", 2, OpKind::Delete).unwrap();
        wal.append(b"c", b"333", 3, OpKind::Put).unwrap();
        let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0],
            WalRecord {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
                seq: 1,
                kind: OpKind::Put
            }
        );
        assert_eq!(records[1].kind, OpKind::Delete);
        assert_eq!(records[2].value, b"333");
    }

    #[test]
    fn empty_log_replays_empty() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        assert!(WriteAheadLog::replay(&p, &wal.segments())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn grows_across_segments() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 4096).unwrap();
        let value = vec![9u8; 500];
        for i in 0..100u32 {
            wal.append(
                format!("key{i:04}").as_bytes(),
                &value,
                i as u64 + 1,
                OpKind::Put,
            )
            .unwrap();
        }
        assert!(wal.segments().len() > 5);
        let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
        assert_eq!(records.len(), 100);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.key, format!("key{i:04}").into_bytes());
        }
    }

    #[test]
    fn torn_tail_stops_replay() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        wal.append(b"good1", b"v", 1, OpKind::Put).unwrap();
        wal.append(b"good2", b"v", 2, OpKind::Put).unwrap();
        wal.append(b"torn", b"victim", 3, OpKind::Put).unwrap();
        // Corrupt a byte inside the third record's payload.
        let segs = wal.segments();
        let state = wal.state.lock();
        let third_start = state.cursor - (RECORD_HEADER + PAYLOAD_FIXED + 4 + 6) as u64;
        drop(state);
        p.write_bytes(third_start + RECORD_HEADER as u64 + 9, &[0xFF]);
        let records = WriteAheadLog::replay(&p, &segs).unwrap();
        assert_eq!(records.len(), 2, "replay must stop at torn record");
        assert_eq!(records[1].key, b"good2");
    }

    #[test]
    fn truncation_at_every_offset_replays_whole_prefix() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        wal.append(b"first", b"v1", 1, OpKind::Put).unwrap();
        wal.append(b"second", b"v2", 2, OpKind::Put).unwrap();
        let start = wal.state.lock().cursor;
        // The final record is a group: torn-tail recovery must drop the
        // whole group, never a suffix of it.
        let batch = vec![
            (b"g1".to_vec(), b"vv1".to_vec(), OpKind::Put),
            (b"g2".to_vec(), b"vv2".to_vec(), OpKind::Put),
        ];
        wal.append_group(&group_ops(&batch), 3).unwrap();
        let end = wal.state.lock().cursor;
        let segs = wal.segments();
        let record_len = (end - start) as usize;
        let len = record_len + RECORD_HEADER; // record + terminator
        let mut saved = vec![0u8; len];
        p.read_bytes(start, &mut saved);
        for cut in 0..record_len {
            // Simulate a crash after exactly `cut` bytes of the final
            // record reached the log (fresh-segment memory reads zero).
            p.write_bytes(start + cut as u64, &vec![0u8; len - cut]);
            let records = WriteAheadLog::replay(&p, &segs)
                .unwrap_or_else(|e| panic!("replay errored at cut {cut}: {e}"));
            assert_eq!(records.len(), 2, "cut at byte {cut} of final record");
            assert_eq!(records[1].key, b"second");
            p.write_bytes(start, &saved);
        }
        // A crash at or past the record's end (mid-terminator) keeps it:
        // the record is complete, and the terminator region is zero anyway.
        p.write_bytes(start + record_len as u64, &[0u8; RECORD_HEADER]);
        assert_eq!(WriteAheadLog::replay(&p, &segs).unwrap().len(), 4);
    }

    #[test]
    fn release_frees_segments() {
        let p = pool();
        let before = p.used_bytes();
        let wal = WriteAheadLog::new(p.clone(), 4096).unwrap();
        for i in 0..50u32 {
            wal.append(&i.to_le_bytes(), &[0u8; 300], i as u64, OpKind::Put)
                .unwrap();
        }
        assert!(p.used_bytes() > before);
        wal.release();
        assert_eq!(p.used_bytes(), before);
    }

    #[test]
    fn dropping_an_unretired_log_keeps_it_replayable() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 4096).unwrap();
        wal.append(b"k", b"v", 1, OpKind::Put).unwrap();
        let segs = wal.segments();
        let used = p.used_bytes();
        drop(wal);
        assert_eq!(p.used_bytes(), used, "an un-flushed log must survive");
        assert_eq!(WriteAheadLog::replay(&p, &segs).unwrap().len(), 1);
    }

    #[test]
    fn bytes_written_tracks_appends() {
        let p = pool();
        let wal = WriteAheadLog::new(p, 64 * 1024).unwrap();
        assert_eq!(wal.bytes_written(), 0);
        wal.append(b"k", b"v", 1, OpKind::Put).unwrap();
        let one = wal.bytes_written();
        assert!(one > 0);
        wal.append(b"k", b"v", 2, OpKind::Put).unwrap();
        assert_eq!(wal.bytes_written(), 2 * one);
    }

    #[test]
    fn oversized_record_gets_dedicated_segment() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 4096).unwrap();
        let huge = vec![5u8; 100 * 1024];
        wal.append(b"big", &huge, 1, OpKind::Put).unwrap();
        let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].value, huge);
    }

    #[test]
    fn batch_round_trip_interleaved_with_singles() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        wal.append(b"single1", b"v1", 1, OpKind::Put).unwrap();
        let batch = vec![
            (b"b1".to_vec(), b"v2".to_vec(), OpKind::Put),
            (b"b2".to_vec(), Vec::new(), OpKind::Delete),
            (b"b3".to_vec(), b"v4".to_vec(), OpKind::Put),
        ];
        wal.append_group(&group_ops(&batch), 2).unwrap();
        wal.append(b"single2", b"v5", 5, OpKind::Put).unwrap();
        let (records, _) = WriteAheadLog::replay_chain(&p, wal.segments()[0]).unwrap();
        assert_eq!(records.len(), 5);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(records[1].key, b"b1");
        assert_eq!(records[2].kind, OpKind::Delete);
        assert_eq!(records[4].key, b"single2");
    }

    #[test]
    fn group_append_replays_every_writer_in_order() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        // Three writers' ops coalesced into one group record.
        let (k1, v1) = (b"w1-key".to_vec(), b"w1-val".to_vec());
        let (k2, v2) = (b"w2-key".to_vec(), Vec::new());
        let (k3, v3) = (b"w3-key".to_vec(), vec![9u8; 300]);
        let ops = [
            GroupOp {
                key: &k1,
                value: &v1,
                kind: OpKind::Put,
            },
            GroupOp {
                key: &k2,
                value: &v2,
                kind: OpKind::Delete,
            },
            GroupOp {
                key: &k3,
                value: &v3,
                kind: OpKind::Put,
            },
        ];
        let before = wal.bytes_written();
        wal.append_group(&ops, 10).unwrap();
        // One record for the whole group: framing overhead is a single
        // header + batch prefix, not one header per op.
        let body: usize = ops.iter().map(|op| 9 + op.key.len() + op.value.len()).sum();
        assert_eq!(
            wal.bytes_written() - before,
            (RECORD_HEADER + 8 + 1 + 4 + body) as u64
        );
        let records = WriteAheadLog::replay(&p, &wal.segments()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        assert_eq!(records[1].kind, OpKind::Delete);
        assert_eq!(records[2].value, v3);
        // Empty groups are a no-op.
        wal.append_group(&[], 13).unwrap();
        assert_eq!(WriteAheadLog::replay(&p, &wal.segments()).unwrap().len(), 3);
    }

    #[test]
    fn torn_batch_replays_none_of_it() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        wal.append(b"before", b"v", 1, OpKind::Put).unwrap();
        let batch = vec![
            (b"b1".to_vec(), vec![1u8; 100], OpKind::Put),
            (b"b2".to_vec(), vec![2u8; 100], OpKind::Put),
        ];
        wal.append_group(&group_ops(&batch), 2).unwrap();
        // Corrupt one byte inside the batch payload: the whole batch must
        // vanish from replay (all-or-nothing durability).
        let seg = wal.segments()[0];
        let state = wal.state.lock();
        let batch_total = 8 + (8 + 1 + 4) + 2 * (9 + 2 + 100);
        let batch_start = state.cursor - batch_total as u64;
        drop(state);
        let mut b = [0u8; 1];
        p.read_bytes(batch_start + 30, &mut b);
        p.write_bytes(batch_start + 30, &[b[0] ^ 0xFF]);
        let (records, _) = WriteAheadLog::replay_chain(&p, seg).unwrap();
        assert_eq!(records.len(), 1, "batch must replay all-or-nothing");
        assert_eq!(records[0].key, b"before");
    }

    #[test]
    fn replay_survives_pool_snapshot() {
        let p = pool();
        let wal = WriteAheadLog::new(p.clone(), 64 * 1024).unwrap();
        wal.append(b"persisted", b"yes", 7, OpKind::Put).unwrap();
        let segs = wal.segments();
        let mut path = std::env::temp_dir();
        path.push(format!("miodb-wal-snap-{}", std::process::id()));
        p.snapshot_to_file(&path).unwrap();
        let restored = PmemPool::restore_from_file(
            &path,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap();
        let records = WriteAheadLog::replay(&restored, &segs).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, b"persisted");
        assert_eq!(records[0].seq, 7);
        std::fs::remove_file(&path).ok();
    }
}
