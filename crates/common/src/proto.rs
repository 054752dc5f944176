//! The network wire protocol shared by `miodb-server` and `miodb-client`.
//!
//! Frames are length-prefixed and CRC-protected so a stream can be parsed
//! incrementally and corruption is detected before any payload is trusted:
//!
//! ```text
//! v2: [u32 len][u8 version][u8 opcode][u32 request_id]
//!     [u64 trace_id][u8 trace_flags][body ...][u32 crc32]
//!  ^len counts everything after itself (header + body + crc)
//!  ^crc32 covers version..body (everything between len and crc)
//! ```
//!
//! All integers are little-endian. `request_id` is chosen by the client and
//! echoed verbatim in the response so pipelined requests can be matched to
//! their answers (the server always responds in request order; the id is a
//! cross-check, not a reordering mechanism). Responses set the high bit of
//! the request's opcode; errors use the dedicated [`OP_ERR`] opcode.
//!
//! The header carries a trace context — a 64-bit trace id plus a flags
//! byte whose bit 0 marks the request as sampled — so the
//! [`trace`] subsystem can stitch client, server and engine spans into one
//! tree. Version 2 is the only version on the wire: a frame
//! with any other version byte is rejected as corruption and the
//! connection is dropped.

use crate::crc32::crc32;
use crate::engine::ScanEntry;
use crate::error::{Error, Result};
use crate::trace;
use crate::types::OpKind;
use std::io::{Read, Write};

/// Protocol version carried in every frame header written by this build.
pub const PROTO_VERSION: u8 = 2;

/// Oldest protocol version still accepted when reading: none older than
/// the one written.
pub const MIN_PROTO_VERSION: u8 = PROTO_VERSION;

/// Largest accepted frame body: bounds allocation from untrusted input.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Response frames set this bit on the request's opcode.
pub const RESPONSE_BIT: u8 = 0x80;

/// Error-response opcode (any request can fail).
pub const OP_ERR: u8 = 0x7F;

/// Not-leader response opcode: a replication follower refused a mutation.
/// Distinct from [`OP_ERR`] so clients can redirect instead of failing;
/// the body carries the refusing node's epoch plus a leader-address hint
/// (possibly empty).
pub const OP_NOT_LEADER: u8 = 0x7E;

/// Stale-epoch response opcode: a *deposed* leader refused a request
/// because a newer leader exists at a higher epoch. Distinct from
/// [`OP_NOT_LEADER`] so clients can tell fencing (split-brain
/// protection) from an ordinary follower redirect; the body carries the
/// refusing node's current epoch and a leader hint (possibly empty).
pub const OP_STALE_EPOCH: u8 = 0x7D;

/// Quorum-lost response opcode: the leader cannot reach a majority of
/// its replication group, so a quorum-acked mutation is refused *before*
/// entering the engine. The body carries the reachable / required member
/// counts; retrying is always safe.
pub const OP_QUORUM_LOST: u8 = 0x7C;

/// Backpressure advisory opcode: the server has stopped reading this
/// connection because its request queue or response buffer hit the cap.
/// Sent in-band with request id 0, *between* ordinary responses — it does
/// not answer any request, so pipelined positional matching is
/// unaffected; clients count it and keep draining responses. The body
/// carries the queued-request count at the moment the connection was
/// paused.
pub const OP_BACKPRESSURE: u8 = 0x7B;

/// Trace-flags bit marking the request as sampled for tracing.
pub const TRACE_SAMPLED: u8 = 0x01;

/// Fixed header bytes after the length prefix (version + opcode + id +
/// trace id + trace flags).
const HEADER_BYTES_V2: usize = 15;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Point lookup.
    Get = 1,
    /// Insert/overwrite.
    Put = 2,
    /// Tombstone write.
    Delete = 3,
    /// Ordered range read from a start key.
    Scan = 4,
    /// Multiple put/delete operations in one frame.
    Batch = 5,
    /// Engine + service metrics in Prometheus text format.
    Stats = 6,
    /// Drain collected trace spans as Chrome trace-event JSON.
    Trace = 7,
    /// Follower subscribes to the leader's replication log from an offset.
    ReplSubscribe = 8,
    /// Leader pushes committed WAL record batches to a subscribed
    /// follower (response-bit frames; never sent as a request).
    ReplRecords = 9,
    /// Follower acknowledges the highest contiguously applied offset.
    ReplAck = 10,
    /// Follower fetches a pool snapshot for cold/lagging catch-up.
    SnapshotFetch = 11,
    /// Election vote request (or, with epoch 0, a liveness/epoch probe)
    /// between replication group members.
    ReplVote = 12,
}

impl Opcode {
    /// All opcodes, for per-opcode metric tables.
    pub const ALL: [Opcode; 12] = [
        Opcode::Get,
        Opcode::Put,
        Opcode::Delete,
        Opcode::Scan,
        Opcode::Batch,
        Opcode::Stats,
        Opcode::Trace,
        Opcode::ReplSubscribe,
        Opcode::ReplRecords,
        Opcode::ReplAck,
        Opcode::SnapshotFetch,
        Opcode::ReplVote,
    ];

    /// Parses a wire opcode byte (without the response bit).
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Get),
            2 => Some(Opcode::Put),
            3 => Some(Opcode::Delete),
            4 => Some(Opcode::Scan),
            5 => Some(Opcode::Batch),
            6 => Some(Opcode::Stats),
            7 => Some(Opcode::Trace),
            8 => Some(Opcode::ReplSubscribe),
            9 => Some(Opcode::ReplRecords),
            10 => Some(Opcode::ReplAck),
            11 => Some(Opcode::SnapshotFetch),
            12 => Some(Opcode::ReplVote),
            _ => None,
        }
    }

    /// Lower-case label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Opcode::Get => "get",
            Opcode::Put => "put",
            Opcode::Delete => "delete",
            Opcode::Scan => "scan",
            Opcode::Batch => "batch",
            Opcode::Stats => "stats",
            Opcode::Trace => "trace",
            Opcode::ReplSubscribe => "repl_subscribe",
            Opcode::ReplRecords => "repl_records",
            Opcode::ReplAck => "repl_ack",
            Opcode::SnapshotFetch => "snapshot_fetch",
            Opcode::ReplVote => "repl_vote",
        }
    }
}

/// One contiguous run of framed WAL records shipped leader → follower.
///
/// `bytes` is the exact on-NVM record framing ([`crc32` | `len` |
/// payload]) produced by the leader's WAL append — followers feed it
/// straight to the WAL decoder, so a single CRC protects both the pmem
/// copy and the wire copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplBatch {
    /// First sequence number in the batch.
    pub seq_first: u64,
    /// Last sequence number in the batch (inclusive).
    pub seq_last: u64,
    /// Framed WAL record bytes, byte-identical to the leader's log.
    pub bytes: Vec<u8>,
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: Vec<u8>,
    },
    /// Insert/overwrite.
    Put {
        /// Key to write.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Tombstone write.
    Delete {
        /// Key to delete.
        key: Vec<u8>,
    },
    /// Up to `limit` entries with keys `>= start`, ascending.
    Scan {
        /// First candidate key.
        start: Vec<u8>,
        /// Maximum entries returned.
        limit: u32,
    },
    /// Multiple put/delete operations applied in order.
    Batch {
        /// `(key, value, kind)` triples; `value` is empty for deletes.
        ops: Vec<(Vec<u8>, Vec<u8>, OpKind)>,
    },
    /// Metrics snapshot request.
    Stats,
    /// Drain the server's collected trace spans (Chrome trace JSON).
    TraceDump,
    /// Subscribe to the replication log; the leader answers with
    /// [`Response::ReplSubscribed`] and then pushes
    /// [`Response::ReplRecords`] frames on the same connection.
    ReplSubscribe {
        /// Resume point: the subscriber has applied everything `<= from`
        /// and wants records starting at `from + 1`.
        from: u64,
        /// The subscriber's current epoch; a leader that sees a higher
        /// one than its own has been deposed and must refuse the stream.
        epoch: u64,
    },
    /// Follower → leader progress report; no response is sent. Also the
    /// follower → leader heartbeat: followers ack every pushed frame,
    /// including empty heartbeats, so the leader's failure detector sees
    /// a regular pulse.
    ReplAck {
        /// Highest contiguously applied sequence number.
        offset: u64,
        /// The follower's current epoch; carrying it on every ack is how
        /// a stale leader discovers it was deposed mid-stream.
        epoch: u64,
    },
    /// Fetch a pool snapshot for cold-follower catch-up.
    SnapshotFetch,
    /// Election vote request. `epoch == 0` is a *probe*: never grantable,
    /// it just solicits the peer's `(epoch, last_seq, leader)` status.
    ReplVote {
        /// The epoch the candidate is standing for (0 = probe).
        epoch: u64,
        /// The candidate's highest applied sequence number.
        last_seq: u64,
        /// The candidate's advertised address (vote ledger key).
        candidate: String,
    },
}

impl Request {
    /// The request's wire opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Get { .. } => Opcode::Get,
            Request::Put { .. } => Opcode::Put,
            Request::Delete { .. } => Opcode::Delete,
            Request::Scan { .. } => Opcode::Scan,
            Request::Batch { .. } => Opcode::Batch,
            Request::Stats => Opcode::Stats,
            Request::TraceDump => Opcode::Trace,
            Request::ReplSubscribe { .. } => Opcode::ReplSubscribe,
            Request::ReplAck { .. } => Opcode::ReplAck,
            Request::SnapshotFetch => Opcode::SnapshotFetch,
            Request::ReplVote { .. } => Opcode::ReplVote,
        }
    }

    /// Serializes the body (everything between the header and the CRC).
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Get { key } | Request::Delete { key } => put_bytes(buf, key),
            Request::Put { key, value } => {
                put_bytes(buf, key);
                put_bytes(buf, value);
            }
            Request::Scan { start, limit } => {
                put_bytes(buf, start);
                buf.extend_from_slice(&limit.to_le_bytes());
            }
            Request::Batch { ops } => {
                buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for (key, value, kind) in ops {
                    buf.push(match kind {
                        OpKind::Put => 0,
                        OpKind::Delete => 1,
                    });
                    put_bytes(buf, key);
                    put_bytes(buf, value);
                }
            }
            Request::Stats | Request::TraceDump | Request::SnapshotFetch => {}
            Request::ReplSubscribe { from, epoch } => {
                buf.extend_from_slice(&from.to_le_bytes());
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            Request::ReplAck { offset, epoch } => {
                buf.extend_from_slice(&offset.to_le_bytes());
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            Request::ReplVote {
                epoch,
                last_seq,
                candidate,
            } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&last_seq.to_le_bytes());
                put_bytes(buf, candidate.as_bytes());
            }
        }
    }

    /// Parses a request from an opcode and body.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for truncated or malformed bodies.
    pub fn decode(opcode: u8, body: &[u8]) -> Result<Request> {
        let op = Opcode::from_u8(opcode)
            .ok_or_else(|| Error::Corruption(format!("unknown opcode {opcode:#x}")))?;
        let mut c = Cursor { buf: body, pos: 0 };
        let req = match op {
            Opcode::Get => Request::Get {
                key: c.take_bytes()?,
            },
            Opcode::Put => Request::Put {
                key: c.take_bytes()?,
                value: c.take_bytes()?,
            },
            Opcode::Delete => Request::Delete {
                key: c.take_bytes()?,
            },
            Opcode::Scan => Request::Scan {
                start: c.take_bytes()?,
                limit: c.take_u32()?,
            },
            Opcode::Batch => {
                let n = c.take_u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let kind = match c.take_u8()? {
                        0 => OpKind::Put,
                        1 => OpKind::Delete,
                        other => {
                            return Err(Error::Corruption(format!("bad batch op kind {other}")))
                        }
                    };
                    let key = c.take_bytes()?;
                    let value = c.take_bytes()?;
                    ops.push((key, value, kind));
                }
                Request::Batch { ops }
            }
            Opcode::Stats => Request::Stats,
            Opcode::Trace => Request::TraceDump,
            Opcode::ReplSubscribe => Request::ReplSubscribe {
                from: c.take_u64()?,
                epoch: c.take_u64()?,
            },
            Opcode::ReplAck => Request::ReplAck {
                offset: c.take_u64()?,
                epoch: c.take_u64()?,
            },
            Opcode::SnapshotFetch => Request::SnapshotFetch,
            Opcode::ReplVote => Request::ReplVote {
                epoch: c.take_u64()?,
                last_seq: c.take_u64()?,
                candidate: String::from_utf8_lossy(&c.take_bytes()?).into_owned(),
            },
            Opcode::ReplRecords => {
                return Err(Error::Corruption(
                    "ReplRecords frames are push-only (never a request)".to_string(),
                ))
            }
        };
        c.finish()?;
        Ok(req)
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// GET result: `Some(value)` or `None` for absent/deleted keys.
    Value(Option<Vec<u8>>),
    /// PUT/DELETE/BATCH acknowledgement: the write is logged and durable.
    Ok,
    /// SCAN result, ascending by key.
    Entries(Vec<ScanEntry>),
    /// STATS result: Prometheus text exposition.
    Stats(String),
    /// TRACE result: Chrome trace-event JSON of drained spans.
    Trace(String),
    /// The request failed server-side.
    Err(String),
    /// REPL_SUBSCRIBE accepted: the range the leader's in-memory
    /// replication log still covers. If the subscriber's resume point is
    /// older than `log_start - 1` it must snapshot-catch-up first.
    ReplSubscribed {
        /// Oldest sequence number still retained in the replication log
        /// (0 when the log has never truncated).
        log_start: u64,
        /// Highest sequence number published so far (0 when empty).
        last: u64,
        /// The leader's current epoch; the subscriber adopts it.
        epoch: u64,
    },
    /// Pushed record batches (empty = heartbeat / liveness probe). Every
    /// frame carries the leader's epoch so a follower that has adopted a
    /// newer one refuses a stale leader's records immediately.
    ReplRecords {
        /// The sending leader's epoch at push time.
        epoch: u64,
        /// Record batches, oldest first (empty = heartbeat).
        batches: Vec<ReplBatch>,
    },
    /// SNAPSHOT_FETCH result: a serialized pool snapshot image.
    Snapshot(Vec<u8>),
    /// A mutation was refused because this node is a follower; the
    /// payload hints where the leader lives (possibly empty).
    NotLeader {
        /// The refusing node's current epoch — clients ignore hints from
        /// responses older than the newest epoch they have seen.
        epoch: u64,
        /// Believed leader address (possibly empty mid-election).
        hint: String,
    },
    /// A request was refused because this node is a *deposed* leader
    /// fenced by a newer epoch (split-brain protection).
    StaleEpoch {
        /// The refusing node's current (newer) epoch.
        epoch: u64,
        /// Believed leader address (possibly empty).
        hint: String,
    },
    /// A quorum-acked mutation was refused before entering the engine:
    /// the leader cannot currently reach a majority of its group.
    QuorumLost {
        /// Reachable members, counting the leader itself.
        have: u32,
        /// Members required for a majority.
        need: u32,
    },
    /// In-band backpressure advisory (always request id 0): the server
    /// stopped reading this connection because its request queue or
    /// response buffer hit the configured cap. Purely informational —
    /// clients skip it during positional response matching and keep
    /// draining responses, which is what releases the pressure.
    Backpressure {
        /// Requests queued on the connection when it was paused.
        queued: u32,
    },
    /// REPL_VOTE result.
    Vote {
        /// Whether the vote was granted (always `false` for probes).
        granted: bool,
        /// The voter's current epoch (after observing the request's).
        epoch: u64,
        /// The voter's highest applied sequence number.
        last_seq: u64,
        /// Whether the voter currently believes its leader is alive
        /// (`true` when the voter *is* a leader).
        leader_live: bool,
        /// The voter's believed leader address (possibly empty).
        leader_hint: String,
    },
}

impl Response {
    /// The wire opcode for this response to a request with `req_op`.
    pub fn opcode(&self, req_op: Opcode) -> u8 {
        match self {
            Response::Err(_) => OP_ERR | RESPONSE_BIT,
            Response::NotLeader { .. } => OP_NOT_LEADER | RESPONSE_BIT,
            Response::StaleEpoch { .. } => OP_STALE_EPOCH | RESPONSE_BIT,
            Response::QuorumLost { .. } => OP_QUORUM_LOST | RESPONSE_BIT,
            Response::Backpressure { .. } => OP_BACKPRESSURE | RESPONSE_BIT,
            Response::ReplRecords { .. } => Opcode::ReplRecords as u8 | RESPONSE_BIT,
            _ => req_op as u8 | RESPONSE_BIT,
        }
    }

    /// Serializes the body.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Value(v) => match v {
                Some(v) => {
                    buf.push(1);
                    put_bytes(buf, v);
                }
                None => buf.push(0),
            },
            Response::Ok => {}
            Response::Entries(entries) => {
                buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    put_bytes(buf, &e.key);
                    put_bytes(buf, &e.value);
                }
            }
            Response::Stats(text) | Response::Trace(text) => put_bytes(buf, text.as_bytes()),
            Response::Err(msg) => put_bytes(buf, msg.as_bytes()),
            Response::NotLeader { epoch, hint } | Response::StaleEpoch { epoch, hint } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(buf, hint.as_bytes());
            }
            Response::QuorumLost { have, need } => {
                buf.extend_from_slice(&have.to_le_bytes());
                buf.extend_from_slice(&need.to_le_bytes());
            }
            Response::Backpressure { queued } => {
                buf.extend_from_slice(&queued.to_le_bytes());
            }
            Response::ReplSubscribed {
                log_start,
                last,
                epoch,
            } => {
                buf.extend_from_slice(&log_start.to_le_bytes());
                buf.extend_from_slice(&last.to_le_bytes());
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::ReplRecords { epoch, batches } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&(batches.len() as u32).to_le_bytes());
                for b in batches {
                    buf.extend_from_slice(&b.seq_first.to_le_bytes());
                    buf.extend_from_slice(&b.seq_last.to_le_bytes());
                    put_bytes(buf, &b.bytes);
                }
            }
            Response::Snapshot(bytes) => put_bytes(buf, bytes),
            Response::Vote {
                granted,
                epoch,
                last_seq,
                leader_live,
                leader_hint,
            } => {
                buf.push(u8::from(*granted));
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&last_seq.to_le_bytes());
                buf.push(u8::from(*leader_live));
                put_bytes(buf, leader_hint.as_bytes());
            }
        }
    }

    /// Parses a response frame's body given its wire opcode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for truncated or malformed bodies.
    pub fn decode(opcode: u8, body: &[u8]) -> Result<Response> {
        if opcode & RESPONSE_BIT == 0 {
            return Err(Error::Corruption(format!(
                "response frame without response bit: {opcode:#x}"
            )));
        }
        let base = opcode & !RESPONSE_BIT;
        let mut c = Cursor { buf: body, pos: 0 };
        let resp = if base == OP_ERR {
            Response::Err(String::from_utf8_lossy(&c.take_bytes()?).into_owned())
        } else if base == OP_NOT_LEADER {
            Response::NotLeader {
                epoch: c.take_u64()?,
                hint: String::from_utf8_lossy(&c.take_bytes()?).into_owned(),
            }
        } else if base == OP_STALE_EPOCH {
            Response::StaleEpoch {
                epoch: c.take_u64()?,
                hint: String::from_utf8_lossy(&c.take_bytes()?).into_owned(),
            }
        } else if base == OP_QUORUM_LOST {
            Response::QuorumLost {
                have: c.take_u32()?,
                need: c.take_u32()?,
            }
        } else if base == OP_BACKPRESSURE {
            Response::Backpressure {
                queued: c.take_u32()?,
            }
        } else {
            let op = Opcode::from_u8(base)
                .ok_or_else(|| Error::Corruption(format!("unknown response opcode {base:#x}")))?;
            match op {
                Opcode::Get => match c.take_u8()? {
                    0 => Response::Value(None),
                    1 => Response::Value(Some(c.take_bytes()?)),
                    other => {
                        return Err(Error::Corruption(format!("bad GET presence byte {other}")))
                    }
                },
                Opcode::Put | Opcode::Delete | Opcode::Batch => Response::Ok,
                Opcode::Scan => {
                    let n = c.take_u32()? as usize;
                    let mut entries = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let key = c.take_bytes()?;
                        let value = c.take_bytes()?;
                        entries.push(ScanEntry { key, value });
                    }
                    Response::Entries(entries)
                }
                Opcode::Stats => {
                    Response::Stats(String::from_utf8_lossy(&c.take_bytes()?).into_owned())
                }
                Opcode::Trace => {
                    Response::Trace(String::from_utf8_lossy(&c.take_bytes()?).into_owned())
                }
                Opcode::ReplSubscribe => Response::ReplSubscribed {
                    log_start: c.take_u64()?,
                    last: c.take_u64()?,
                    epoch: c.take_u64()?,
                },
                Opcode::ReplRecords => {
                    let epoch = c.take_u64()?;
                    let n = c.take_u32()? as usize;
                    let mut batches = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let seq_first = c.take_u64()?;
                        let seq_last = c.take_u64()?;
                        let bytes = c.take_bytes()?;
                        batches.push(ReplBatch {
                            seq_first,
                            seq_last,
                            bytes,
                        });
                    }
                    Response::ReplRecords { epoch, batches }
                }
                // A ReplAck never gets a real response; decoding one (e.g.
                // in a test harness echo) degrades to a bare Ok.
                Opcode::ReplAck => Response::Ok,
                Opcode::SnapshotFetch => Response::Snapshot(c.take_bytes()?),
                Opcode::ReplVote => Response::Vote {
                    granted: c.take_u8()? != 0,
                    epoch: c.take_u64()?,
                    last_seq: c.take_u64()?,
                    leader_live: c.take_u8()? != 0,
                    leader_hint: String::from_utf8_lossy(&c.take_bytes()?).into_owned(),
                },
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Writes one v2 frame (`len | version | opcode | id | trace | body |
/// crc`). The trace context is the calling thread's current one (see
/// [`trace::current`]) — all-zero when tracing is off, so the header cost
/// is 9 constant bytes and no atomics beyond one relaxed load.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write>(w: &mut W, opcode: u8, id: u32, body: &[u8]) -> std::io::Result<()> {
    let ctx = trace::current();
    let mut head = [0u8; 4 + HEADER_BYTES_V2];
    let len = (HEADER_BYTES_V2 + body.len() + 4) as u32;
    head[0..4].copy_from_slice(&len.to_le_bytes());
    head[4] = PROTO_VERSION;
    head[5] = opcode;
    head[6..10].copy_from_slice(&id.to_le_bytes());
    head[10..18].copy_from_slice(&ctx.trace_id.to_le_bytes());
    head[18] = if ctx.sampled { TRACE_SAMPLED } else { 0 };
    let mut crc = crate::crc32::Crc32::new();
    crc.update(&head[4..]);
    crc.update(body);
    w.write_all(&head)?;
    w.write_all(body)?;
    w.write_all(&crc.finish().to_le_bytes())
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Wire opcode (response bit included for responses).
    pub opcode: u8,
    /// Client-chosen request id, echoed in responses.
    pub id: u32,
    /// Trace id propagated from the client (0 when untraced).
    pub trace_id: u64,
    /// Whether the request is sampled for tracing.
    pub sampled: bool,
    /// Frame body (between header and CRC).
    pub body: Vec<u8>,
}

/// Least room a blocking read offers the transport: the 8 KiB a
/// `BufReader` would, so reading through the decoder never takes more
/// `read` calls than buffered reads of the same stream.
const READ_CHUNK: usize = 8 * 1024;

/// The frame parser: an incremental decoder that keeps a partial frame
/// across calls.
///
/// A non-blocking transport pushes bytes in arbitrary chunks with
/// [`feed`](Self::feed) and drains complete frames with
/// [`next_frame`](Self::next_frame); a blocking one pulls a frame with
/// [`read_frame`](Self::read_frame). Both validate through `next_frame`.
/// A decode error is sticky in practice: the stream is desynchronized, so
/// callers must drop the connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// `buf[start..end]` holds the undecoded bytes; `buf[end..]` is
    /// initialized room that blocking reads land in, so a read into
    /// storage already sized for it costs no allocation or zero-fill.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix once it dominates the buffer, so a
        // long-lived connection doesn't grow its buffer without bound;
        // lazily, to keep feeds O(1) amortized.
        if self.start > 4096 && self.start * 2 >= self.end {
            self.compact();
        }
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Number of buffered bytes not yet decoded into frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for CRC mismatches, bad versions and
    /// frames too short or too large; the connection must be dropped
    /// afterwards.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let Some(len) = self.frame_len() else {
            return Ok(None);
        };
        if len < HEADER_BYTES_V2 + 4 {
            return Err(Error::Corruption(format!("frame too short: {len} bytes")));
        }
        if len > MAX_FRAME_BYTES {
            return Err(Error::Corruption(format!("frame too large: {len} bytes")));
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let (payload, crc_bytes) = self.buf[self.start + 4..self.start + 4 + len].split_at(len - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte crc"));
        if crc32(payload) != want {
            return Err(Error::Corruption("frame crc mismatch".to_string()));
        }
        // The length check above guarantees the payload holds a header.
        if payload[0] != PROTO_VERSION {
            return Err(Error::Corruption(format!(
                "unsupported protocol version {}",
                payload[0]
            )));
        }
        let frame = Frame {
            opcode: payload[1],
            id: u32::from_le_bytes(payload[2..6].try_into().expect("4-byte id")),
            trace_id: u64::from_le_bytes(payload[6..14].try_into().expect("8-byte trace id")),
            sampled: payload[14] & TRACE_SAMPLED != 0,
            body: payload[HEADER_BYTES_V2..].to_vec(),
        };
        self.start += 4 + len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(frame))
    }

    /// Reads one frame from a blocking transport; `Ok(None)` means the
    /// peer closed the stream cleanly (EOF with nothing buffered).
    ///
    /// A frame already buffered is returned without touching `r`;
    /// otherwise bytes are read into the decoder until one completes. A
    /// read timeout (`WouldBlock`/`TimedOut`) surfaces as [`Error::Io`] at
    /// any byte: what was read stays buffered and the next call resumes,
    /// so a timeout never desynchronizes the stream and a peer stalled
    /// mid-frame cannot hold the caller past its timeout.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] for transport failures and timeouts,
    /// [`Error::Corruption`] for EOF mid-frame and for everything
    /// [`next_frame`](Self::next_frame) rejects.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(Some(frame));
            }
            match r.read(self.read_room()) {
                Ok(0) if self.buffered() == 0 => return Ok(None),
                Ok(0) => return Err(Error::Corruption("connection closed mid-frame".to_string())),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Io(e)),
            }
        }
    }

    /// Length prefix of the buffered frame, once its four bytes are in.
    fn frame_len(&self) -> Option<usize> {
        (self.buffered() >= 4).then(|| {
            let prefix = &self.buf[self.start..self.start + 4];
            u32::from_le_bytes(prefix.try_into().expect("4-byte len")) as usize
        })
    }

    /// Room for the next blocking read, called only when no whole frame is
    /// buffered. The storage is sized to the pending frame, and to at
    /// least [`READ_CHUNK`]: it grows for a large frame and shrinks back
    /// once that frame is decoded, so a connection between large frames
    /// holds one chunk. The room is never empty, because the buffered
    /// bytes are always fewer than that size.
    fn read_room(&mut self) -> &mut [u8] {
        // `next_frame` has already bounded a buffered length prefix.
        let want = self.frame_len().map_or(0, |len| 4 + len).max(READ_CHUNK);
        if self.buf.len() != want {
            let mut storage = vec![0; want];
            storage[..self.buffered()].copy_from_slice(&self.buf[self.start..self.end]);
            self.buf = storage;
            self.end -= self.start;
            self.start = 0;
        } else if self.start > 0 {
            self.compact();
        }
        &mut self.buf[self.end..]
    }

    /// Moves the undecoded bytes to the front of the storage.
    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }
}

/// Serializes and writes one request frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request<W: Write>(w: &mut W, id: u32, req: &Request) -> std::io::Result<()> {
    let mut body = Vec::new();
    req.encode_body(&mut body);
    write_frame(w, req.opcode() as u8, id, &body)
}

/// Serializes and writes one response frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_response<W: Write>(
    w: &mut W,
    id: u32,
    req_op: Opcode,
    resp: &Response,
) -> std::io::Result<()> {
    let mut body = Vec::new();
    resp.encode_body(&mut body);
    write_frame(w, resp.opcode(req_op), id, &body)
}

/// Is this a read-timeout error (`WouldBlock` on Unix, `TimedOut` on
/// Windows)?
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

/// Bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take_u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| Error::Corruption("truncated frame body".to_string()))?;
        self.pos += 1;
        Ok(b)
    }

    fn take_u32(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| Error::Corruption("truncated frame body".to_string()))?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn take_u64(&mut self) -> Result<u64> {
        let end = self.pos + 8;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| Error::Corruption("truncated frame body".to_string()))?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn take_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.take_u32()? as usize;
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Corruption("truncated frame body".to_string()))?;
        let out = self.buf[self.pos..end].to_vec();
        self.pos = end;
        Ok(out)
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::Corruption(format!(
                "{} trailing bytes in frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Reads the first frame of `wire` through a fresh decoder.
    fn read_one(wire: &[u8]) -> Result<Option<Frame>> {
        FrameDecoder::new().read_frame(&mut &wire[..])
    }

    /// A blocking transport that delivers `wire` in the pieces the
    /// ascending offsets `cuts` split it into, with a read timeout between
    /// consecutive pieces, then EOF.
    struct Stalling {
        pieces: VecDeque<Vec<u8>>,
        stall: bool,
    }

    impl Stalling {
        fn new(wire: &[u8], cuts: &[usize]) -> Stalling {
            let mut pieces = VecDeque::new();
            let mut at = 0;
            for &cut in cuts.iter().chain([&wire.len()]) {
                pieces.push_back(wire[at..cut].to_vec());
                at = cut;
            }
            pieces.retain(|p| !p.is_empty());
            Stalling {
                pieces,
                stall: false,
            }
        }
    }

    impl Read for Stalling {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.stall) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let Some(mut piece) = self.pieces.pop_front() else {
                return Ok(0);
            };
            let n = piece.len().min(out.len());
            out[..n].copy_from_slice(&piece[..n]);
            if n < piece.len() {
                self.pieces.push_front(piece.split_off(n));
            } else {
                self.stall = !self.pieces.is_empty();
            }
            Ok(n)
        }
    }

    fn round_trip_request(req: Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, &req).unwrap();
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.id, 7);
        assert_eq!(Request::decode(frame.opcode, &frame.body).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Get { key: b"k".to_vec() });
        round_trip_request(Request::Put {
            key: b"k".to_vec(),
            value: vec![0xAB; 300],
        });
        round_trip_request(Request::Delete { key: Vec::new() });
        round_trip_request(Request::Scan {
            start: b"a".to_vec(),
            limit: 99,
        });
        round_trip_request(Request::Batch {
            ops: vec![
                (b"a".to_vec(), b"1".to_vec(), OpKind::Put),
                (b"b".to_vec(), Vec::new(), OpKind::Delete),
            ],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::TraceDump);
        round_trip_request(Request::ReplSubscribe { from: 42, epoch: 3 });
        round_trip_request(Request::ReplAck {
            offset: u64::MAX,
            epoch: 7,
        });
        round_trip_request(Request::SnapshotFetch);
        round_trip_request(Request::ReplVote {
            epoch: 5,
            last_seq: 1234,
            candidate: "127.0.0.1:7002".to_string(),
        });
        round_trip_request(Request::ReplVote {
            epoch: 0,
            last_seq: 0,
            candidate: String::new(),
        });
    }

    #[test]
    fn repl_records_is_push_only() {
        let err = Request::decode(Opcode::ReplRecords as u8, &[]).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("push-only"), "{err}");
    }

    #[test]
    fn v1_frames_are_rejected() {
        // Hand-craft a well-formed v1 GET frame, [len][ver=1][op][id][body]
        // [crc], for keys below and above the v2 minimum frame length.
        for (key, want) in [
            (&b"k"[..], "frame too short"),
            (&b"a-key-long-enough"[..], "unsupported protocol version 1"),
        ] {
            let mut body = Vec::new();
            Request::Get { key: key.to_vec() }.encode_body(&mut body);
            let mut payload = vec![1u8, Opcode::Get as u8];
            payload.extend_from_slice(&7u32.to_le_bytes());
            payload.extend_from_slice(&body);
            let mut wire = Vec::new();
            wire.extend_from_slice(&((payload.len() + 4) as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
            wire.extend_from_slice(&crc32(&payload).to_le_bytes());

            let err = read_one(&wire).unwrap_err();
            assert!(err.is_corruption(), "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn trace_context_rides_the_frame_header() {
        let _g = trace::exclusive();
        trace::enable(1 << 8, 1, false);
        let ctx = trace::TraceCtx {
            trace_id: 0xDEAD_BEEF_0042,
            span_id: 9,
            sampled: true,
        };
        let mut wire = Vec::new();
        {
            let _c = trace::with_ctx(ctx);
            write_request(&mut wire, 1, &Request::Stats).unwrap();
        }
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.trace_id, 0xDEAD_BEEF_0042);
        assert!(frame.sampled);

        // Without a context the header carries zeros.
        let mut wire2 = Vec::new();
        write_request(&mut wire2, 2, &Request::Stats).unwrap();
        let frame2 = read_one(&wire2).unwrap().unwrap();
        assert_eq!(frame2.trace_id, 0);
        assert!(!frame2.sampled);
    }

    fn round_trip_response(req_op: Opcode, resp: Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, 3, req_op, &resp).unwrap();
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.id, 3);
        assert_eq!(Response::decode(frame.opcode, &frame.body).unwrap(), resp);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Opcode::Get, Response::Value(Some(b"v".to_vec())));
        round_trip_response(Opcode::Get, Response::Value(None));
        round_trip_response(Opcode::Put, Response::Ok);
        round_trip_response(
            Opcode::Scan,
            Response::Entries(vec![ScanEntry {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }]),
        );
        round_trip_response(Opcode::Stats, Response::Stats("# HELP x\n".to_string()));
        round_trip_response(
            Opcode::Trace,
            Response::Trace("{\"traceEvents\":[]}".to_string()),
        );
        round_trip_response(Opcode::Put, Response::Err("boom".to_string()));
        round_trip_response(
            Opcode::ReplSubscribe,
            Response::ReplSubscribed {
                log_start: 10,
                last: 99,
                epoch: 2,
            },
        );
        round_trip_response(
            Opcode::ReplRecords,
            Response::ReplRecords {
                epoch: 4,
                batches: vec![
                    ReplBatch {
                        seq_first: 1,
                        seq_last: 3,
                        bytes: vec![0xAA; 37],
                    },
                    ReplBatch {
                        seq_first: 4,
                        seq_last: 4,
                        bytes: vec![0xBB; 9],
                    },
                ],
            },
        );
        round_trip_response(
            Opcode::ReplRecords,
            Response::ReplRecords {
                epoch: 1,
                batches: Vec::new(),
            },
        );
        round_trip_response(Opcode::SnapshotFetch, Response::Snapshot(vec![7; 1024]));
        round_trip_response(
            Opcode::Put,
            Response::NotLeader {
                epoch: 3,
                hint: "127.0.0.1:7001".to_string(),
            },
        );
        round_trip_response(
            Opcode::Put,
            Response::StaleEpoch {
                epoch: 9,
                hint: "127.0.0.1:7002".to_string(),
            },
        );
        round_trip_response(Opcode::Put, Response::QuorumLost { have: 1, need: 2 });
        round_trip_response(
            Opcode::ReplVote,
            Response::Vote {
                granted: true,
                epoch: 6,
                last_seq: 321,
                leader_live: false,
                leader_hint: "127.0.0.1:7000".to_string(),
            },
        );
    }

    #[test]
    fn not_leader_is_distinct_from_err() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            1,
            Opcode::Put,
            &Response::NotLeader {
                epoch: 0,
                hint: String::new(),
            },
        )
        .unwrap();
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.opcode, OP_NOT_LEADER | RESPONSE_BIT);
        assert_eq!(
            Response::decode(frame.opcode, &frame.body).unwrap(),
            Response::NotLeader {
                epoch: 0,
                hint: String::new()
            }
        );
    }

    #[test]
    fn fencing_responses_have_dedicated_opcodes() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            1,
            Opcode::Put,
            &Response::StaleEpoch {
                epoch: 5,
                hint: String::new(),
            },
        )
        .unwrap();
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.opcode, OP_STALE_EPOCH | RESPONSE_BIT);

        let mut wire = Vec::new();
        write_response(
            &mut wire,
            2,
            Opcode::Put,
            &Response::QuorumLost { have: 2, need: 3 },
        )
        .unwrap();
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.opcode, OP_QUORUM_LOST | RESPONSE_BIT);
    }

    #[test]
    fn backpressure_has_dedicated_opcode_and_round_trips() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            0,
            Opcode::Put,
            &Response::Backpressure { queued: 128 },
        )
        .unwrap();
        let frame = read_one(&wire).unwrap().unwrap();
        assert_eq!(frame.opcode, OP_BACKPRESSURE | RESPONSE_BIT);
        assert_eq!(frame.id, 0);
        assert_eq!(
            Response::decode(frame.opcode, &frame.body).unwrap(),
            Response::Backpressure { queued: 128 }
        );
    }

    #[test]
    fn fed_and_read_bytes_decode_to_the_frames_written() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Get { key: b"k".to_vec() }).unwrap();
        write_response(
            &mut wire,
            1,
            Opcode::Get,
            &Response::Value(Some(b"v".to_vec())),
        )
        .unwrap();
        write_request(&mut wire, 2, &Request::Stats).unwrap();

        // Fed one byte at a time.
        let mut dec = FrameDecoder::new();
        let mut fed = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                fed.push(f);
            }
        }
        assert_eq!(dec.buffered(), 0);

        // Read from a blocking transport: one read buffers all three, and
        // each call returns one.
        let mut dec = FrameDecoder::new();
        let mut r = wire.as_slice();
        let mut read = Vec::new();
        while let Some(f) = dec.read_frame(&mut r).unwrap() {
            read.push(f);
        }
        assert_eq!(fed, read);
        let heads: Vec<(u8, u32)> = read.iter().map(|f| (f.opcode, f.id)).collect();
        assert_eq!(
            heads,
            [
                (Opcode::Get as u8, 1),
                (Opcode::Get as u8 | RESPONSE_BIT, 1),
                (Opcode::Stats as u8, 2)
            ]
        );
    }

    #[test]
    fn read_frame_surfaces_every_timeout_and_loses_no_byte() {
        let req = Request::Put {
            key: b"k".to_vec(),
            value: vec![0x5A; 300],
        };
        let mut wire = Vec::new();
        write_request(&mut wire, 9, &req).unwrap();
        // Inside the length prefix, at its end, inside the header, inside
        // the body and inside the CRC.
        let cuts = [1, 4, 5, 19, wire.len() / 2, wire.len() - 1];
        let mut r = Stalling::new(&wire, &cuts);
        let mut dec = FrameDecoder::new();
        let mut timeouts = 0;
        let frame = loop {
            match dec.read_frame(&mut r) {
                Ok(Some(frame)) => break frame,
                Err(Error::Io(e)) if is_timeout(&e) => timeouts += 1,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(timeouts, cuts.len());
        assert_eq!(Some(frame), read_one(&wire).unwrap());
        assert!(
            dec.read_frame(&mut r).unwrap().is_none(),
            "EOF at a boundary"
        );
    }

    #[test]
    fn large_frame_takes_two_reads_and_its_storage_is_given_back() {
        struct Counting<'a>(&'a [u8], usize);
        impl Read for Counting<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.read(out)
            }
        }
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            1,
            Opcode::SnapshotFetch,
            &Response::Snapshot(vec![7; 100_000]),
        )
        .unwrap();
        write_request(&mut wire, 2, &Request::Stats).unwrap();
        let mut r = Counting(&wire, 0);
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.read_frame(&mut r).unwrap().map(|f| f.id), Some(1));
        // One chunk holding the length prefix, then the rest of the frame
        // in one read: what an 8 KiB `BufReader` costs.
        assert_eq!(r.1, 2);
        assert_eq!(dec.read_frame(&mut r).unwrap().map(|f| f.id), Some(2));
        assert_eq!(dec.buf.len(), READ_CHUNK);
        assert!(dec.read_frame(&mut r).unwrap().is_none());
        assert_eq!(r.1, 4);
    }

    #[test]
    fn eof_after_a_timeout_mid_frame_is_corruption() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Stats).unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = Stalling::new(&wire, &[6]);
        let mut dec = FrameDecoder::new();
        assert!(matches!(dec.read_frame(&mut r), Err(Error::Io(e)) if is_timeout(&e)));
        let err = dec.read_frame(&mut r).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("mid-frame"), "{err}");
    }

    #[test]
    fn incremental_decoder_rejects_corrupt_crc() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Stats).unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn incremental_decoder_keeps_residual_bytes() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Stats).unwrap();
        let whole = wire.len();
        write_request(&mut wire, 2, &Request::Stats).unwrap();
        // Feed the first frame plus half of the second.
        let cut = whole + (wire.len() - whole) / 2;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        assert_eq!(dec.next_frame().unwrap().map(|f| f.id), Some(1));
        assert_eq!(dec.buffered(), cut - whole);
        assert!(dec.next_frame().unwrap().is_none());
        dec.feed(&wire[cut..]);
        assert_eq!(dec.next_frame().unwrap().map(|f| f.id), Some(2));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        assert!(read_one(&[]).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_corruption() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Stats).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(read_one(&wire).unwrap_err().is_corruption());
    }

    #[test]
    fn crc_flip_detected() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            1,
            &Request::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        )
        .unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        let err = read_one(&wire).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Stats).unwrap();
        // Rewrite the version byte and fix up the CRC.
        wire[4] = 9;
        let len = u32::from_le_bytes(wire[0..4].try_into().unwrap()) as usize;
        let crc = crc32(&wire[4..4 + len - 4]);
        let at = 4 + len - 4;
        wire[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        let err = read_one(&wire).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(read_one(&wire).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Vec::new();
        Request::Get { key: b"k".to_vec() }.encode_body(&mut body);
        body.push(0);
        assert!(Request::decode(Opcode::Get as u8, &body).is_err());
    }
}
