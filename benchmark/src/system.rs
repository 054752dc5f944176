//! Bringing the system under test up and down: engine geometry, preload,
//! the in-process server. Only public functions of the crates are used.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use miodb_client::KvClient;
use miodb_common::{Error, KvEngine, Request, Response, Result};
use miodb_core::{MioDb, MioOptions};
use miodb_pmem::DeviceModel;
use miodb_server::{KvServer, ServerOptions, ShardRouter};

use crate::gen::{fill_value, permutation, present_key, Rng};

/// MemTable and WAL segment size of every workload. Datasets are 200 to
/// 900 times this, the paper's 1 : 1280 class.
pub const MEMTABLE_BYTES: usize = 512 << 10;

/// Requests a preloading connection keeps in flight.
const PRELOAD_DEPTH: usize = 32;

/// What the elastic buffer can hold beyond the live data when records are
/// overwritten: superseded versions are reclaimed only by lazy-copy, and
/// eight levels of up to two tables of 2^i MemTables come to 255 MiB twice.
const UPDATE_GARBAGE_BYTES: usize = 512 << 20;

/// Engine geometry shared by all workloads: `MioOptions::default()` (8
/// elastic levels, bloom 16 bits/key, parallel compaction, write pipeline)
/// except 512 KiB MemTables and WAL segments, a 32 MiB DRAM pool, and an
/// NVM pool of twice the dataset plus 64 MiB — plus room for superseded
/// versions when the workload overwrites. The pool is zeroed when opened,
/// so its size is paid in set-up time and resident memory: sized to need.
pub fn engine_options(data: Dataset, overwrites: bool, device: DeviceModel) -> MioOptions {
    let garbage = if overwrites { UPDATE_GARBAGE_BYTES } else { 0 };
    MioOptions {
        memtable_bytes: MEMTABLE_BYTES,
        wal_segment_bytes: MEMTABLE_BYTES,
        nvm_pool_bytes: 2 * data.user_bytes() as usize + (64 << 20) + garbage,
        dram_pool_bytes: 32 << 20,
        nvm_device: device,
        ..MioOptions::default()
    }
}

/// A dataset: `records` records of `value_len`-byte values, all derived
/// from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pub seed: u64,
    pub records: u64,
    pub value_len: usize,
}

impl Dataset {
    pub fn user_bytes(&self) -> u64 {
        self.records * (crate::gen::KEY_LEN + self.value_len) as u64
    }
}

/// The system a workload runs against.
pub enum System {
    Embedded(MioDb),
    Net {
        server: KvServer,
        router: Arc<ShardRouter<MioDb>>,
        addr: SocketAddr,
    },
}

impl System {
    pub fn open_embedded(opts: MioOptions) -> Result<System> {
        Ok(System::Embedded(MioDb::open(opts)?))
    }

    /// An in-process `KvServer` with default options over a one-shard
    /// router, on an ephemeral loopback port.
    pub fn open_net(opts: MioOptions) -> Result<System> {
        let router = Arc::new(ShardRouter::open_miodb(&opts, 1)?);
        let server = KvServer::start("127.0.0.1:0", router.clone(), ServerOptions::default())?;
        let addr = server.local_addr();
        Ok(System::Net {
            server,
            router,
            addr,
        })
    }

    pub fn engine(&self) -> &dyn KvEngine {
        match self {
            System::Embedded(db) => db,
            System::Net { router, .. } => router.as_ref(),
        }
    }

    /// Writes version 0 of every record, in a seeded random order, the way
    /// the workload itself reaches the system: direct calls when embedded,
    /// pipelined requests over `threads` connections when served. Returns
    /// the number of writes that were not acknowledged and, when embedded,
    /// the latency of every put (`read` makes no other puts to report).
    pub fn preload(&self, data: Dataset, threads: usize) -> Result<(u64, Vec<u32>)> {
        let order = permutation(data.records, &mut Rng::for_stream(data.seed, 0xB00));
        let mut put_ns = Vec::new();
        let failed = match self {
            System::Embedded(db) => {
                let mut value = vec![0u8; data.value_len];
                let mut failed = 0;
                put_ns.reserve(order.len());
                for &r in &order {
                    fill_value(data.seed, u64::from(r), 0, &mut value);
                    let key = present_key(u64::from(r));
                    let t = Instant::now();
                    failed += u64::from(db.put(&key, &value).is_err());
                    put_ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
                }
                failed
            }
            System::Net { addr, .. } => {
                let shares: Vec<&[u32]> =
                    order.chunks(order.len().div_ceil(threads).max(1)).collect();
                std::thread::scope(|s| {
                    let handles: Vec<_> = shares
                        .iter()
                        .map(|share| s.spawn(move || preload_over_wire(*addr, data, share)))
                        .collect();
                    handles.into_iter().try_fold(0u64, |acc, h| {
                        let part = h
                            .join()
                            .map_err(|_| Error::Background("preload thread panicked".into()))?;
                        Ok::<u64, Error>(acc + part?)
                    })
                })?
            }
        };
        self.engine().wait_idle()?;
        Ok((failed, put_ns))
    }

    /// Stops the server (draining connections) and closes the engine.
    pub fn shutdown(self) -> Result<()> {
        match self {
            System::Embedded(db) => db.close(),
            System::Net { server, router, .. } => {
                server.shutdown();
                router.close()
            }
        }
    }
}

fn preload_over_wire(addr: SocketAddr, data: Dataset, records: &[u32]) -> Result<u64> {
    let mut client = KvClient::connect(addr)?;
    let mut failed = 0;
    for batch in records.chunks(PRELOAD_DEPTH) {
        for &r in batch {
            let mut value = vec![0u8; data.value_len];
            fill_value(data.seed, u64::from(r), 0, &mut value);
            client.send(&Request::Put {
                key: present_key(u64::from(r)).to_vec(),
                value,
            })?;
        }
        client.flush()?;
        for _ in batch {
            failed += u64::from(!matches!(client.recv()?.1, Response::Ok));
        }
    }
    client.close()?;
    Ok(failed)
}
