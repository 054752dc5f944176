//! Hash-partitioned shard routing: one logical [`KvEngine`] over N
//! independent engine instances.
//!
//! Multi-core hosts scale past a single commit queue by running several
//! engines side by side, each with its own WAL, pmem pools and background
//! workers. The router hashes every key (CRC-32, the workspace's existing
//! integrity hash) to pick the owning shard; point operations touch one
//! shard, scans merge the per-shard sorted streams. Because the router is
//! itself a [`KvEngine`], the server, workloads and benchmarks can treat a
//! sharded MioDB exactly like a single instance — or shard a baseline for
//! apples-to-apples network benchmarks.

use miodb_common::crc32::crc32;
use miodb_common::trace::{self, SpanKind};
use miodb_common::{metrics, EngineReport, KvEngine, MetricsRegistry, Result, ScanEntry, Stats};
use miodb_core::{MioDb, MioOptions};

/// N engines behind one hash-partitioned keyspace.
pub struct ShardRouter<E> {
    shards: Vec<E>,
    name: String,
}

impl<E> std::fmt::Debug for ShardRouter<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<E: KvEngine> ShardRouter<E> {
    /// Wraps pre-built engines. Panics if `shards` is empty.
    pub fn new(shards: Vec<E>) -> ShardRouter<E> {
        assert!(!shards.is_empty(), "need at least one shard");
        let name = format!("Sharded({}x{})", shards[0].name(), shards.len());
        ShardRouter { shards, name }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        crc32(key) as usize % self.shards.len()
    }

    /// Direct access to the shard engines (tests, close hooks).
    pub fn shards(&self) -> &[E] {
        &self.shards
    }
}

impl ShardRouter<MioDb> {
    /// Opens `count` MioDB instances from a template (each shard gets a
    /// proportional slice of the pools via [`MioOptions::shard`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration or allocation errors from any shard.
    pub fn open_miodb(template: &MioOptions, count: usize) -> Result<ShardRouter<MioDb>> {
        let count = count.max(1);
        let mut shards = Vec::with_capacity(count);
        for i in 0..count {
            shards.push(MioDb::open(template.shard(i, count))?);
        }
        Ok(ShardRouter::new(shards))
    }

    /// Gracefully closes every shard ([`MioDb::close`]): commit-queue
    /// groups drain through the write pipeline and MemTables flush, so no
    /// acknowledged write depends on WAL replay. Returns the first error
    /// but closes all shards regardless.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's close failure.
    pub fn close(&self) -> Result<()> {
        let mut first_err = None;
        for s in &self.shards {
            if let Err(e) = s.close() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<E: KvEngine> KvEngine for ShardRouter<E> {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.shards[self.shard_of(key)].put(key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shards[self.shard_of(key)].get(key)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.shards[self.shard_of(key)].delete(key)
    }

    /// Cross-shard scan: every shard returns its own ascending prefix;
    /// merging by key restores a single global order (keys are unique
    /// across shards — the hash assigns each key one owner).
    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
        let per_shard = {
            let mut fanout = trace::span(SpanKind::RouterFanout);
            fanout.annotate(self.shards.len() as u64);
            let mut per_shard = Vec::with_capacity(self.shards.len());
            for s in &self.shards {
                per_shard.push(s.scan(start, limit)?);
            }
            per_shard
        };
        let _m = trace::span(SpanKind::RouterMerge);
        Ok(merge_sorted(per_shard, limit))
    }

    fn wait_idle(&self) -> Result<()> {
        for s in &self.shards {
            s.wait_idle()?;
        }
        Ok(())
    }

    fn report(&self) -> EngineReport {
        let agg = Stats::new();
        let mut total = EngineReport {
            name: self.name.clone(),
            ..EngineReport::default()
        };
        let mut tables: Vec<usize> = Vec::new();
        for s in &self.shards {
            let r = s.report();
            total.nvm_used_bytes += r.nvm_used_bytes;
            total.nvm_peak_bytes += r.nvm_peak_bytes;
            total.nvm_huge_page_bytes += r.nvm_huge_page_bytes;
            total.dram_huge_page_bytes += r.dram_huge_page_bytes;
            total.dram_bytes += r.dram_bytes;
            if tables.len() < r.tables_per_level.len() {
                tables.resize(r.tables_per_level.len(), 0);
            }
            for (t, v) in tables.iter_mut().zip(&r.tables_per_level) {
                *t += v;
            }
            agg.merge(&r.stats);
        }
        EngineReport {
            tables_per_level: tables,
            stats: agg.snapshot(),
            ..total
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// The same families a single engine exports, aggregated over the
    /// shards: counters and per-level gauges summed, latency histograms
    /// merged.
    fn register_metrics(&self, reg: &mut MetricsRegistry) {
        let telemetry: Vec<_> = self.shards.iter().filter_map(|s| s.telemetry()).collect();
        metrics::register_engine(reg, &self.report(), &telemetry);
    }
}

/// Merges per-shard ascending runs into one ascending run of ≤ `limit`
/// entries. Simple k-way by smallest head; k is the shard count (small).
fn merge_sorted(mut runs: Vec<Vec<ScanEntry>>, limit: usize) -> Vec<ScanEntry> {
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::new();
    while out.len() < limit {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            if cursors[i] >= run.len() {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => run[cursors[i]].key < runs[b][cursors[b]].key,
            };
            if better {
                best = Some(i);
            }
        }
        let Some(i) = best else { break };
        let e = &mut runs[i][cursors[i]];
        out.push(ScanEntry {
            key: std::mem::take(&mut e.key),
            value: std::mem::take(&mut e.value),
        });
        cursors[i] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct MapEngine {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
    }

    impl KvEngine for MapEngine {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.lock().get(key).cloned())
        }
        fn delete(&self, key: &[u8]) -> Result<()> {
            self.map.lock().remove(key);
            Ok(())
        }
        fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<ScanEntry>> {
            Ok(self
                .map
                .lock()
                .range(start.to_vec()..)
                .take(limit)
                .map(|(k, v)| ScanEntry {
                    key: k.clone(),
                    value: v.clone(),
                })
                .collect())
        }
        fn wait_idle(&self) -> Result<()> {
            Ok(())
        }
        fn report(&self) -> EngineReport {
            EngineReport::default()
        }
        fn name(&self) -> &str {
            "map"
        }
    }

    fn router(n: usize) -> ShardRouter<MapEngine> {
        ShardRouter::new((0..n).map(|_| MapEngine::default()).collect())
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let r = router(4);
        let mut hit = [false; 4];
        for i in 0..256u32 {
            let key = format!("key{i:04}");
            let s = r.shard_of(key.as_bytes());
            assert_eq!(s, r.shard_of(key.as_bytes()));
            hit[s] = true;
        }
        assert!(hit.iter().all(|h| *h), "256 keys must touch all 4 shards");
    }

    #[test]
    fn point_ops_round_trip_across_shards() {
        let r = router(3);
        for i in 0..100u32 {
            r.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(
                r.get(format!("k{i:03}").as_bytes()).unwrap().unwrap(),
                format!("v{i}").as_bytes()
            );
        }
        r.delete(b"k050").unwrap();
        assert!(r.get(b"k050").unwrap().is_none());
        // Shards hold disjoint non-empty subsets.
        let sizes: Vec<usize> = r.shards().iter().map(|s| s.map.lock().len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 99);
        assert!(sizes.iter().all(|&s| s > 0), "sizes = {sizes:?}");
    }

    #[test]
    fn scan_merges_shards_in_global_key_order() {
        let r = router(4);
        for i in 0..200u32 {
            r.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        let out = r.scan(b"k0050", 60).unwrap();
        assert_eq!(out.len(), 60);
        for (j, e) in out.iter().enumerate() {
            assert_eq!(e.key, format!("k{:04}", 50 + j).into_bytes());
        }
        // Limit larger than remaining entries.
        let tail = r.scan(b"k0190", 100).unwrap();
        assert_eq!(tail.len(), 10);
    }

    #[test]
    fn report_aggregates_across_shards() {
        let r = router(2);
        r.put(b"a", b"1").unwrap();
        r.put(b"b", b"2").unwrap();
        let rep = r.report();
        assert_eq!(rep.name, "Sharded(mapx2)");
        assert_eq!(rep.name, r.name());
    }
}
