//! Region leases: the one reclamation rule for pool memory.
//!
//! A [`RegionLease`] owns one allocation. Whoever can still reach the
//! memory — the structure built in it, a table merged from it, a reader
//! mid-traversal — holds the lease (directly or through an `Arc`), and the
//! owner says "this memory is garbage once nobody looks at it" with
//! [`RegionLease::retire`]. The region returns to the pool when the last
//! holder drops a *retired* lease; a lease dropped un-retired frees
//! nothing, so persistent data survives the handles that described it
//! (engine shutdown, crash recovery re-adopts the regions from the
//! manifest).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::pool::{PmemPool, PmemRegion};

/// Ownership of one [`PmemRegion`]; see the [module docs](self).
#[derive(Debug)]
pub struct RegionLease {
    pool: Arc<PmemPool>,
    region: PmemRegion,
    retired: AtomicBool,
    /// Bytes-outstanding gauge the region is counted in until it is back
    /// in the pool.
    gauge: Option<Arc<AtomicU64>>,
}

impl RegionLease {
    /// Takes ownership of `region`, which must be a live allocation of
    /// `pool` that no other lease covers (two retired leases on one region
    /// would free it twice).
    pub fn new(pool: Arc<PmemPool>, region: PmemRegion) -> RegionLease {
        RegionLease {
            pool,
            region,
            retired: AtomicBool::new(false),
            gauge: None,
        }
    }

    /// Counts the region's bytes in `gauge` from now until the region is
    /// returned to the pool, so the gauge follows the memory rather than
    /// the moment somebody asked for it to be freed.
    pub fn counted_in(mut self, gauge: &Arc<AtomicU64>) -> RegionLease {
        gauge.fetch_add(self.region.len, Ordering::Relaxed);
        self.gauge = Some(gauge.clone());
        self
    }

    /// The pool the region belongs to.
    #[inline]
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// The leased allocation.
    #[inline]
    pub fn region(&self) -> PmemRegion {
        self.region
    }

    /// Marks the region as garbage: it is freed when the last holder of
    /// this lease lets go (possibly the caller, possibly a reader thread).
    /// Idempotent.
    pub fn retire(&self) {
        // Release pairs with the acquire that precedes the final drop of
        // whatever shares this lease (`Arc`'s drop protocol), so the last
        // holder observes the flag.
        self.retired.store(true, Ordering::Release);
    }
}

impl Drop for RegionLease {
    fn drop(&mut self) {
        if *self.retired.get_mut() {
            self.pool.free(self.region);
            if let Some(gauge) = &self.gauge {
                gauge.fetch_sub(self.region.len, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceModel;
    use miodb_common::Stats;

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(
            1 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap()
    }

    fn lease(p: &Arc<PmemPool>) -> RegionLease {
        RegionLease::new(p.clone(), p.alloc(4096).unwrap())
    }

    #[test]
    fn retired_region_returns_when_the_last_handle_drops() {
        let p = pool();
        let before = p.used_bytes();
        let owner = Arc::new(lease(&p));
        let reader = owner.clone();
        owner.retire();
        drop(owner);
        assert_eq!(
            p.used_bytes(),
            before + 4096,
            "a reader handle outlives the owner: nothing may be freed yet"
        );
        drop(reader);
        assert_eq!(p.used_bytes(), before);
    }

    #[test]
    fn unretired_region_is_never_freed() {
        let p = pool();
        let l = lease(&p);
        let region = l.region();
        drop(l);
        assert_eq!(p.used_bytes(), region.len);
        assert!(p.region_is_live(region.offset, region.len));
    }

    #[test]
    fn gauge_follows_the_memory() {
        let p = pool();
        let gauge = Arc::new(AtomicU64::new(0));
        let owner = Arc::new(lease(&p).counted_in(&gauge));
        let reader = owner.clone();
        assert_eq!(gauge.load(Ordering::Relaxed), 4096);
        owner.retire();
        drop(owner);
        assert_eq!(gauge.load(Ordering::Relaxed), 4096, "still held");
        drop(reader);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }
}
