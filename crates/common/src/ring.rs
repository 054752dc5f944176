//! Bounded lock-free MPMC ring buffer, generic over any `Copy` payload.
//!
//! Implements the Vyukov bounded-queue scheme: a per-slot sequence number
//! arbitrates producers and consumers without locks. Producers never block
//! — pushing into a full ring drops the value and bumps a saturating drop
//! counter, so instrumentation can never stall the code it observes. The
//! span buffer of [`trace`](crate::trace) is this ring.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC ring buffer of `Copy` values.
///
/// Producers never block: pushing into a full ring drops the value and
/// increments [`dropped`](MpmcRing::dropped) (saturating — a wrapped
/// counter would under-report loss).
pub struct MpmcRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots are only accessed under the per-slot sequence protocol —
// a producer writes `value` only after winning the CAS on `enqueue_pos`
// for a slot whose `seq` says it is empty, and publishes with a release
// store to `seq`; a consumer reads `value` only after acquiring a `seq`
// that says it is full. `T: Copy`, so no drops are needed.
unsafe impl<T: Copy + Send> Send for MpmcRing<T> {}
unsafe impl<T: Copy + Send> Sync for MpmcRing<T> {}

impl<T: Copy> MpmcRing<T> {
    /// Creates a ring holding up to `capacity` values (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> MpmcRing<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends a value; on a full ring the value is dropped (counted in
    /// [`dropped`](MpmcRing::dropped)) and `false` is returned.
    pub fn push(&self, value: T) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive write
                        // access to this slot until the release store below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(seen) => pos = seen,
                }
            } else if diff < 0 {
                // Slot still holds an unconsumed value one lap behind: full.
                self.count_drop();
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Removes and returns the oldest value, or `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive read
                        // access; the acquire load of `seq` ordered the
                        // producer's write before this read.
                        let value = unsafe { (*slot.value.get()).assume_init() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(seen) => pos = seen,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains every currently queued value in FIFO order.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }

    /// Number of values discarded because the ring was full (saturates at
    /// `u64::MAX` instead of wrapping).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Saturating increment of the drop counter.
    fn count_drop(&self) {
        let mut d = self.dropped.load(Ordering::Relaxed);
        while d != u64::MAX {
            match self
                .dropped
                .compare_exchange_weak(d, d + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => d = seen,
            }
        }
    }
}

impl<T: Copy> std::fmt::Debug for MpmcRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcRing")
            .field("capacity", &self.capacity())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_fifo_round_trip() {
        let ring = MpmcRing::<u32>::with_capacity(8);
        for i in 0..5 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.drain(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = MpmcRing::<u64>::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(i));
        }
        assert!(!ring.push(99));
        assert!(!ring.push(100));
        assert_eq!(ring.dropped(), 2);
        // The ring kept the oldest values, not the dropped ones.
        assert_eq!(ring.drain(), vec![0, 1, 2, 3]);
        // Space freed by draining accepts new values again.
        assert!(ring.push(7));
        assert_eq!(ring.drain(), vec![7]);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(MpmcRing::<u8>::with_capacity(5).capacity(), 8);
        assert_eq!(MpmcRing::<u8>::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 1024;
        let ring = MpmcRing::<usize>::with_capacity(PRODUCERS * PER_PRODUCER);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert!(ring.push(p * PER_PRODUCER + i));
                    }
                });
            }
        });
        let drained = ring.drain();
        assert_eq!(drained.len(), PRODUCERS * PER_PRODUCER);
        assert_eq!(ring.dropped(), 0);
        // Per-producer subsequences must appear in push order.
        for p in 0..PRODUCERS {
            let mine: Vec<usize> = drained
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == p)
                .collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {p} reordered"
            );
        }
    }

    #[test]
    fn dropped_counter_saturates_at_max() {
        let ring = MpmcRing::<u8>::with_capacity(2);
        ring.dropped.store(u64::MAX - 1, Ordering::Relaxed);
        assert!(ring.push(0));
        assert!(ring.push(0));
        assert!(!ring.push(1)); // MAX - 1 -> MAX
        assert!(!ring.push(1)); // saturates, no wrap to 0
        assert!(!ring.push(1));
        assert_eq!(ring.dropped(), u64::MAX);
    }
}
