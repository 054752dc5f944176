//! Bloom filters for PMTables and MemTables.
//!
//! The paper (§4.6) attaches a **fixed-size** bloom filter to every PMTable
//! so that a point lookup can skip tables that cannot contain the key, and
//! combines two tables' filters with a bitwise **OR** when they are
//! compacted by zero-copy merging ([`BloomFilter::merge`]). Fixed size is
//! what makes filters mergeable, and as merged tables grow such a filter
//! saturates and its false-positive rate climbs
//! ([`BloomFilter::fill_ratio`]) — the trade-off behind Figure 9.
//!
//! The engine does not OR-merge: it sizes each PMTable's filter to the
//! table's own keys ([`BloomFilter::with_bits_per_key`]) and builds it from
//! the table's DRAM index, so a small table's filter is small enough to
//! stay in cache. A MemTable's filter ([`AtomicBloomFilter`]) is set as
//! keys arrive and probed without a lock.
//!
//! # Examples
//!
//! ```
//! use miodb_bloom::BloomFilter;
//!
//! let mut a = BloomFilter::new(1 << 14, 4);
//! a.insert(b"apple");
//! let mut b = BloomFilter::new(1 << 14, 4);
//! b.insert(b"banana");
//! a.merge(&b).expect("same geometry");
//! assert!(a.may_contain(b"apple"));
//! assert!(a.may_contain(b"banana"));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use miodb_common::{Error, Result};

/// A fixed-geometry bloom filter, combinable with another of the same
/// geometry by bitwise OR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    modulus: Modulus,
    num_hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `num_bits` bits (rounded up to a multiple of
    /// 64) and `num_hashes` probes per key.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits` or `num_hashes` is zero.
    pub fn new(num_bits: usize, num_hashes: u32) -> BloomFilter {
        assert!(num_bits > 0, "bloom filter needs at least one bit");
        assert!(num_hashes > 0, "bloom filter needs at least one hash");
        let words = num_bits.div_ceil(64);
        BloomFilter {
            bits: vec![0u64; words],
            num_bits: words * 64,
            modulus: Modulus::new(words * 64),
            num_hashes,
            inserted: 0,
        }
    }

    /// Creates a filter sized for `expected_keys` at `bits_per_key`
    /// (the paper uses 16 bits/key), with the standard optimal probe count
    /// `k = bits_per_key * ln 2` clamped to `[1, 30]`.
    pub fn with_bits_per_key(expected_keys: usize, bits_per_key: usize) -> BloomFilter {
        let (num_bits, k) = geometry(expected_keys, bits_per_key);
        BloomFilter::new(num_bits, k)
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash probes per key.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Heap bytes the filter's bits hold.
    pub fn bytes(&self) -> u64 {
        (self.bits.capacity() * 8) as u64
    }

    /// Number of keys inserted (including via merges).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    #[inline]
    fn positions(&self, h: u64) -> impl Iterator<Item = usize> {
        positions(h, self.modulus, self.num_hashes)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        for pos in self.positions(key_hash(key)) {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Returns `false` if the key is definitely absent; `true` if it may be
    /// present.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(key_hash(key))
    }

    /// [`may_contain`](Self::may_contain) for the key whose [`key_hash`] is
    /// `h`: a lookup that probes many filters hashes its key once.
    pub fn may_contain_hash(&self, h: u64) -> bool {
        self.positions(h)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// ORs `other` into this filter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if the two filters have different
    /// geometry (bit count or probe count) — only same-shape filters are
    /// mergeable.
    pub fn merge(&mut self, other: &BloomFilter) -> Result<()> {
        if self.num_bits != other.num_bits || self.num_hashes != other.num_hashes {
            return Err(Error::InvalidArgument(format!(
                "bloom geometry mismatch: {}x{} vs {}x{}",
                self.num_bits, self.num_hashes, other.num_bits, other.num_hashes
            )));
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// The filter's raw 64-bit words, for serialization (SSTable bloom
    /// blocks).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reconstructs a filter from serialized words.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `words` does not match
    /// `num_bits`, or if either count is zero.
    pub fn from_words(num_bits: usize, num_hashes: u32, words: Vec<u64>) -> Result<BloomFilter> {
        if num_bits == 0 || num_hashes == 0 || words.len() * 64 != num_bits {
            return Err(Error::InvalidArgument(format!(
                "bloom geometry mismatch: {num_bits} bits, {} words",
                words.len()
            )));
        }
        Ok(BloomFilter {
            bits: words,
            num_bits,
            modulus: Modulus::new(num_bits),
            num_hashes,
            inserted: 0,
        })
    }

    /// Fraction of bits set — the saturation indicator used to bound the
    /// number of OR-merges a fixed-size filter can absorb.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.num_bits as f64
    }

    /// Estimated false-positive rate at the current fill: `fill^k`.
    pub fn estimated_fp_rate(&self) -> f64 {
        self.fill_ratio().powi(self.num_hashes as i32)
    }
}

/// The bit count and probe count of a filter sized for `expected_keys` at
/// `bits_per_key`: at least 64 bits, and `k = bits_per_key * ln 2` clamped
/// to `[1, 30]`.
fn geometry(expected_keys: usize, bits_per_key: usize) -> (usize, u32) {
    let num_bits = (expected_keys.max(1) * bits_per_key).max(64);
    let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
    (num_bits, k)
}

/// The bit positions of the key whose [`key_hash`] is `h` in a filter of
/// `n` bits and `k` probes, by double hashing (Kirsch–Mitzenmacher):
/// `h_i = (h1 + i * h2) mod n`. Every filter type sets exactly these bits.
#[inline]
fn positions(h: u64, n: Modulus, k: u32) -> impl Iterator<Item = usize> {
    let h1 = h;
    let h2 = h.rotate_left(32) | 1;
    (0..k as u64).map(move |i| n.of(h1.wrapping_add(i.wrapping_mul(h2))) as usize)
}

/// A filter's bit count `n` as a divisor: `a mod n` without a division,
/// by Lemire, Kaser and Kurz's direct remainder ("Faster Remainder by
/// Direct Computation", 2019) with a 128-bit reciprocal, exact for every
/// 64-bit `a` and every `n` above 1. A probe reduces up to `k` = 11
/// positions and a merged table's filter build reduces 11 a key; a 64-bit
/// division costs tens of cycles, this three multiplications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Modulus {
    n: u64,
    /// `ceil(2^128 / n)`.
    m: u128,
}

impl Modulus {
    fn new(n: usize) -> Modulus {
        debug_assert!(n > 1, "a filter has at least 64 bits");
        let n = n as u64;
        Modulus {
            n,
            m: u128::MAX / u128::from(n) + 1,
        }
    }

    /// `a mod n`: the high 64 bits of the 192-bit product of `n` and the
    /// low 128 bits of `m * a`.
    #[inline]
    fn of(self, a: u64) -> u64 {
        let low = self.m.wrapping_mul(u128::from(a));
        let n = u128::from(self.n);
        let bottom = (u128::from(low as u64) * n) >> 64;
        let top = (low >> 64) * n;
        ((bottom + top) >> 64) as u64
    }
}

/// A MemTable's filter: one writer sets bits while any number of readers
/// probe it, without a lock. Its geometry and bit positions are those of a
/// [`BloomFilter`] of the same size: the same inserts set the same bits.
///
/// The writer stores a key's bits with `Release` before it publishes
/// anything that holds the key, and a reader probes with `Acquire` loads:
/// a reader that has seen a node (through an `Acquire` load of the link
/// that publishes it) sees the node's bits too. Bits are only ever set.
#[derive(Debug)]
pub struct AtomicBloomFilter {
    bits: Box<[AtomicU64]>,
    modulus: Modulus,
    num_hashes: u32,
    inserted: AtomicU64,
}

impl AtomicBloomFilter {
    /// An empty filter with the geometry of
    /// [`BloomFilter::with_bits_per_key`].
    pub fn with_bits_per_key(expected_keys: usize, bits_per_key: usize) -> AtomicBloomFilter {
        let (num_bits, num_hashes) = geometry(expected_keys, bits_per_key);
        let words = num_bits.div_ceil(64);
        AtomicBloomFilter {
            bits: (0..words).map(|_| AtomicU64::new(0)).collect(),
            modulus: Modulus::new(words * 64),
            num_hashes,
            inserted: AtomicU64::new(0),
        }
    }

    /// Sets the bits of the key whose [`key_hash`] is `h`. Only one thread
    /// inserts at a time (the caller serializes writers), so a word is
    /// loaded and stored, not read-modify-written, and a word that already
    /// holds the bit is not stored at all.
    pub fn insert_hash(&self, h: u64) {
        for pos in positions(h, self.modulus, self.num_hashes) {
            let word = &self.bits[pos / 64];
            let w = word.load(Ordering::Relaxed);
            let bit = 1u64 << (pos % 64);
            if w & bit == 0 {
                word.store(w | bit, Ordering::Release);
            }
        }
        let n = self.inserted.load(Ordering::Relaxed);
        self.inserted.store(n + 1, Ordering::Relaxed);
    }

    /// [`BloomFilter::may_contain_hash`], concurrently with the writer.
    pub fn may_contain_hash(&self, h: u64) -> bool {
        positions(h, self.modulus, self.num_hashes)
            .all(|pos| self.bits[pos / 64].load(Ordering::Acquire) & (1u64 << (pos % 64)) != 0)
    }

    /// Heap bytes the filter's bits hold.
    pub fn bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }
}

/// The hash every filter derives a key's bit positions from: FNV-1a–style,
/// with an avalanche finish. Filter geometry does not enter it, so one hash
/// serves every filter a lookup probes
/// ([`BloomFilter::may_contain_hash`]).
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Final avalanche (splitmix64 tail) for better bit diffusion.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(1024, 4);
        assert!(!f.may_contain(b"anything"));
        assert_eq!(f.fill_ratio(), 0.0);
        assert_eq!(f.inserted(), 0);
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_bits_per_key(1000, 16);
        for i in 0..1000u32 {
            f.insert(format!("key{i}").as_bytes());
        }
        for i in 0..1000u32 {
            assert!(
                f.may_contain(format!("key{i}").as_bytes()),
                "false negative for key{i}"
            );
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_16_bits_per_key() {
        let mut f = BloomFilter::with_bits_per_key(10_000, 16);
        for i in 0..10_000u32 {
            f.insert(format!("present{i}").as_bytes());
        }
        let mut fps = 0;
        let probes = 20_000;
        for i in 0..probes {
            if f.may_contain(format!("absent{i}").as_bytes()) {
                fps += 1;
            }
        }
        let rate = fps as f64 / probes as f64;
        assert!(rate < 0.01, "fp rate {rate} too high for 16 bits/key");
    }

    #[test]
    fn merge_is_union() {
        let mut a = BloomFilter::new(4096, 4);
        let mut b = BloomFilter::new(4096, 4);
        a.insert(b"only-a");
        b.insert(b"only-b");
        a.merge(&b).unwrap();
        assert!(a.may_contain(b"only-a"));
        assert!(a.may_contain(b"only-b"));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn merge_geometry_mismatch_rejected() {
        let mut a = BloomFilter::new(4096, 4);
        let b = BloomFilter::new(8192, 4);
        assert!(a.merge(&b).is_err());
        let c = BloomFilter::new(4096, 5);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn saturation_raises_estimated_fp() {
        let mut f = BloomFilter::new(256, 4);
        let before = f.estimated_fp_rate();
        for i in 0..500u32 {
            f.insert(&i.to_le_bytes());
        }
        assert!(f.fill_ratio() > 0.9, "filter should saturate");
        assert!(f.estimated_fp_rate() > before);
        assert!(f.estimated_fp_rate() > 0.5);
    }

    /// The direct remainder equals the division's, for dividends at and
    /// around multiples of the divisor, at the ends of the range, and
    /// drawn at random, over filter sizes from one word to 2^40 bits.
    #[test]
    fn direct_remainder_matches_the_division() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let mut sizes: Vec<u64> = vec![64, 128, 192, 1 << 20, (1 << 14) + 64, 64 * 3 * 5 * 7 * 11];
        sizes.extend((0..200).map(|_| 64 * rng.gen_range(1..(1u64 << 34))));
        for n in sizes {
            let d = Modulus::new(n as usize);
            let q = rng.gen_range(0..u64::MAX / n);
            let mut dividends = vec![
                0,
                1,
                n - 1,
                n,
                n + 1,
                u64::MAX,
                u64::MAX - 1,
                q * n,
                q * n + n - 1,
            ];
            dividends.extend((0..2000).map(|_| rng.next_u64()));
            for a in dividends {
                assert_eq!(d.of(a), a % n, "{a} mod {n}");
            }
        }
    }

    #[test]
    fn bits_rounded_to_words() {
        let f = BloomFilter::new(100, 3);
        assert_eq!(f.num_bits(), 128);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        BloomFilter::new(0, 1);
    }

    #[test]
    fn hash_distributes() {
        // Consecutive keys should not collide into the same few positions.
        let f = BloomFilter::new(1 << 16, 1);
        let mut positions = std::collections::HashSet::new();
        for i in 0..1000u32 {
            for p in f.positions(key_hash(format!("k{i}").as_bytes())) {
                positions.insert(p);
            }
        }
        assert!(
            positions.len() > 950,
            "only {} distinct positions",
            positions.len()
        );
    }

    /// The positions of the original per-key formula, written out: hash,
    /// then `(h1 + i * h2) mod m` for `i < k`. Filters persist nothing, but
    /// OR-merges, recovery rebuilds and the measured false-positive rate
    /// all assume every filter sets exactly these bits.
    fn reference_positions(key: &[u8], num_bits: usize, k: u32) -> Vec<usize> {
        let h = key_hash(key);
        let h2 = h.rotate_left(32) | 1;
        (0..k as u64)
            .map(|i| (h.wrapping_add(i.wrapping_mul(h2)) % num_bits as u64) as usize)
            .collect()
    }

    #[test]
    fn bit_positions_match_the_reference_formula() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        for (num_bits, k) in [(64, 1), (1 << 10, 4), ((1 << 14) + 64, 11), (1 << 20, 30)] {
            let mut f = BloomFilter::new(num_bits, k);
            let mut reference = vec![0u64; f.words().len()];
            for _ in 0..500 {
                let len = rng.gen_range(0..40usize);
                let key: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                f.insert(&key);
                for pos in reference_positions(&key, f.num_bits(), k) {
                    reference[pos / 64] |= 1u64 << (pos % 64);
                }
                assert!(f.may_contain_hash(key_hash(&key)));
            }
            assert_eq!(f.words(), &reference[..], "{num_bits} bits, k = {k}");
        }
        // The single-writer filter a MemTable keeps, at geometries as
        // `with_bits_per_key` draws them (k = 1 to 30): the same bits as
        // the formula and as the filter that took the same inserts, and
        // the same inserted count.
        for (expected, bits_per_key) in [(1, 1), (64, 16), (1025, 16), (4096, 44), (65536, 16)] {
            let mut f = BloomFilter::with_bits_per_key(expected, bits_per_key);
            let atomic = AtomicBloomFilter::with_bits_per_key(expected, bits_per_key);
            let k = f.num_hashes();
            let mut reference = vec![0u64; f.words().len()];
            for _ in 0..500 {
                let len = rng.gen_range(0..40usize);
                let key: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                f.insert(&key);
                atomic.insert_hash(key_hash(&key));
                for pos in reference_positions(&key, f.num_bits(), k) {
                    reference[pos / 64] |= 1u64 << (pos % 64);
                }
                assert!(atomic.may_contain_hash(key_hash(&key)));
            }
            let what = format!("{} bits, k = {k}", f.num_bits());
            let words: Vec<u64> = atomic
                .bits
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect();
            assert_eq!(words, reference, "{what}");
            assert_eq!(words, f.words(), "{what}");
            assert_eq!(
                atomic.inserted.load(Ordering::Relaxed),
                f.inserted(),
                "{what}"
            );
            assert_eq!(atomic.bytes(), f.bytes(), "{what}");
        }
    }
}
