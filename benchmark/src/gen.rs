//! Input generation. Everything here depends only on `--seed`; the system
//! under test receives nothing but the generated keys and values.

/// SplitMix64: small, fast, and every seed gives a full-period stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one named stream of a run (`stream` separates e.g.
    /// the two client threads), so streams never share state.
    pub fn for_stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0xA076_1D64_78BD_642F))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-32 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer, also used as the zipfian scrambler.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: u64, rng: &mut Rng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Keys are 16 bytes, `k%015d`. Record `i` of a dataset has key number
/// `2 i`; the odd numbers in between are never written, so a lookup for an
/// absent key lands between present keys, not past the end of every table.
pub const KEY_LEN: usize = 16;

pub fn present_key(record: u64) -> [u8; KEY_LEN] {
    format_key(record * 2)
}

pub fn absent_key(record: u64) -> [u8; KEY_LEN] {
    format_key(record * 2 + 1)
}

fn format_key(mut n: u64) -> [u8; KEY_LEN] {
    let mut k = [b'0'; KEY_LEN];
    k[0] = b'k';
    for slot in k[1..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    k
}

/// Values carry their own identity — record number and version in the
/// first 16 bytes — followed by a stream derived from `(seed, record,
/// version)`. A reader can therefore regenerate and byte-compare any value
/// it gets back without knowing which writer's update won.
pub const VALUE_HEADER: usize = 16;

pub fn fill_value(seed: u64, record: u64, version: u64, out: &mut [u8]) {
    assert!(out.len() >= VALUE_HEADER, "value shorter than its header");
    out[..8].copy_from_slice(&record.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    let mut rng = Rng::new(mix(seed ^ mix(record) ^ mix(version).rotate_left(17)));
    for chunk in out[VALUE_HEADER..].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// What a value claims to be, read from its header.
pub fn value_identity(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() < VALUE_HEADER {
        return None;
    }
    let record = u64::from_le_bytes(value[..8].try_into().ok()?);
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    Some((record, version))
}

/// Full check: the value regenerates byte for byte from its own header,
/// belongs to `record`, and has the workload's length.
pub fn value_matches(
    seed: u64,
    record: u64,
    len: usize,
    value: &[u8],
    scratch: &mut Vec<u8>,
) -> bool {
    let Some((r, version)) = value_identity(value) else {
        return false;
    };
    if r != record || value.len() != len {
        return false;
    }
    scratch.resize(len, 0);
    fill_value(seed, record, version, scratch);
    scratch.as_slice() == value
}

/// Cheap check used on every read: right record, right length.
pub fn value_plausible(record: u64, len: usize, value: &[u8]) -> bool {
    value.len() == len && value_identity(value).is_some_and(|(r, _)| r == record)
}

/// Scrambled zipfian over `0..n` (Gray et al., as in YCSB): rank `r` is
/// drawn with probability ∝ 1/(r+1)^θ and then hashed over the keyspace so
/// the hot records are not neighbours.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n >= 2, "zipfian needs at least two items");
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// The unscrambled rank, 0 = hottest.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    pub fn record(&self, rng: &mut Rng) -> u64 {
        mix(self.rank(rng)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation_and_repeats_per_seed() {
        let a = permutation(10_000, &mut Rng::new(7));
        let b = permutation(10_000, &mut Rng::new(7));
        let c = permutation(10_000, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert!(a.windows(2).any(|w| w[0] > w[1]), "not left in order");
    }

    #[test]
    fn keys_are_sixteen_bytes_and_ordered() {
        assert_eq!(&present_key(0), b"k000000000000000");
        assert_eq!(&present_key(21), b"k000000000000042");
        assert_eq!(&absent_key(21), b"k000000000000043");
        assert!(present_key(5) < absent_key(5) && absent_key(5) < present_key(6));
    }

    #[test]
    fn absent_key_choice_repeats_per_seed() {
        let draw = |seed| {
            let mut rng = Rng::for_stream(seed, 1);
            (0..1000)
                .map(|_| (rng.below(10) == 0, rng.below(5000)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let absent = draw(3).iter().filter(|d| d.0).count();
        assert!((50..150).contains(&absent), "{absent} of 1000 absent");
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let mut a = Rng::for_stream(1, 0);
        let mut b = Rng::for_stream(1, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn values_regenerate_and_reject_damage() {
        let mut v = vec![0u8; 1024];
        fill_value(11, 42, 3, &mut v);
        let mut scratch = Vec::new();
        assert!(value_matches(11, 42, 1024, &v, &mut scratch));
        assert!(value_plausible(42, 1024, &v));
        assert!(!value_plausible(43, 1024, &v));
        assert!(!value_matches(12, 42, 1024, &v, &mut scratch), "other seed");
        v[500] ^= 1;
        assert!(
            !value_matches(11, 42, 1024, &v, &mut scratch),
            "flipped bit"
        );
        assert!(
            !value_matches(11, 42, 1024, &v[..100], &mut scratch),
            "truncated"
        );
    }

    #[test]
    fn zipfian_is_deterministic_and_skewed() {
        let z = Zipfian::new(200_000, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000).map(|_| z.rank(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        assert!(a.iter().all(|&r| r < 200_000));
        let hottest = a.iter().filter(|&&r| r == 0).count();
        let top_100 = a.iter().filter(|&&r| r < 100).count();
        // zeta(200k, 0.99) ≈ 12.8, so rank 0 draws ≈ 7.8 % and the top 100
        // ranks ≈ 40 %.
        assert!((1200..2000).contains(&hottest), "rank 0 drawn {hottest}");
        assert!((7000..9500).contains(&top_100), "top 100 drawn {top_100}");
        let mut rng = Rng::new(9);
        assert!((0..1000).all(|_| z.record(&mut rng) < 200_000));
    }
}
