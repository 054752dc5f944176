//! CRC-32 (IEEE 802.3: reflected polynomial `0xEDB8_8320`, initial value
//! and final XOR `0xFFFF_FFFF`) for every integrity check the store makes:
//!
//! - write-ahead log records (`miodb-wal`): computed on append, checked on
//!   replay and when a follower decodes shipped records;
//! - manifest slots (`miodb-core`);
//! - SSTable blocks of the LevelDB-model substrate (`miodb-lsm`);
//! - wire frames ([`proto`](crate::proto)): computed by the sender and
//!   checked by the receiver on every hop;
//! - shard routing: `ShardRouter` sends a key to shard
//!   `crc32(key) % shards`.
//!
//! Each of these values is stored in a pool or sent to a peer, so the
//! function is part of the on-NVM and on-wire format, and every kernel
//! below produces the same bits.
//!
//! Two kernels compute it. On `x86_64` CPUs with PCLMULQDQ and SSE4.1,
//! inputs of at least 64 bytes fold four 128-bit lanes, 64 bytes per
//! step, with carry-less multiplies and finish with a Barrett reduction.
//! Every other input and platform uses slicing-by-16: sixteen 256-entry
//! tables consume 16 bytes per step, and a byte-at-a-time loop takes the
//! last 0–15 bytes. The CPU (detected at run time) and the input length
//! pick the kernel. There is no switch: both kernels return the same
//! value, and each is chosen only where it is the faster, so no setting
//! could serve a caller better.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `TABLES[k][b]` advances a state whose low byte is `b` (and whose other
/// bytes are zero) over that byte and then `k` zero bytes. Row 0 is the
/// classic byte-at-a-time table.
static TABLES: [[u32; 256]; 16] = build_tables();

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // Standard check value for "123456789".
/// assert_eq!(miodb_common::crc32::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    extend(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Extends a running (pre-inverted) CRC state with more bytes. Start from
/// `0xFFFF_FFFF` and XOR the final state with `0xFFFF_FFFF`.
pub fn extend(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(state) = clmul::extend(state, data) {
        return state;
    }
    slice16(state, data)
}

/// Slicing-by-16: the portable kernel, and the kernel for short inputs.
fn slice16(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut block: [u8; 16] = chunk.try_into().expect("chunks_exact(16) yields 16 bytes");
        for (b, s) in block.iter_mut().zip(state.to_le_bytes()) {
            *b ^= s;
        }
        // Byte `i` is followed by `15 - i` more bytes of this block.
        state = block
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc ^ TABLES[15 - i][usize::from(b)]);
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Carry-less-multiply folding (Intel, "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", 2009), in its bit-reflected
/// form. The constants are `x^n mod P(x)`, bit-reflected and shifted left
/// by one, for the fold distances named beside them.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input folded: the four lanes start from 64 bytes. At 64
    /// bytes the fold already takes 6 ns to slicing-by-16's 20 (Xeon,
    /// 2 vCPU).
    const MIN_LEN: usize = 64;

    /// Fold one lane across 4 × 128 bits: `x^(512+32)` and `x^(512-32)`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold one lane across 128 bits: `x^(128+32)` and `x^(128-32)`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Reduce 96 bits to 64: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial `P(x)` and `floor(x^64 / P(x))`.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Folds `data` into `state`, or returns `None` when the input is
    /// shorter than [`MIN_LEN`] or this CPU lacks PCLMULQDQ or SSE4.1.
    pub(super) fn extend(state: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN
            || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
        {
            return None;
        }
        // SAFETY: `fold` enables pclmulqdq and sse4.1, and both were
        // detected on this CPU just above.
        Some(unsafe { fold(state, data) })
    }

    /// Takes the next 16 bytes off the front of `data`.
    #[inline]
    fn load(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` is 16 readable bytes (`split_at` checked the
        // length), and `_mm_loadu_si128` needs no alignment and only SSE2,
        // which every x86_64 CPU has.
        unsafe { _mm_loadu_si128(head.as_ptr().cast()) }
    }

    /// Multiplies the two halves of `acc` by the two constants in `k` and
    /// adds both products to `next`: `acc` moved 128 bits (or 512, with
    /// `K1`/`K2`) further along the message.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The folding kernel. `data` must hold at least [`MIN_LEN`] bytes
    /// (a shorter input panics in `load`); the last `len % 16` go through
    /// slicing-by-16.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(state: u32, mut data: &[u8]) -> u32 {
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold16(x3, load(&mut data), k1k2);
            x2 = fold16(x2, load(&mut data), k1k2);
            x1 = fold16(x1, load(&mut data), k1k2);
            x0 = fold16(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold16(x, load(&mut data), k3k4);
        }

        // 128 bits to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 bits to 32: the reflected remainder is the
        // upper half of the low 64 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::slice16(state, data)
    }
}

/// Incremental CRC-32 over multiple slices.
///
/// # Examples
///
/// ```
/// use miodb_common::crc32::{crc32, Crc32};
///
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = extend(self.state, data);
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one polynomial division step per bit.
    fn bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    /// Deterministic bytes with no short period.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel, called directly, so the portable one runs on x86 too.
    /// Inputs too short to fold, or a CPU without PCLMULQDQ, send the
    /// folding kernel's calls to slicing-by-16, as `extend` does.
    const KERNELS: &[(&str, Kernel)] = &[
        ("slicing-by-16", slice16),
        #[cfg(target_arch = "x86_64")]
        ("pclmul", |state, data| {
            clmul::extend(state, data).unwrap_or_else(|| slice16(state, data))
        }),
    ];

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn kernels_equal_the_bitwise_reference() {
        let data = noise(2048 + 16);
        for &(name, kernel) in KERNELS {
            for start in 0..16 {
                for init in [0xFFFF_FFFF, 0x0123_4567] {
                    let mut want = init;
                    for len in 0..=2048 {
                        if len > 0 {
                            want = bitwise(want, &data[start + len - 1..start + len]);
                        }
                        assert_eq!(
                            kernel(init, &data[start..start + len]),
                            want,
                            "{name}: start {start}, len {len}, init {init:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = noise(1024);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"record payload".to_vec();
        let orig = crc32(&data);
        data[3] ^= 0x10;
        assert_ne!(crc32(&data), orig);
    }
}
