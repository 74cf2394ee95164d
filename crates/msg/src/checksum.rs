//! In-tree CRC32C (Castagnoli) — the data-plane integrity checksum.
//!
//! Every socket frame carries a 4-byte CRC32C trailer over the frame
//! image (header + payload) — unconditionally: it is part of the wire
//! format. The writer of a frame computes it as it writes; the reader
//! verifies it before the frame is decoded (on the master, the link's
//! in-pump; on a worker, its own read half in `WorkerEndpoint::recv`). A
//! mismatch is an `InvalidData` error that kills the link, and the
//! existing chunk re-dispatch machinery recovers the run bit-identically.
//!
//! Same discipline as [`crate::auth`]: no external dependency, the
//! algorithm is implemented from its public specification (the iSCSI
//! CRC32C of RFC 3720 §12.1 — reflected polynomial `0x1EDC6F41`, i.e.
//! table constant `0x82F63B78`, init and final XOR `0xFFFF_FFFF`), and
//! the implementation is pinned to published test vectors (the Rocksoft
//! check value for `"123456789"` and the RFC 3720 B.4 scatter/gather
//! vectors).
//!
//! CRC32C was chosen over an xxhash-style mix because its check values
//! are standardised (verifiable against any independent implementation)
//! and because x86-64 computes it in silicon. Which path
//! [`Crc32c::update`] takes is detected once per process, like the kernel
//! dispatch in `mwp_blockmat`; there is no switch:
//!
//! - **512-bit fold**, where the CPU has `avx512f` and `vpclmulqdq` (and
//!   `pclmulqdq` and SSE 4.2): four 512-bit accumulators fold 256 bytes
//!   per step by carry-less multiplication;
//! - **128-bit fold**, on any other x86-64 with `pclmulqdq` and SSE 4.2:
//!   the same fold over eight 128-bit accumulators, 128 bytes per step;
//! - **slicing-by-8 table** everywhere else (other architectures, and
//!   x86-64 without those features). It is also the reference the folds
//!   are tested against.
//!
//! The 512-bit fold hands an input shorter than its 256-byte block to the
//! 128-bit fold, which hands one shorter than 128 bytes to a single
//! `crc32q` chain. Each fold ends by reducing its last 16 bytes with two
//! `crc32q`, after which the same chain takes the tail.
//!
//! The trailer is not free. On a 2-vCPU Xeon (2.1 GHz, AVX-512 with
//! VPCLMULQDQ), a CPU-time sample of the socket workloads under the
//! earlier three-chain `crc32q` loop (16–21 GB/s) put it at 13.6% of
//! process CPU on `holm_q20_tcp`, 10.0% on `lu_q80_tcp` and 10.4% on
//! `serve_mix_tcp`. On the same machine the 512-bit fold runs at
//! 62–83 GB/s on 3.2–51 KB inputs, 55–62 GB/s at 512 KB and 32–35 GB/s
//! on a 2.25 MB LU panel frame; the 128-bit fold runs at 18–21 GB/s.

/// Number of slicing tables: each step consumes 8 input bytes.
const SLICES: usize = 8;

/// The reflected CRC32C polynomial (Castagnoli, 0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets one table lookup
/// per input byte advance the register eight bytes per iteration.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C of `data` — one-shot convenience over [`Crc32c`].
pub fn crc32c(data: &[u8]) -> u32 {
    let mut state = Crc32c::new();
    state.update(data);
    state.finish()
}

/// Incremental CRC32C state, for checksumming a frame image that is
/// written as several slices (header, then payload) without first
/// materialising a contiguous buffer.
#[derive(Debug, Clone)]
pub struct Crc32c {
    /// The running register, pre- and post-conditioned with `!0`.
    crc: u32,
}

impl Crc32c {
    /// Fresh state: CRC32C initialises the register to all-ones.
    pub fn new() -> Self {
        Self { crc: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(fold) = clmul::detected() {
            // SAFETY: `detected` returns only a fold whose features it
            // found on this CPU.
            self.crc = unsafe { fold(self.crc, data) };
            return;
        }
        self.crc = table(self.crc, data);
    }

    /// Final checksum value (the state may keep being updated afterwards;
    /// `finish` is a pure read).
    pub fn finish(&self) -> u32 {
        self.crc ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// Advance the raw register `crc` over `data` with the slicing-by-8
/// tables.
fn table(mut crc: u32, data: &[u8]) -> u32 {
    let (words, bytes) = data.as_chunks::<8>();
    for w in words {
        // Fold the register into the first 4 bytes, then advance all
        // 8 bytes with one table lookup each (slicing-by-8).
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply folds.
///
/// CRC is linear, and the raw register over a message is `M(x)·x³² mod
/// P`, so any stretch of the message may be replaced by another of equal
/// residue. A fold keeps 16-byte accumulators; stepping one forward by
/// `d` bytes multiplies it by `x^(8d)` and XORs it onto the 16 bytes that
/// sit there. Split into its 64-bit halves, the accumulator's first half
/// needs `x^(8d+64)` and its second `x^(8d)`, each taken mod `P` so the
/// two carry-less products stay within 96 bits; the `x^(8d±32)` below
/// are those multipliers in the reflected, 32-bit-offset form the
/// products come out in. The incoming register is XORed into the first
/// four input bytes, which makes it part of the message (so the fold
/// itself starts from a zero register, and `update` calls compose). What
/// is left at the end, 16 bytes of the same residue as everything folded,
/// goes through two `crc32q` from a zero register.
///
/// Each function here is compiled for the features it enables and may run
/// only on a CPU that has them: [`Crc32c::update`] asks `detected`, the
/// tests detect per path.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// A fold of `data` into a raw register: safe to call only on a CPU
    /// with the features it is compiled for.
    type Fold = unsafe fn(u32, &[u8]) -> u32;

    /// The widest fold this CPU runs, or `None` (then the table runs),
    /// detected once.
    pub(super) fn detected() -> Option<Fold> {
        static FOLD: OnceLock<Option<Fold>> = OnceLock::new();
        *FOLD.get_or_init(|| {
            let wide = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vpclmulqdq");
            match is_x86_feature_detected!("sse4.2") && is_x86_feature_detected!("pclmulqdq") {
                false => None,
                true if wide => Some(fold512 as Fold),
                true => Some(fold128 as Fold),
            }
        })
    }

    /// `x^n mod P`, bit-reflected like the register and shifted up one
    /// bit, the offset a reflected carry-less product comes out at.
    const fn xn_mod_p(n: u32) -> u64 {
        let mut r = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        (r as u64) << 1
    }

    /// The multipliers that carry a 16-byte accumulator `d` bytes
    /// forward: its first 8 bytes by `x^(8d+32)`, its last 8 by
    /// `x^(8d−32)`.
    const fn keys(d: u32) -> [u64; 2] {
        [xn_mod_p(8 * d + 32), xn_mod_p(8 * d - 32)]
    }

    /// Carry `x` forward by the distance `keys` were made for and add the
    /// 16 bytes `y` that sit there.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, keys: [u64; 2], y: __m128i) -> __m128i {
        let k = _mm_set_epi64x(keys[1] as i64, keys[0] as i64);
        let first = _mm_clmulepi64_si128::<0x00>(x, k);
        let last = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(first, last), y)
    }

    /// [`fold`] on each of four 128-bit lanes, by the same distance.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold4(x: __m512i, keys: [u64; 2], y: __m512i) -> __m512i {
        let k = _mm512_broadcast_i32x4(_mm_set_epi64x(keys[1] as i64, keys[0] as i64));
        let first = _mm512_clmulepi64_epi128::<0x00>(x, k);
        let last = _mm512_clmulepi64_epi128::<0x11>(x, k);
        _mm512_ternarylogic_epi64::<0x96>(first, last, y)
    }

    /// The 16 bytes at `at` in `bytes`, one unaligned load.
    #[inline]
    fn load16(bytes: &[u8], at: usize) -> __m128i {
        let lane = &bytes[at..at + 16];
        // SAFETY: `lane` is 16 readable bytes; SSE2 is part of x86-64.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// The 64 bytes at `at` in `bytes`, one unaligned load.
    #[target_feature(enable = "avx512f")]
    fn load64(bytes: &[u8], at: usize) -> __m512i {
        let lane = &bytes[at..at + 64];
        // SAFETY: `lane` is 64 readable bytes.
        unsafe { _mm512_loadu_si512(lane.as_ptr().cast()) }
    }

    /// Reduce the last accumulator to the register with two `crc32q`,
    /// then run `tail` through [`short`].
    #[target_feature(enable = "sse4.2")]
    fn finish(x: __m128i, tail: &[u8]) -> u32 {
        let first = _mm_cvtsi128_si64(x) as u64;
        let last = _mm_extract_epi64::<1>(x) as u64;
        short(_mm_crc32_u64(_mm_crc32_u64(0, first), last) as u32, tail)
    }

    /// One `crc32q` chain, 8 bytes per instruction (3 cycles of latency
    /// each): inputs shorter than a fold block, and a fold's tail.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn short(crc: u32, data: &[u8]) -> u32 {
        let (words, bytes) = data.as_chunks::<8>();
        let mut r = crc as u64;
        for w in words {
            r = _mm_crc32_u64(r, u64::from_le_bytes(*w));
        }
        let mut crc = r as u32;
        for &byte in bytes {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
    }

    /// The 128-bit fold: eight accumulators, one 128-byte block per step.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) fn fold128(crc: u32, data: &[u8]) -> u32 {
        // Accumulator `i` lies 16 · (7 − i) bytes before the last.
        const INTO_LAST: [[u64; 2]; 7] = [keys(112), keys(96), keys(80), keys(64), keys(48), keys(32), keys(16)];
        let (blocks, tail) = data.as_chunks::<128>();
        let Some((first, blocks)) = blocks.split_first() else {
            return short(crc, data);
        };
        let mut acc: [__m128i; 8] = std::array::from_fn(|i| load16(first, 16 * i));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));
        for block in blocks {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = fold(*a, const { keys(128) }, load16(block, 16 * i));
            }
        }
        let mut last = acc[7];
        for (a, k) in acc.iter().zip(INTO_LAST) {
            last = fold(*a, k, last);
        }
        finish(last, tail)
    }

    /// The 512-bit fold: four accumulators, one 256-byte block per step;
    /// then the leftover 64-byte blocks into one accumulator.
    #[target_feature(enable = "sse4.2,pclmulqdq,avx512f,vpclmulqdq")]
    pub(super) fn fold512(crc: u32, data: &[u8]) -> u32 {
        // Accumulator `i` lies 64 · (3 − i) bytes before the last.
        const INTO_LAST: [[u64; 2]; 3] = [keys(192), keys(128), keys(64)];
        let (blocks, rest) = data.as_chunks::<256>();
        let Some((first, blocks)) = blocks.split_first() else {
            return fold128(crc, data);
        };
        let mut acc: [__m512i; 4] = std::array::from_fn(|i| load64(first, 64 * i));
        let register = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        acc[0] = _mm512_xor_si512(acc[0], register);
        for block in blocks {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = fold4(*a, const { keys(256) }, load64(block, 64 * i));
            }
        }
        let mut last = acc[3];
        for (a, k) in acc.iter().zip(INTO_LAST) {
            last = fold4(*a, k, last);
        }
        let (quads, tail) = rest.as_chunks::<64>();
        for quad in quads {
            last = fold4(last, const { keys(64) }, load64(quad, 0));
        }
        let mut x = _mm512_extracti32x4_epi32::<3>(last);
        x = fold(_mm512_extracti32x4_epi32::<0>(last), const { keys(48) }, x);
        x = fold(_mm512_extracti32x4_epi32::<1>(last), const { keys(32) }, x);
        x = fold(_mm512_extracti32x4_epi32::<2>(last), const { keys(16) }, x);
        finish(x, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Rocksoft "check" value every CRC-32C implementation must
    /// produce for the nine ASCII digits.
    #[test]
    fn rocksoft_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    /// RFC 3720 B.4 vectors: 32 zero bytes, 32 ones bytes, and the
    /// ascending byte ramp 0x00..0x1F.
    #[test]
    fn rfc3720_vectors() {
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ramp: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ramp), 0x46DD_794E);
    }

    /// Empty input is the identity: init and final XOR cancel.
    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32c(b""), 0);
    }

    /// A longer-than-one-slice ASCII vector, cross-checked against an
    /// independent bitwise implementation.
    #[test]
    fn pangram_vector() {
        assert_eq!(crc32c(b"The quick brown fox jumps over the lazy dog"), 0x2262_0404);
    }

    /// Incremental updates across arbitrary split points must equal the
    /// one-shot checksum — this is exactly how the transport layer feeds
    /// header and payload separately.
    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1025u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32c(&data);
        for split in [0, 1, 7, 8, 9, 13, 512, data.len()] {
            let mut state = Crc32c::new();
            state.update(&data[..split]);
            state.update(&data[split..]);
            assert_eq!(state.finish(), whole, "split at {split}");
        }
    }

    /// Any single-bit flip anywhere in a frame-sized buffer changes the
    /// checksum — the property the wire trailer actually relies on.
    #[test]
    fn single_bit_flips_are_detected() {
        let mut data: Vec<u8> = (0..137u32).map(|i| (i * 17 % 256) as u8).collect();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), clean, "flip at byte {byte} bit {bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    /// SplitMix64: seeded, so a failing length and register reproduce.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform-enough in `0..=n`.
        fn upto(&mut self, n: usize) -> usize {
            (self.next() % (n as u64 + 1)) as usize
        }
    }

    /// Every path compiled in for this CPU — the table, the short
    /// `crc32q` chain, the 128-bit and the 512-bit fold, each called
    /// directly — agrees with the table from three initial registers, on
    /// every length up to 1 100 (each fold's block edges, its tail
    /// lengths and the 64-byte leftovers of the wide one), on both sides
    /// of larger block edges, and on LU's first panel frame (2 252 800
    /// bytes). The same inputs fed through [`Crc32c::update`] in random
    /// pieces give the one-shot value. A path the CPU lacks is skipped
    /// with a note.
    #[test]
    fn every_path_agrees_at_every_fold_edge() {
        type Path = (&'static str, fn(u32, &[u8]) -> u32);
        let mut paths: Vec<Path> = vec![("table", table)];
        #[cfg(target_arch = "x86_64")]
        {
            let sse42 = is_x86_feature_detected!("sse4.2");
            let narrow = sse42 && is_x86_feature_detected!("pclmulqdq");
            let wide = narrow && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vpclmulqdq");
            // SAFETY (each path): pushed only where its features were
            // just detected.
            let candidates: [(Path, bool); 3] = [
                (("short crc32q", |c, d| unsafe { clmul::short(c, d) }), sse42),
                (("128-bit fold", |c, d| unsafe { clmul::fold128(c, d) }), narrow),
                (("512-bit fold", |c, d| unsafe { clmul::fold512(c, d) }), wide),
            ];
            for (path, present) in candidates {
                if present {
                    paths.push(path);
                } else {
                    println!("note: this CPU lacks the {}; skipped", path.0);
                }
            }
        }
        let mut rng = SplitMix(0x5EED_C3C3);
        let mut lens: Vec<usize> = (0..=1100).collect();
        lens.extend([255, 256, 257, 4095, 4096, 4097, 19_200 + 17, 65_536 + 13, 2_252_800 + 7]);
        let data: Vec<u8> = (0..2_252_807).map(|_| rng.next() as u8).collect();
        let registers = [0, !0, rng.next() as u32];
        for len in lens {
            let input = &data[..len];
            for crc in registers {
                let want = table(crc, input);
                for (name, path) in &paths {
                    assert_eq!(path(crc, input), want, "{name}: len {len}, register {crc:#010x}");
                }
            }
            let mut state = Crc32c::new();
            let mut rest = input;
            while !rest.is_empty() {
                let (piece, after) = rest.split_at(rng.upto(rest.len()));
                state.update(piece);
                rest = after;
            }
            assert_eq!(state.finish(), !table(!0, input), "random pieces: len {len}");
        }
    }

    /// The slicing tables agree with a first-principles bitwise CRC.
    #[test]
    fn tables_match_bitwise_reference() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                }
            }
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        for len in [0, 1, 3, 8, 15, 16, 17, 64, 300] {
            assert_eq!(table(!0, &data[..len]) ^ !0, bitwise(&data[..len]), "len {len}");
        }
    }
}
