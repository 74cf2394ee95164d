//! In-tree CRC32C (Castagnoli) — the data-plane integrity checksum.
//!
//! Every socket frame carries a 4-byte CRC32C trailer over the frame
//! image (header + payload) — unconditionally: it is part of the wire
//! format. The receive pumps verify the trailer before a frame is
//! admitted; a mismatch is an `InvalidData` error that kills the link,
//! and the existing chunk re-dispatch machinery recovers the run
//! bit-identically.
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
//! and because x86-64 carries it in silicon: where SSE 4.2 is detected
//! (once, like the kernel dispatch in `mwp_blockmat`), [`Crc32c::update`]
//! runs three independent `crc32q` instruction chains over fixed strips
//! and merges them with a precomputed GF(2) shift operator — an order of
//! magnitude past the slicing-by-8 table fallback, which is what made
//! the trailer's end-to-end cost unmeasurable on the socket hot paths
//! (1.0x against a trailer-less wire when that was still a switch).
//! Both paths are pinned to the same published vectors and to each
//! other.

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
        if hw::available() {
            // SAFETY: `available` verified SSE 4.2 on this CPU.
            self.crc = unsafe { hw::update(self.crc, data) };
            return;
        }
        self.update_soft(data);
    }

    /// The table-driven (slicing-by-8) fallback — also the reference the
    /// hardware path is tested against.
    fn update_soft(&mut self, data: &[u8]) {
        let mut crc = self.crc;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            // Fold the register into the first 4 bytes, then advance all
            // 8 bytes with one table lookup each (slicing-by-8).
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.crc = crc;
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

/// The SSE 4.2 hardware path.
///
/// The `crc32q` instruction advances the raw (un-inverted) register by
/// eight bytes but carries a 3-cycle latency, so a single dependency
/// chain caps out near 8 GB/s. The classic remedy: split each chunk
/// into three equal strips, drive **three independent chains** through
/// the loop (the CPU overlaps them), and merge the three raw registers
/// afterwards. Merging leans on CRC linearity — for the raw register,
/// `process(s, A‖B) = shift_len(B)(process(s, A)) ^ process(0, B)` where
/// `shift_n` ("advance past `n` zero bytes") is a linear operator over
/// GF(2). For the fixed strip length the operator is precomputed once
/// as four 256-entry tables, exactly the shape of a slicing table.
#[cfg(target_arch = "x86_64")]
mod hw {
    use std::sync::OnceLock;

    /// Bytes per lane in the three-lane loop. Long enough to amortise
    /// the two merge applications (8 table lookups each), short enough
    /// that frame-sized payloads (a q = 32 block is 8 KiB) still hit
    /// the fast loop.
    const STRIP: usize = 1024;

    /// One-time SSE 4.2 detection, same discipline as the kernel
    /// dispatch in `mwp_blockmat`.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::is_x86_feature_detected!("sse4.2"))
    }

    /// A linear operator on the raw register, as four byte-indexed
    /// tables: `apply(op, c)` XORs one lookup per register byte.
    type Op = [[u32; 256]; 4];

    fn apply(op: &Op, c: u32) -> u32 {
        op[0][(c & 0xFF) as usize]
            ^ op[1][((c >> 8) & 0xFF) as usize]
            ^ op[2][((c >> 16) & 0xFF) as usize]
            ^ op[3][(c >> 24) as usize]
    }

    /// Operator composition, evaluated table-entry-wise: each entry of
    /// `inner` is a register image, pushed through `outer`.
    fn compose(outer: &Op, inner: &Op) -> Box<Op> {
        let mut out = Box::new([[0u32; 256]; 4]);
        for (j, table) in out.iter_mut().enumerate() {
            for (b, slot) in table.iter_mut().enumerate() {
                *slot = apply(outer, inner[j][b]);
            }
        }
        out
    }

    /// The "advance past `STRIP` zero bytes" operator, built once by
    /// squaring the one-zero-byte step (`STRIP` is a power of two).
    fn strip_shift() -> &'static Op {
        static SHIFT: OnceLock<Box<Op>> = OnceLock::new();
        SHIFT.get_or_init(|| {
            // One zero byte on the raw register: c ← T0[c & 0xFF] ^ (c >> 8).
            // As tables: the low register byte routes through T0, every
            // other byte just shifts down one lane (T0[0] = 0).
            let mut z = Box::new([[0u32; 256]; 4]);
            for (b, slot) in z[0].iter_mut().enumerate() {
                *slot = super::TABLES[0][b];
            }
            for (j, table) in z.iter_mut().enumerate().skip(1) {
                for (b, slot) in table.iter_mut().enumerate() {
                    *slot = (b as u32) << (8 * (j - 1));
                }
            }
            let mut op = z;
            let mut covered = 1usize;
            while covered < STRIP {
                op = compose(&op, &op);
                covered *= 2;
            }
            op
        })
    }

    /// Fold `data` into raw register `crc` with three interleaved
    /// `crc32q` chains. Caller must have verified SSE 4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(mut crc: u32, mut data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let le64 = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        while data.len() >= 3 * STRIP {
            let (a, rest) = data.split_at(STRIP);
            let (b, rest) = rest.split_at(STRIP);
            let (c, rest) = rest.split_at(STRIP);
            let (mut ra, mut rb, mut rc) = (crc as u64, 0u64, 0u64);
            for ((x, y), z) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
                ra = _mm_crc32_u64(ra, le64(x));
                rb = _mm_crc32_u64(rb, le64(y));
                rc = _mm_crc32_u64(rc, le64(z));
            }
            let shift = strip_shift();
            crc = apply(shift, apply(shift, ra as u32) ^ rb as u32) ^ rc as u32;
            data = rest;
        }
        let mut r = crc as u64;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            r = _mm_crc32_u64(r, le64(chunk));
        }
        let mut crc = r as u32;
        for &byte in chunks.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
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

    /// The hardware path (where this CPU has one) agrees with the
    /// table-driven fallback on every length class it special-cases:
    /// sub-word tails, single-chain mid-sizes, and multiple three-lane
    /// strips with every possible remainder — the merge operator is
    /// exercised by anything ≥ 3 KiB.
    #[test]
    fn hardware_and_software_paths_agree() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 1023, 3071, 3072, 3073, 6144, 6145, 9216, 10_000] {
            let mut soft = Crc32c::new();
            soft.update_soft(&data[..len]);
            // `crc32c` dispatches to hardware when available; on CPUs
            // without SSE 4.2 this degenerates to soft-vs-soft, which
            // still pins the public entry point.
            assert_eq!(crc32c(&data[..len]), soft.finish(), "len {len}");
        }
        // Incremental splits must agree across the dispatch boundary too.
        let whole = crc32c(&data);
        for split in [1, 8, 1024, 3072, 5000] {
            let mut state = Crc32c::new();
            state.update(&data[..split]);
            state.update(&data[split..]);
            assert_eq!(state.finish(), whole, "split at {split}");
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
            assert_eq!(crc32c(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }
}
