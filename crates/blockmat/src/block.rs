//! A single `q × q` block of matrix coefficients.

use crate::kernel::{self, Kernel, PackedB};
use std::fmt;
use std::ops::{Index, IndexMut};

/// One square `q × q` block of `f64` coefficients, stored contiguously in
/// row-major order.
///
/// Blocks are the unit of communication (cost `c_i` per block) and of
/// computation (one *block update* `C += A·B` costs `w_i`). `q` is chosen
/// large enough (80–100) that the `O(q³)` update amortizes per-message and
/// per-call overheads — the Level-3 BLAS effect.
#[derive(Clone, PartialEq)]
pub struct Block {
    q: usize,
    data: Vec<f64>,
}

impl Block {
    /// A zero block of side `q`.
    pub fn zeros(q: usize) -> Self {
        assert!(q > 0, "block side must be positive");
        Block { q, data: vec![0.0; q * q] }
    }

    /// An identity block of side `q`.
    pub fn identity(q: usize) -> Self {
        let mut b = Block::zeros(q);
        for i in 0..q {
            b[(i, i)] = 1.0;
        }
        b
    }

    /// Build from a row-major coefficient vector (length must be `q²`).
    pub fn from_vec(q: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), q * q, "coefficient count must be q²");
        Block { q, data }
    }

    /// Block side `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Raw coefficients, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw coefficients, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Size of this block in bytes when serialized (payload only).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Scale every coefficient by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for d in &mut self.data {
            *d *= alpha;
        }
    }

    /// The block update `self += a · b` — the paper's unit of computation.
    ///
    /// Runs the fastest kernel this CPU supports ([`kernel::active`]): the
    /// widest register-blocked SIMD tile (AVX-512, else AVX2/FMA — the same
    /// bits either way), the cache-tiled scalar loop everywhere else. Code
    /// that is handed a kernel, or performs many updates, calls
    /// [`Block::gemm_acc_with`] instead.
    pub fn gemm_acc(&mut self, a: &Block, b: &Block) {
        self.gemm_acc_with(kernel::active(), a, b);
    }

    /// The block update through an explicitly chosen kernel — the hot-loop
    /// form (and the hook kernel-equivalence tests use to pit kernels
    /// against each other in one process).
    pub fn gemm_acc_with(&mut self, kernel: &Kernel, a: &Block, b: &Block) {
        let q = self.q;
        assert_eq!(a.q, q, "A side must match C");
        assert_eq!(b.q, q, "B side must match C");
        kernel.gemm_acc(&mut self.data, &a.data, &b.data, q, q, q, 1.0);
    }

    /// Pack this block as a reusable B operand for `kernel` (`alpha = 1`,
    /// the block-update case), reusing `dst`'s buffer. See
    /// [`crate::kernel::PackedB`] for the invalidation contract: the pack
    /// is a snapshot, so repack after mutating this block.
    pub fn pack_b_for(&self, kernel: &Kernel, dst: &mut PackedB) {
        kernel.pack_into(dst, &self.data, self.q, self.q, 1.0);
    }

    /// The block update `self += a · b` with a prepacked B operand (from
    /// [`Block::pack_b_for`]) — bit-identical to [`Block::gemm_acc_with`]
    /// on the same data, minus the per-call `O(q²)` repack. This is the
    /// form for loops that stream many A blocks against one resident B.
    pub fn gemm_acc_prepacked(&mut self, kernel: &Kernel, a: &Block, b: &PackedB) {
        let q = self.q;
        assert_eq!(a.q, q, "A side must match C");
        assert_eq!((b.k(), b.n()), (q, q), "packed B side must match C");
        assert_eq!(b.alpha(), 1.0, "block updates are packed with alpha = 1");
        kernel.gemm_acc_packed(&mut self.data, &a.data, b, q);
    }

    /// Reference (naive triple-loop) block update — the documented test
    /// oracle. Every optimized kernel (scalar and SIMD) is verified
    /// against this, and [`crate::gemm::verify_product`] builds its
    /// expectation with it, so the optimized path never verifies itself.
    pub fn gemm_acc_naive(&mut self, a: &Block, b: &Block) {
        let q = self.q;
        assert_eq!(a.q, q);
        assert_eq!(b.q, q);
        for i in 0..q {
            for j in 0..q {
                let mut acc = 0.0;
                for k in 0..q {
                    acc += a.data[i * q + k] * b.data[k * q + j];
                }
                self.data[i * q + j] += acc;
            }
        }
    }

    /// Maximum absolute coefficient (infinity norm over elements).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Maximum absolute difference against another block.
    pub fn max_abs_diff(&self, other: &Block) -> f64 {
        assert_eq!(self.q, other.q);
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (&x, &y)| m.max((x - y).abs()))
    }

    /// Append this block's little-endian byte image to `out`.
    pub fn write_bytes_into(&self, out: &mut Vec<u8>) {
        extend_le(out, &self.data);
    }

    /// Deserialize from little-endian bytes appended by [`Block::write_bytes_into`].
    pub fn from_bytes(q: usize, bytes: &[u8]) -> Self {
        let mut b = Block::zeros(q);
        b.copy_from_bytes(bytes);
        b
    }

    /// Overwrite this block's coefficients from a little-endian byte image
    /// — the allocation-free receive path for reusable scratch blocks.
    pub fn copy_from_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.byte_len(), "byte length must be 8q²");
        copy_le(&mut self.data, bytes);
    }
}

/// Append the little-endian byte image of `xs` to `out`. On little-endian
/// targets this is a single bulk copy of the coefficient storage; the
/// portable fallback converts per element.
pub(crate) fn extend_le(out: &mut Vec<u8>, xs: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: f64 has no padding and any byte pattern is a valid
        // read, so viewing the coefficient slice as raw bytes is sound.
        let raw = unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs)) };
        out.extend_from_slice(raw);
    }
    #[cfg(not(target_endian = "little"))]
    {
        out.reserve(std::mem::size_of_val(xs));
        for v in xs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Overwrite `dst` with the little-endian image `bytes` (`8 · dst.len()`
/// bytes, which the callers check).
pub(crate) fn copy_le(dst: &mut [f64], bytes: &[u8]) {
    debug_assert_eq!(bytes.len(), std::mem::size_of_val(dst));
    #[cfg(target_endian = "little")]
    {
        // SAFETY: a byte-wise copy of `8 · dst.len()` bytes into the
        // (f64-aligned) destination; the source carries no alignment
        // guarantee, which a byte copy does not need.
        unsafe {
            let len = std::mem::size_of_val(dst);
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.as_mut_ptr().cast::<u8>(), len);
        }
    }
    #[cfg(not(target_endian = "little"))]
    {
        for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(8)) {
            *d = f64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        }
    }
}

impl Index<(usize, usize)> for Block {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.q + j]
    }
}

impl IndexMut<(usize, usize)> for Block {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.q + j]
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block(q={}, |x|max={:.3e})", self.q, self.max_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq_block(q: usize, start: f64) -> Block {
        Block::from_vec(q, (0..q * q).map(|i| start + i as f64).collect())
    }

    #[test]
    fn identity_is_neutral_for_gemm() {
        let q = 17;
        let a = seq_block(q, 1.0);
        let id = Block::identity(q);
        let mut c = Block::zeros(q);
        c.gemm_acc(&a, &id);
        assert_eq!(c, a);
        let mut c = Block::zeros(q);
        c.gemm_acc(&id, &a);
        assert_eq!(c, a);
    }

    #[test]
    fn gemm_accumulates() {
        let q = 8;
        let a = Block::identity(q);
        let b = seq_block(q, 2.0);
        let mut c = seq_block(q, 5.0);
        let expected: Vec<f64> = c
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x + y)
            .collect();
        c.gemm_acc(&a, &b);
        assert_eq!(c.as_slice(), expected.as_slice());
    }

    #[test]
    fn dispatched_matches_naive_on_odd_sizes() {
        // Sides that are not multiples of any tile exercise edge handling,
        // whichever kernel the dispatcher selected.
        for q in [1, 2, 3, 31, 32, 33, 47, 80] {
            let a = seq_block(q, 0.5);
            let b = seq_block(q, -3.0);
            let mut c1 = seq_block(q, 1.0);
            let mut c2 = c1.clone();
            c1.gemm_acc(&a, &b);
            c2.gemm_acc_naive(&a, &b);
            assert!(
                c1.max_abs_diff(&c2) <= 1e-6 * c2.max_abs().max(1.0),
                "q = {q}: dispatched and naive kernels diverge"
            );
        }
    }

    #[test]
    fn byte_roundtrip() {
        let b = seq_block(13, -7.25);
        let mut bytes = Vec::new();
        b.write_bytes_into(&mut bytes);
        assert_eq!(bytes.len(), b.byte_len());
        let back = Block::from_bytes(13, &bytes);
        assert_eq!(b, back);
    }

    #[test]
    fn indexing_is_row_major() {
        let mut b = Block::zeros(4);
        b[(1, 2)] = 9.0;
        assert_eq!(b.as_slice()[4 + 2], 9.0);
        assert_eq!(b[(1, 2)], 9.0);
    }

    #[test]
    fn scale_multiplies_every_coefficient() {
        let mut a = seq_block(5, 2.0);
        a.scale(0.5);
        let expected = Block::from_vec(5, (0..25).map(|i| 1.0 + 0.5 * i as f64).collect());
        assert!(a.max_abs_diff(&expected) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "q²")]
    fn from_vec_rejects_wrong_len() {
        let _ = Block::from_vec(3, vec![0.0; 8]);
    }

    proptest! {
        #[test]
        fn prop_dispatched_equals_naive(q in 1usize..40, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut gen = |q: usize| {
                Block::from_vec(q, (0..q*q).map(|_| rng.gen_range(-1.0..1.0)).collect())
            };
            let a = gen(q);
            let b = gen(q);
            let mut c1 = gen(q);
            let mut c2 = c1.clone();
            c1.gemm_acc(&a, &b);
            c2.gemm_acc_naive(&a, &b);
            prop_assert!(c1.max_abs_diff(&c2) <= 1e-9);
        }

        #[test]
        fn prop_byte_roundtrip(q in 1usize..24, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let b = Block::from_vec(q, (0..q*q).map(|_| rng.gen::<f64>()).collect());
            let mut bytes = Vec::new();
            b.write_bytes_into(&mut bytes);
            prop_assert_eq!(Block::from_bytes(q, &bytes), b);
        }
    }
}
