//! [`PackedB`]: a reusable, kernel-owned packed B operand.
//!
//! PR 2 packed B thread-locally inside every `gemm_acc` call, which meant
//! the same B panel was repacked for **every** block update that streamed
//! against it — pure `O(k·n)` waste repeated once per A stripe-mate in
//! the paper's master–worker runtimes, where a worker keeps one B block
//! resident and streams many A blocks through it. `PackedB` promotes the
//! packed panel to a first-class value the caller owns:
//!
//! * **Ownership** — the `PackedB` owns its buffer outright (no thread
//!   locals); it can live in per-worker state, be recycled across runs,
//!   and be shared read-only across threads (`Sync`) once packed.
//! * **Identity** — a pack records which kernel produced it, the source
//!   shape `k × n`, and the `alpha` folded in (or recorded, for kernels
//!   that apply it at consume time). The packed byte layout is private to
//!   the producing kernel; consuming a pack through a *different* kernel
//!   is a caller bug and panics.
//! * **Invalidation** — a pack is a snapshot: it stays valid until the
//!   source B changes, the desired `alpha` changes, or the caller wants a
//!   different kernel. Nothing tracks the source; the caller repacks on
//!   those events (the runtimes repack exactly when a resident B block is
//!   overwritten) or calls [`PackedB::clear`] to drop the identity while
//!   keeping the buffer's capacity warm.
//! * **Reuse** — repacking reuses the buffer (grow-only, never re-zeroed
//!   wholesale); every slot is rewritten on each pack, including the
//!   zero padding of tail panels, so shape shrinks are safe (pinned by a
//!   proptest in [`super::pack`]).

use super::dispatch::Kernel;

/// A packed, kernel-private image of a B operand (`k × n`, with `alpha`
/// folded in or recorded), reusable across any number of
/// `C += alpha · A · B` updates against the same B.
///
/// Produce one with [`Kernel::pack_into`] (or [`PackedB::pack`]); consume
/// it with [`Kernel::gemm_acc_packed`] or the typed wrappers
/// (`Block::gemm_acc_prepacked`, `Dense::sub_mul_prepacked`).
#[derive(Debug)]
pub struct PackedB {
    buf: Vec<f64>,
    k: usize,
    n: usize,
    alpha: f64,
    /// Name of the kernel whose layout `buf` holds; `None` = unpacked.
    packed_by: Option<&'static str>,
}

impl PackedB {
    /// An empty, unpacked operand. Allocation happens on first pack.
    pub const fn new() -> Self {
        PackedB { buf: Vec::new(), k: 0, n: 0, alpha: 1.0, packed_by: None }
    }

    /// Pack `alpha · b` (`k × n`, row-major) for `kernel`, reusing this
    /// operand's buffer. Equivalent to [`Kernel::pack_into`].
    pub fn pack(&mut self, kernel: &Kernel, b: &[f64], k: usize, n: usize, alpha: f64) {
        kernel.pack_into(self, b, k, n, alpha);
    }

    /// Source row count `k` of the packed operand.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Source column count `n` of the packed operand.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `alpha` this operand was packed with.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Name of the kernel that packed this operand, if any.
    #[inline]
    pub fn packed_by(&self) -> Option<&'static str> {
        self.packed_by
    }

    /// The raw packed buffer (layout private to the producing kernel).
    #[inline]
    pub(super) fn buf(&self) -> &[f64] {
        &self.buf
    }

    /// The buffer for a kernel's pack routine to (re)fill.
    #[inline]
    pub(super) fn buf_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }

    /// Stamp the identity after a successful pack.
    pub(super) fn set_identity(
        &mut self,
        kernel: &'static str,
        k: usize,
        n: usize,
        alpha: f64,
    ) {
        self.k = k;
        self.n = n;
        self.alpha = alpha;
        self.packed_by = Some(kernel);
    }
}

impl Default for PackedB {
    fn default() -> Self {
        PackedB::new()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{available, by_name};
    use super::*;

    fn seeded(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn prepacked_is_bit_identical_to_per_call_pack() {
        // The tentpole contract: pack-once-reuse must produce exactly the
        // bytes the per-call path produces, under every runnable kernel,
        // at tail sizes straddling both register tiles (4 × 8, 8 × 16).
        for kernel in available() {
            for q in [1usize, 3, 5, 7, 15, 17, 25, 33, 80] {
                let a = seeded(q * q, 1);
                let b = seeded(q * q, 2);
                let mut per_call = seeded(q * q, 3);
                let mut prepacked = per_call.clone();
                kernel.gemm_acc(&mut per_call, &a, &b, q, q, q, 1.0);
                let mut bp = PackedB::new();
                kernel.pack_into(&mut bp, &b, q, q, 1.0);
                kernel.gemm_acc_packed(&mut prepacked, &a, &bp, q);
                assert_eq!(
                    per_call,
                    prepacked,
                    "kernel {}: prepacked diverges from per-call pack at q = {q}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn one_pack_serves_many_updates() {
        // The reuse pattern the runtimes rely on: one pack, many A's.
        for kernel in available() {
            let (m, n, k) = (13, 9, 17);
            let b = seeded(k * n, 7);
            let mut bp = PackedB::new();
            kernel.pack_into(&mut bp, &b, k, n, -1.0);
            for round in 0..4 {
                let a = seeded(m * k, 20 + round);
                let mut fast = seeded(m * n, 40 + round);
                let mut slow = fast.clone();
                kernel.gemm_acc_packed(&mut fast, &a, &bp, m);
                kernel.gemm_acc(&mut slow, &a, &b, m, n, k, -1.0);
                assert_eq!(fast, slow, "kernel {} round {round}", kernel.name());
            }
        }
    }

    #[test]
    fn repack_to_smaller_shape_reuses_the_buffer_correctly() {
        // Shrinking a recycled PackedB must not leak the larger pack's
        // values into the smaller pack's zero padding.
        for kernel in available() {
            let big = seeded(80 * 80, 11);
            let (m, n, k) = (6, 11, 5); // a tail panel under either tile: 11 = 8 + 3 < 16
            let small = seeded(k * n, 12);
            let a = seeded(m * k, 13);

            let mut recycled = PackedB::new();
            kernel.pack_into(&mut recycled, &big, 80, 80, 1.0);
            kernel.pack_into(&mut recycled, &small, k, n, 1.0);
            let mut fresh = PackedB::new();
            kernel.pack_into(&mut fresh, &small, k, n, 1.0);

            let mut c1 = seeded(m * n, 14);
            let mut c2 = c1.clone();
            kernel.gemm_acc_packed(&mut c1, &a, &recycled, m);
            kernel.gemm_acc_packed(&mut c2, &a, &fresh, m);
            assert_eq!(c1, c2, "kernel {}: recycled pack differs from fresh", kernel.name());
        }
    }

    #[test]
    fn identity_tracks_the_pack() {
        let kernel = by_name("scalar").expect("always available");
        let mut bp = PackedB::new();
        assert_eq!(bp.packed_by(), None);
        bp.pack(kernel, &[1.0, 2.0], 1, 2, -1.0);
        assert_eq!(bp.packed_by(), Some("scalar"));
        assert_eq!((bp.k(), bp.n(), bp.alpha()), (1, 2, -1.0));
    }

    #[test]
    fn consuming_through_the_wrong_kernel_panics() {
        // Every ordered pair of distinct kernels this CPU runs: a scalar
        // pack fed to a SIMD row, and an 8-wide AVX2 pack fed to the
        // 16-wide AVX-512 row (and back).
        let kernels = available();
        for packer in &kernels {
            for consumer in kernels.iter().filter(|k| k.name() != packer.name()) {
                let mut bp = PackedB::new();
                packer.pack_into(&mut bp, &[1.0; 4], 2, 2, 1.0);
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut c = vec![0.0; 4];
                    consumer.gemm_acc_packed(&mut c, &[1.0; 4], &bp, 2);
                }));
                let (from, to) = (packer.name(), consumer.name());
                assert!(res.is_err(), "a {from} pack must not be fed to the {to} kernel");
            }
        }
    }

    #[test]
    fn unpacked_operand_is_rejected() {
        let kernel = by_name("scalar").expect("always available");
        let bp = PackedB::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = vec![0.0; 1];
            kernel.gemm_acc_packed(&mut c, &[1.0], &bp, 1);
        }));
        assert!(res.is_err(), "an unpacked PackedB must be rejected");
    }
}
