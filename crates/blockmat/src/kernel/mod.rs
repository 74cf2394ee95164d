//! The single-block GEMM kernel subsystem — every compute path in the
//! workspace funnels through here.
//!
//! The paper's master-worker runtimes are built on one primitive, the
//! block update `C += A · B`; once the data path is zero-copy (PR 1),
//! per-block FLOP throughput is the dominant cost. This module provides
//! that primitive as a small family of interchangeable kernels behind a
//! runtime-dispatched table:
//!
//! * `scalar` — the cache-tiled, k-unrolled loop nest (bit-identical to
//!   the pre-dispatch `Block::gemm_acc`), always available, and the
//!   fallback on every target.
//! * `avx2` and `avx512` — register tiles written with `std::arch`
//!   intrinsics (4 × 8 in YMM registers; 8 × 16 in ZMM registers, x86_64
//!   only), each selected at runtime when the CPU supports it. A tile is
//!   all a SIMD kernel file holds: the Goto-style packed B layout, the
//!   strip depth and the blocked macro loop are one copy in `pack`,
//!   generic over the tile's `MR × NR`.
//! * [`dispatch`] — the table: CPU features are detected exactly once per
//!   process, [`active`] is the fastest runnable kernel, and [`by_name`] /
//!   [`available`] hand out any other one. A kernel is a value passed to
//!   whatever computes with it — each worker program is built with its own
//!   — not a process-wide setting.
//! * [`PackedB`] — a first-class, reusable packed B operand, so callers
//!   that stream many A operands against one B pay the `O(k·n)` pack cost
//!   once instead of once per `gemm_acc` call.
//!
//! The kernel contract is a rectangular row-major accumulation
//! `C (m×n) += alpha · A (m×k) · B (k×n)`. The public entries take
//! contiguous storage (`ldc = n`, `lda = k`, `ldb = n`); the crate-private
//! `Kernel::gemm_acc_ld` takes each operand's leading dimension, so the
//! blocked LU kernels ([`crate::lu`]) update sub-matrices of one buffer in
//! place — same pack, same macro loop, same micro-kernel. The square
//! `q × q` block update is the `m = n = k = q, alpha = 1` case; the LU
//! rank-µ panel update is the `alpha = -1` case. `alpha` is applied as an
//! exact scalar factor (`±1.0` in every in-tree call site), so sign flips
//! never perturb the result.
//!
//! # The `PackedB` ownership / invalidation contract
//!
//! [`Kernel::pack_into`] fills a caller-owned [`PackedB`] with the
//! kernel's private packed image of `alpha · B` and stamps its identity
//! (kernel name, `k × n` shape, `alpha`). From then on:
//!
//! * the pack is a **snapshot** — it does not watch the source B. The
//!   caller repacks when the source data, the desired `alpha`, or the
//!   kernel changes (the runtimes repack exactly when the resident B row
//!   is overwritten by the next step's row);
//! * the buffer is **recycled, never re-zeroed wholesale** — each pack
//!   rewrites every slot including tail-panel zero padding, so a smaller
//!   pack after a larger one is safe (pinned by proptest);
//! * consuming a pack through a **different kernel panics** — layouts are
//!   kernel-private (`pack`'s blocked panels, 8 wide for AVX2 and 16 wide
//!   for AVX-512; a verbatim row-major copy for scalar) and not
//!   interchangeable;
//! * [`Kernel::gemm_acc_packed`] is **bit-identical** to
//!   [`Kernel::gemm_acc`] on the same operands: same microkernel, same
//!   per-element k-accumulation order — `gemm_acc` *is* "pack into a
//!   thread-local, then run the packed path" on the SIMD side.
//!
//! Numerical contract: every kernel computes each C element as a sum over
//! `k` in increasing order — the kc-strip macro loop preserves this, as
//! the C tile store/reload between strips is exact — so results agree
//! within `k · ‖A‖ · ‖B‖ · ε` elementwise; the scalar kernel reproduces
//! the historical `gemm_acc` bit for bit, while the two SIMD kernels
//! differ from it only by FMA's unrounded multiplies and are **bitwise
//! equal to each other** (each element is the same chain of FMAs,
//! whatever tile it lands in). [`Block::gemm_acc_naive`] (the plain triple
//! loop) is the documented test oracle all kernels are verified against —
//! the optimized paths never verify themselves.
//!
//! [`Block::gemm_acc_naive`]: crate::Block::gemm_acc_naive

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
pub mod dispatch;
pub(crate) mod pack;
pub(crate) mod packed;
pub(crate) mod scalar;

pub use dispatch::{active, available, by_name, Kernel};
pub use pack::pack_count;
pub use packed::PackedB;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_block;
    use crate::Block;
    use proptest::prelude::*;

    /// Naive-oracle expectation for `c += alpha · a · b`, rectangular.
    fn naive(c: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, k: usize, alpha: f64) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] += alpha * acc;
            }
        }
    }

    fn max_abs(s: &[f64]) -> f64 {
        s.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Elementwise error bound for one block update: each C element sums
    /// `k` products, so `k · ‖A‖ · ‖B‖ · ε` (with a small safety factor)
    /// bounds the divergence between any two summation orders.
    fn tol(k: usize, a: &[f64], b: &[f64]) -> f64 {
        4.0 * k as f64 * max_abs(a).max(1.0) * max_abs(b).max(1.0) * f64::EPSILON
    }

    fn seeded(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn every_kernel_matches_oracle_on_tail_sizes() {
        // Sides that are not multiples of either register tile (4 × 8,
        // 8 × 16) nor of the 32-wide cache tile exercise every edge path.
        for kernel in available() {
            for q in [1usize, 3, 5, 7, 15, 17, 25, 33, 80] {
                let a = seeded(q * q, 1);
                let b = seeded(q * q, 2);
                let mut c = seeded(q * q, 3);
                let mut want = c.clone();
                kernel.gemm_acc(&mut c, &a, &b, q, q, q, 1.0);
                naive(&mut want, &a, &b, q, q, q, 1.0);
                assert!(
                    max_abs_diff(&c, &want) <= tol(q, &a, &b),
                    "kernel {} diverges from the naive oracle at q = {q}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn every_kernel_matches_oracle_past_the_strip_and_block_thresholds() {
        // The cache-blocked macro loop changes shape at two thresholds:
        // kc stripping (a full-k strip of the widest column block over
        // the L2 budget: k ≳ 252 at n ≥ 520) and NC-block splitting
        // (n > 512). The tail-size tests above never cross either, so
        // pin the stripped / multi-block *compute* (not just the pack
        // layout) against the naive oracle — and against the prepacked
        // entry, which must stay bit-identical.
        for kernel in available() {
            for (m, n, k) in [
                (9usize, 520usize, 260usize), // multi-strip (kc = KC)
                (3, 525, 5),                  // multi-block (n > NC), tail panel
                (5, 530, 270),                // both, with row + column tails
            ] {
                let a = seeded(m * k, 31);
                let b = seeded(k * n, 32);
                let mut c = seeded(m * n, 33);
                let mut prepacked = c.clone();
                let mut want = c.clone();
                kernel.gemm_acc(&mut c, &a, &b, m, n, k, 1.0);
                naive(&mut want, &a, &b, m, n, k, 1.0);
                assert!(
                    max_abs_diff(&c, &want) <= tol(k, &a, &b),
                    "kernel {} diverges from the oracle at {m}x{n}x{k}",
                    kernel.name()
                );
                let mut bp = PackedB::new();
                kernel.pack_into(&mut bp, &b, k, n, 1.0);
                kernel.gemm_acc_packed(&mut prepacked, &a, &bp, m);
                assert_eq!(
                    c,
                    prepacked,
                    "kernel {}: prepacked diverges from per-call at {m}x{n}x{k}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn every_kernel_handles_rectangular_shapes_and_alpha() {
        // The LU rank-µ update path: rectangular m×n×k with alpha = -1.
        for kernel in available() {
            for (m, n, k) in [(1, 1, 1), (5, 13, 3), (12, 8, 40), (33, 7, 17), (4, 8, 80)] {
                let a = seeded(m * k, 10);
                let b = seeded(k * n, 11);
                let mut c = seeded(m * n, 12);
                let mut want = c.clone();
                kernel.gemm_acc(&mut c, &a, &b, m, n, k, -1.0);
                naive(&mut want, &a, &b, m, n, k, -1.0);
                assert!(
                    max_abs_diff(&c, &want) <= tol(k, &a, &b),
                    "kernel {} diverges at {m}x{n}x{k} alpha=-1",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn strided_operands_match_contiguous_copies_bitwise() {
        // The leading-dimension entry on sub-matrices of one buffer —
        // C and A sharing rows, as the in-place LU kernels pass them —
        // against the contiguous entry on copies of the same operands.
        let (ld, rows) = (61usize, 50usize);
        let copy = |buf: &[f64], r0: usize, c0: usize, h: usize, w: usize| -> Vec<f64> {
            (0..h).flat_map(|i| buf[(r0 + i) * ld + c0..][..w].to_vec()).collect()
        };
        for kernel in available() {
            let shapes = [(1usize, 1usize, 1usize), (4, 8, 16), (7, 13, 5), (33, 29, 16), (10, 40, 3)];
            for (m, n, k) in shapes {
                let mut buf = seeded(ld * rows, 41);
                // B: rows 0..k, cols 20..20+n; A: rows 16.., cols 0..k;
                // C: rows 16.., cols 20..20+n.
                let (a, b) = (copy(&buf, 16, 0, m, k), copy(&buf, 0, 20, k, n));
                let mut want = copy(&buf, 16, 20, m, n);
                kernel.gemm_acc(&mut want, &a, &b, m, n, k, -1.0);
                let before = buf.clone();
                let p = buf.as_mut_ptr();
                // SAFETY: the three sub-matrices lie inside `buf`; C's
                // columns are disjoint from A's, its rows from B's.
                unsafe {
                    let (c, a, b) = (p.add(16 * ld + 20), p.add(16 * ld), p.add(20));
                    kernel.gemm_acc_ld(c, ld, a, ld, b, ld, m, n, k, -1.0);
                }
                let got = copy(&buf, 16, 20, m, n);
                assert_eq!(got, want, "kernel {} at {m}x{n}x{k}", kernel.name());
                // Nothing outside C moved.
                for i in 0..rows {
                    for j in 0..ld {
                        let in_c = (16..16 + m).contains(&i) && (20..20 + n).contains(&j);
                        let kept = buf[i * ld + j] == before[i * ld + j];
                        assert!(in_c || kept, "({i}, {j}) clobbered");
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_kernel_is_bit_identical_to_historical_gemm_acc() {
        // The scalar dispatch entry IS the pre-dispatch tiled loop: same
        // tiling, same 4-wide k unroll, same per-j accumulation order.
        // Freeze that with an exact comparison against a hand-rolled copy
        // of the historical loop at a size crossing tile boundaries.
        let scalar = by_name("scalar").expect("scalar is always available");
        let q = 47;
        let a = seeded(q * q, 21);
        let b = seeded(q * q, 22);
        let mut got = seeded(q * q, 23);
        let mut want = got.clone();
        scalar.gemm_acc(&mut got, &a, &b, q, q, q, 1.0);
        historical_gemm_acc(&mut want, &a, &b, q);
        assert_eq!(got, want, "scalar kernel must stay bit-identical");
    }

    /// Verbatim copy of the pre-dispatch `Block::gemm_acc` loop nest, kept
    /// only as the bit-exactness reference for the scalar kernel.
    fn historical_gemm_acc(cv: &mut [f64], av: &[f64], bv: &[f64], q: usize) {
        const TILE: usize = 32;
        let mut ii = 0;
        while ii < q {
            let i_end = (ii + TILE).min(q);
            let mut kk = 0;
            while kk < q {
                let k_end = (kk + TILE).min(q);
                for i in ii..i_end {
                    let arow = &av[i * q..][..q];
                    let crow = &mut cv[i * q..][..q];
                    let mut k = kk;
                    while k + 4 <= k_end {
                        let a0 = arow[k];
                        let a1 = arow[k + 1];
                        let a2 = arow[k + 2];
                        let a3 = arow[k + 3];
                        let b0 = &bv[k * q..][..q];
                        let b1 = &bv[(k + 1) * q..][..q];
                        let b2 = &bv[(k + 2) * q..][..q];
                        let b3 = &bv[(k + 3) * q..][..q];
                        for j in 0..q {
                            let mut s = crow[j];
                            s += a0 * b0[j];
                            s += a1 * b1[j];
                            s += a2 * b2[j];
                            s += a3 * b3[j];
                            crow[j] = s;
                        }
                        k += 4;
                    }
                    while k < k_end {
                        let aik = arow[k];
                        let brow = &bv[k * q..][..q];
                        for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                            *cj += aik * *bj;
                        }
                        k += 1;
                    }
                }
                kk = k_end;
            }
            ii = i_end;
        }
    }

    /// The SIMD rows this CPU runs (none, `avx2`, or both).
    fn simd() -> impl Iterator<Item = &'static Kernel> {
        available().into_iter().filter(|k| k.name() != "scalar")
    }

    #[test]
    fn simd_matches_scalar_on_tail_sizes() {
        let scalar = by_name("scalar").expect("always available");
        for simd in simd() {
            for q in [1usize, 3, 5, 7, 15, 17, 25, 33, 80] {
                let a = random_block(q, 4);
                let b = random_block(q, 5);
                let mut c1 = Block::zeros(q);
                let mut c2 = Block::zeros(q);
                c1.gemm_acc_with(simd, &a, &b);
                c2.gemm_acc_with(scalar, &a, &b);
                assert!(
                    c1.max_abs_diff(&c2) <= tol(q, a.as_slice(), b.as_slice()),
                    "{} and scalar kernels diverge at q = {q}",
                    simd.name()
                );
            }
        }
    }

    /// The two SIMD rows, when this CPU runs both — the AVX-512 tests
    /// self-skip without `avx512f` (GitHub runners may lack it).
    fn avx2_and_avx512() -> Option<(&'static Kernel, &'static Kernel)> {
        Some((by_name("avx2").ok()?, by_name("avx512").ok()?))
    }

    /// Rows `r0..r0 + h`, columns `c0..c0 + w` of the row-major `buf`
    /// (rows `ld` apart), copied out.
    fn sub(buf: &[f64], ld: usize, r0: usize, c0: usize, h: usize, w: usize) -> Vec<f64> {
        (0..h).flat_map(|i| buf[(r0 + i) * ld + c0..][..w].to_vec()).collect()
    }

    /// `C += alpha · A · B` through each of `kernel`'s three entries, on
    /// the LU trailing-update layout of one buffer — A left of C in the
    /// same rows, B above C — and returns the C each produced: per call on
    /// contiguous copies, prepacked, and in place through leading
    /// dimensions.
    fn three_ways(kernel: &Kernel, m: usize, n: usize, k: usize, alpha: f64, seed: u64) -> [Vec<f64>; 3] {
        let ld = k + n + 3;
        let mut buf = seeded(ld * (k + m), seed);
        let (a, b) = (sub(&buf, ld, k, 0, m, k), sub(&buf, ld, 0, k, k, n));
        let mut per_call = sub(&buf, ld, k, k, m, n);
        let mut prepacked = per_call.clone();
        kernel.gemm_acc(&mut per_call, &a, &b, m, n, k, alpha);
        let mut bp = PackedB::new();
        kernel.pack_into(&mut bp, &b, k, n, alpha);
        kernel.gemm_acc_packed(&mut prepacked, &a, &bp, m);
        let p = buf.as_mut_ptr();
        // SAFETY: C = rows k.., columns k.., A = the same rows' columns
        // 0..k, B = rows 0..k above C: all inside `buf`, C disjoint from
        // both.
        unsafe { kernel.gemm_acc_ld(p.add(k * ld + k), ld, p.add(k * ld), ld, p.add(k), ld, m, n, k, alpha) };
        [per_call, prepacked, sub(&buf, ld, k, k, m, n)]
    }

    #[test]
    fn avx512_is_bitwise_avx2_past_the_strip_and_block_thresholds() {
        // 640³ is kc-stripped under both tiles (and multi-block); 9 × 1100
        // × 30 is three NC blocks with a ragged last panel.
        let Some((avx2, avx512)) = avx2_and_avx512() else { return };
        for (m, n, k, alpha) in [(640usize, 640usize, 640usize, 1.0), (9, 1100, 30, -1.0)] {
            let want = three_ways(avx2, m, n, k, alpha, 51);
            assert!(want[1..].iter().all(|c| *c == want[0]), "avx2 entries disagree at {m}x{n}x{k}");
            assert!(three_ways(avx512, m, n, k, alpha, 51) == want, "avx512 is not avx2 at {m}x{n}x{k}");
        }
    }

    proptest! {
        /// SIMD vs scalar within the `q · ‖A‖ · ‖B‖ · ε` bound, at sizes
        /// straddling both register tiles and the 32-wide cache tile.
        #[test]
        fn prop_simd_matches_scalar(q in 1usize..48, seed in 0u64..500) {
            let scalar = by_name("scalar").expect("always available");
            for simd in simd() {
                let a = seeded(q * q, seed);
                let b = seeded(q * q, seed + 1);
                let mut c1 = seeded(q * q, seed + 2);
                let mut c2 = c1.clone();
                simd.gemm_acc(&mut c1, &a, &b, q, q, q, 1.0);
                scalar.gemm_acc(&mut c2, &a, &b, q, q, q, 1.0);
                prop_assert!(max_abs_diff(&c1, &c2) <= tol(q, &a, &b), "{} at q = {}", simd.name(), q);
            }
        }

        /// Rectangular + alpha = -1 equivalence (the shape of LU's whole trailing update).
        #[test]
        fn prop_simd_matches_scalar_rect(m in 1usize..20, n in 1usize..20,
                                         k in 1usize..20, seed in 0u64..200) {
            let scalar = by_name("scalar").expect("always available");
            for simd in simd() {
                let a = seeded(m * k, seed);
                let b = seeded(k * n, seed + 1);
                let mut c1 = seeded(m * n, seed + 2);
                let mut c2 = c1.clone();
                simd.gemm_acc(&mut c1, &a, &b, m, n, k, -1.0);
                scalar.gemm_acc(&mut c2, &a, &b, m, n, k, -1.0);
                prop_assert!(max_abs_diff(&c1, &c2) <= tol(k, &a, &b), "{} at {}x{}x{}", simd.name(), m, n, k);
            }
        }

        /// AVX-512 is AVX2, bit for bit, through all three entries — per
        /// call, prepacked, strided with C and A sharing rows — for
        /// alpha = ±1, at shapes straddling both tiles' `MR` (4, 8) and
        /// `NR` (8, 16) several times over.
        #[test]
        fn prop_avx512_is_bitwise_avx2(m in 1usize..40, n in 1usize..70, k in 1usize..40,
                                       negate in 0u8..2, seed in 0u64..1000) {
            let Some((avx2, avx512)) = avx2_and_avx512() else { return Ok(()) };
            let alpha = if negate == 1 { -1.0 } else { 1.0 };
            let want = three_ways(avx2, m, n, k, alpha, seed);
            prop_assert!(want[1..].iter().all(|c| *c == want[0]), "avx2 entries disagree at {}x{}x{}", m, n, k);
            prop_assert!(three_ways(avx512, m, n, k, alpha, seed) == want, "{}x{}x{} alpha {}", m, n, k, alpha);
        }
    }
}
