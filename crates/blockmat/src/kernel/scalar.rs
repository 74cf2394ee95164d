//! The portable scalar kernel: a cache-tiled, k-unrolled loop nest.
//!
//! This is the pre-dispatch `Block::gemm_acc` generalized to rectangular
//! shapes and an `alpha` factor. For the square `alpha = 1` case it is
//! bit-identical to the historical kernel (multiplying by `1.0` is exact,
//! and the tiling, 4-wide k unroll, and per-`j` accumulation order are
//! unchanged) — frozen by `kernel::tests::scalar_kernel_is_bit_identical_
//! to_historical_gemm_acc`.
//!
//! The scalar kernel's "packed" B representation is a verbatim row-major
//! copy (`alpha` recorded, not folded — the consumer applies it to the A
//! loads exactly as the per-call path does), so the prepacked path runs
//! this same loop nest on identical data and stays bit-for-bit equal
//! to per-call `gemm_acc` for **every** `alpha`, not just `±1.0`. The
//! copy exists so a `PackedB` is self-contained (the runtimes recycle the
//! resident B block underneath it); the kernel itself gains nothing from
//! packing.

/// Tile side for the cache-blocked loop nest. 32×32 f64 tiles (3 × 8 KiB
/// working set) stay comfortably within L1 on all mainstream CPUs.
const TILE: usize = 32;

/// Scalar pack: a verbatim row-major copy of B into the reused buffer.
/// `alpha` is recorded in the `PackedB` identity and applied at consume
/// time, where the prepacked path is [`gemm_acc_ld`] on the copy.
pub(super) fn pack_b(b: &[f64], out: &mut Vec<f64>) {
    super::pack::count_pack();
    out.clear();
    out.extend_from_slice(b);
}

/// `C (m×n) += alpha · A (m×k) · B (k×n)`, row-major with rows `ldc` /
/// `lda` / `ldb` apart (contiguous operands are `ldc = n`, `lda = k`,
/// `ldb = n`).
///
/// Each pass streams four `b` rows against one `c` row, so the `c` row is
/// loaded and stored once per four rank-1 updates instead of once per
/// update; there is no data-dependent branch in the inner loop to block
/// autovectorization. `alpha` scales the `a` elements as they are loaded
/// (exact for `±1.0`, the only values used in-tree).
///
/// # Safety
/// The memory contract of [`super::Kernel::gemm_acc_ld`].
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_acc_ld(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
) {
    // SAFETY (every `from_raw_parts*` below): row `r` of an operand is the
    // `n` (C, B) or `k` (A) elements at `r · ld`, which the caller vouched
    // for; the C row is disjoint from every A and B row.
    let brow = |kx: usize| unsafe { std::slice::from_raw_parts(b.add(kx * ldb), n) };
    let mut ii = 0;
    while ii < m {
        let i_end = (ii + TILE).min(m);
        let mut kk = 0;
        while kk < k {
            let k_end = (kk + TILE).min(k);
            for i in ii..i_end {
                let arow = unsafe { std::slice::from_raw_parts(a.add(i * lda), k) };
                let crow = unsafe { std::slice::from_raw_parts_mut(c.add(i * ldc), n) };
                let mut kx = kk;
                while kx + 4 <= k_end {
                    let a0 = alpha * arow[kx];
                    let a1 = alpha * arow[kx + 1];
                    let a2 = alpha * arow[kx + 2];
                    let a3 = alpha * arow[kx + 3];
                    let (b0, b1, b2, b3) = (brow(kx), brow(kx + 1), brow(kx + 2), brow(kx + 3));
                    for j in 0..n {
                        let mut s = crow[j];
                        s += a0 * b0[j];
                        s += a1 * b1[j];
                        s += a2 * b2[j];
                        s += a3 * b3[j];
                        crow[j] = s;
                    }
                    kx += 4;
                }
                while kx < k_end {
                    let aik = alpha * arow[kx];
                    for (cj, bj) in crow.iter_mut().zip(brow(kx)) {
                        *cj += aik * *bj;
                    }
                    kx += 1;
                }
            }
            kk = k_end;
        }
        ii = i_end;
    }
}
