//! Register-blocked AVX2/FMA microkernel: a 4×8 C tile held in eight YMM
//! accumulators, FMA-updated from cache-blocked packed B panels.
//!
//! Shape of the computation (`C (m×n) += A (m×k) · B_packed`):
//!
//! * B is packed into the Goto-style blocked layout of [`super::pack`]
//!   (`alpha` folded in, tail panels zero-padded): [`NC`]-column blocks
//!   of [`KC`]-deep strips of [`NR`]-wide k-major panels.
//! * The macro loop walks column blocks, then kc strips, then 4-row A/C
//!   stripes, then panels: one `4 × KC` A stripe and one `KC × NR` panel
//!   share L1, while the full packed strip stays L2-resident across the
//!   whole i loop — so q ≫ 200 no longer falls off the L2 cliff.
//! * The microkernel keeps the full `MR × NR` C tile in registers: 8
//!   accumulators + 2 B vectors + 1 broadcast = 11 of 16 YMM registers.
//!   Each k iteration issues 8 FMAs over 8 independent accumulator
//!   chains, enough ILP to saturate both FMA ports.
//! * Row tails (`m % 4`) run the same kernel monomorphized at `MR` =
//!   1–3; column tails (`n % 8`) run it on a stack scratch tile whose
//!   live columns are copied in and out around the call.
//!
//! Accumulation order over `k` is increasing for every C element — kc
//! strips are visited in increasing k order and the store/reload of the C
//! tile between strips is exact — so results are bit-identical to the
//! PR 2 single-pass panel loop, and differ from the scalar kernel only by
//! FMA's unrounded multiplies, within `k · ‖A‖ · ‖B‖ · ε` elementwise.
//!
//! The per-call entry ([`gemm_acc_ld`]) is literally "pack, then run the
//! packed macrokernel" on a thread-local buffer; prepacked reuse enters
//! at [`gemm_acc_packed`] with a caller-owned [`super::PackedB`] buffer.
//!
//! # Safety
//! Everything here requires AVX2 + FMA at runtime. The only safe route in
//! is [`super::dispatch`], which verifies `is_x86_feature_detected!` once
//! before exposing this kernel.

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::pack::{kc_for, pack_b_ld, packed_len, with_pack_buf, MR, NC, NR};

/// Dispatch-table entry: `C += alpha · A · B` with rows `ldc` / `lda` /
/// `ldb` apart, packing B into the thread-local buffer and running the
/// packed macrokernel — the pack-per-call path every [`gemm_acc_packed`]
/// caller avoids repeating.
///
/// # Safety
/// The CPU must support AVX2 and FMA (guaranteed by `dispatch` before
/// this function pointer is ever handed out), plus the memory contract
/// of [`super::Kernel::gemm_acc_ld`].
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
    with_pack_buf(|buf| {
        // SAFETY: forwarded caller guarantees.
        unsafe {
            pack_b_ld(b, ldb, k, n, alpha, buf);
            gemm_packed(c, ldc, a, lda, buf, m, n, k)
        }
    })
}

/// Dispatch-table entry for the prepacked path: `C += A · bp` where `bp`
/// is a blocked pack produced by this kernel (`alpha` already folded in
/// at pack time, so the trailing parameter is unused here).
///
/// # Safety
/// Same CPU requirement as [`gemm_acc_ld`]; `bp` must be a buffer this
/// kernel's pack routine produced for a `k × n` B (checked by
/// [`super::Kernel::gemm_acc_packed`] via the pack identity), and `c`/`a`
/// must have the advertised `m·n` / `m·k` lengths.
pub(super) unsafe fn gemm_acc_packed(
    c: &mut [f64],
    a: &[f64],
    bp: &[f64],
    m: usize,
    n: usize,
    k: usize,
    _alpha_folded_at_pack: f64,
) {
    // SAFETY: forwarded caller guarantees.
    unsafe { gemm_packed(c.as_mut_ptr(), n, a.as_ptr(), k, bp, m, n, k) }
}

/// The blocked macro loop over a packed B buffer: column blocks → kc
/// strips → 4-row stripes → panels, microkernel innermost. C and A rows
/// are `ldc` / `lda` apart.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_packed(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    bp: &[f64],
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert_eq!(bp.len(), packed_len(k, n));
    let kc = kc_for(k, n);
    let mut block_base = 0;
    for j0c in (0..n).step_by(NC) {
        let ncb = NC.min(n - j0c);
        let panels = ncb.div_ceil(NR);
        for k0c in (0..k).step_by(kc) {
            let kcb = kc.min(k - k0c);
            // Strips of this block are laid out back to back, each
            // `panels · NR` wide: strip `k0c` starts `panels·NR·k0c` in.
            let strip = bp.as_ptr().add(block_base + panels * NR * k0c);
            let mut i0 = 0;
            while i0 < m {
                let mr = MR.min(m - i0);
                let a_stripe = a.add(i0 * lda + k0c);
                for p in 0..panels {
                    let j0 = j0c + p * NR;
                    let nr = NR.min(n - j0);
                    let panel = strip.add(p * kcb * NR);
                    if nr == NR {
                        // Full-width tile: accumulate straight into C.
                        let c_tile = c.add(i0 * ldc + j0);
                        microkernel_rows(mr, c_tile, ldc, a_stripe, lda, kcb, panel);
                    } else {
                        // Column tail: stage the live columns through a
                        // scratch tile so the kernel always sees an
                        // NR-wide C. Exact loads/stores, so the staging
                        // never perturbs the accumulation.
                        let mut tile = [0.0f64; MR * NR];
                        for r in 0..mr {
                            std::ptr::copy_nonoverlapping(
                                c.add((i0 + r) * ldc + j0),
                                tile.as_mut_ptr().add(r * NR),
                                nr,
                            );
                        }
                        microkernel_rows(mr, tile.as_mut_ptr(), NR, a_stripe, lda, kcb, panel);
                        for r in 0..mr {
                            std::ptr::copy_nonoverlapping(
                                tile.as_ptr().add(r * NR),
                                c.add((i0 + r) * ldc + j0),
                                nr,
                            );
                        }
                    }
                }
                i0 += MR;
            }
        }
        block_base += panels * NR * k;
    }
}

/// Monomorphize the row count: full stripes take the 4-row kernel, the
/// last stripe takes the matching 1–3-row variant.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_rows(
    mr: usize,
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    kc: usize,
    panel: *const f64,
) {
    match mr {
        4 => microkernel::<4>(c, ldc, a, lda, kc, panel),
        3 => microkernel::<3>(c, ldc, a, lda, kc, panel),
        2 => microkernel::<2>(c, ldc, a, lda, kc, panel),
        1 => microkernel::<1>(c, ldc, a, lda, kc, panel),
        _ => unreachable!("stripe height is 1..=MR"),
    }
}

/// The register tile: `C[0..R][0..8] += A[0..R][0..kc] · panel`, with the
/// `R × 8` C tile resident in `2R` YMM accumulators for the whole strip.
/// `a` points at the stripe's first element of this kc strip; rows are
/// `lda` apart and `kc` elements of each row are consumed.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel<const R: usize>(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    kc: usize,
    panel: *const f64,
) {
    let mut lo = [_mm256_setzero_pd(); R];
    let mut hi = [_mm256_setzero_pd(); R];
    for r in 0..R {
        lo[r] = _mm256_loadu_pd(c.add(r * ldc));
        hi[r] = _mm256_loadu_pd(c.add(r * ldc + 4));
    }
    for kk in 0..kc {
        let b_lo = _mm256_loadu_pd(panel.add(kk * NR));
        let b_hi = _mm256_loadu_pd(panel.add(kk * NR + 4));
        for r in 0..R {
            let av = _mm256_broadcast_sd(&*a.add(r * lda + kk));
            lo[r] = _mm256_fmadd_pd(av, b_lo, lo[r]);
            hi[r] = _mm256_fmadd_pd(av, b_hi, hi[r]);
        }
    }
    for r in 0..R {
        _mm256_storeu_pd(c.add(r * ldc), lo[r]);
        _mm256_storeu_pd(c.add(r * ldc + 4), hi[r]);
    }
}
