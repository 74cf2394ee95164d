//! The AVX2/FMA register tile: a 4×8 block of C held in eight YMM
//! accumulators, FMA-updated from [`super::pack`]'s packed B panels.
//!
//! Pack, strip depth and the column-block → kc-strip → row-stripe →
//! panel macro loop are [`super::pack`]'s, shared with the AVX-512 tile;
//! this file is the tile alone:
//!
//! * 8 accumulators + 2 B vectors + 1 broadcast = 11 of 16 YMM registers.
//!   Each k iteration issues 8 FMAs over 8 independent accumulator
//!   chains, enough ILP to saturate both FMA ports.
//! * Row tails (`m % 4`) run the same kernel monomorphized at 1–3 rows;
//!   column tails (`n % 8`) run it on a stack scratch tile whose live
//!   columns are copied in and out around the call (exact loads and
//!   stores, so the staging never perturbs the accumulation).
//!
//! Every C element accumulates over increasing `k` with FMA, so results
//! are bit-identical to the AVX-512 tile's and differ from the scalar
//! kernel only by FMA's unrounded multiplies, within
//! `k · ‖A‖ · ‖B‖ · ε` elementwise.
//!
//! # Safety
//! Everything here requires AVX2 + FMA at runtime. The only safe route in
//! is [`super::dispatch`], which verifies `is_x86_feature_detected!` once
//! before exposing this kernel.

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::pack::{macro_loop, Tile};

/// The `avx2` dispatch row's tile.
pub(super) struct Avx2;

impl Tile for Avx2 {
    const MR: usize = 4;
    const NR: usize = 8;

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
        macro_loop::<Self>(c, ldc, a, lda, bp, m, n, k)
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn update(
        mr: usize,
        nr: usize,
        c: *mut f64,
        ldc: usize,
        a: *const f64,
        lda: usize,
        kc: usize,
        panel: *const f64,
    ) {
        if nr < Self::NR {
            // Column tail: run the full-width tile on a scratch copy of
            // the live columns.
            let mut tile = [0.0f64; Self::MR * Self::NR];
            for r in 0..mr {
                std::ptr::copy_nonoverlapping(c.add(r * ldc), tile.as_mut_ptr().add(r * Self::NR), nr);
            }
            Self::update(mr, Self::NR, tile.as_mut_ptr(), Self::NR, a, lda, kc, panel);
            for r in 0..mr {
                std::ptr::copy_nonoverlapping(tile.as_ptr().add(r * Self::NR), c.add(r * ldc), nr);
            }
            return;
        }
        // Monomorphize the row count: full stripes take the 4-row
        // kernel, the last stripe the matching 1–3-row variant.
        match mr {
            4 => microkernel::<4>(c, ldc, a, lda, kc, panel),
            3 => microkernel::<3>(c, ldc, a, lda, kc, panel),
            2 => microkernel::<2>(c, ldc, a, lda, kc, panel),
            1 => microkernel::<1>(c, ldc, a, lda, kc, panel),
            _ => unreachable!("stripe height is 1..=MR"),
        }
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
        let b_lo = _mm256_loadu_pd(panel.add(kk * Avx2::NR));
        let b_hi = _mm256_loadu_pd(panel.add(kk * Avx2::NR + 4));
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
