//! The AVX-512 register tile: an 8×16 block of C held in 16 ZMM
//! accumulators, FMA-updated from [`super::pack`]'s 16-wide packed B
//! panels — the `avx512` dispatch row.
//!
//! Pack, strip depth and the macro loop are [`super::pack`]'s, shared
//! with the AVX2 tile; this file is the tile alone:
//!
//! * 16 accumulators + 2 B vectors + 1 broadcast = 19 of 32 ZMM
//!   registers; each k iteration issues 16 FMAs over 16 independent
//!   chains. `MR × NR` was chosen by measurement (CHANGES.md, PR 25):
//!   12 × 16 and 14 × 16 read the same GFLOP/s, 4 × 16, 6 × 16 and
//!   the 32-wide tiles less.
//! * Row tails run the same kernel monomorphized at 1–7 rows.
//! * Column tails need no staging: the last live vector of each C row is
//!   loaded and stored under an `__mmask8`, and a tail of ≤ 8 columns
//!   runs a one-vector variant (half the FMAs) — q = 20 and 40 end every
//!   row in exactly such a tail (16 + 4, 32 + 8). Masked-off lanes are
//!   neither read nor written; the panel's zero padding feeds them.
//!
//! Every C element accumulates over increasing `k` with FMA, exactly as
//! in the AVX2 tile, so the two are **bitwise equal** on every shape —
//! a fleet whose workers dispatch differently returns identical bits.
//!
//! # Safety
//! Everything here requires AVX-512F at runtime. The only safe route in
//! is [`super::dispatch`], which verifies `is_x86_feature_detected!` once
//! before exposing this kernel.

use std::arch::x86_64::*;

use super::pack::{macro_loop, Tile};

/// The `avx512` dispatch row's tile.
pub(super) struct Avx512;

/// f64 lanes per ZMM vector.
const LANES: usize = 8;

impl Tile for Avx512 {
    const MR: usize = 8;
    const NR: usize = 2 * LANES;

    #[target_feature(enable = "avx512f")]
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
    #[target_feature(enable = "avx512f")]
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
        // Lanes of the last live vector: all eight unless `nr` is ragged.
        let vectors = nr.div_ceil(LANES);
        let last = u8::MAX >> (vectors * LANES - nr);
        if vectors == 2 {
            rows::<2>(mr, last, c, ldc, a, lda, kc, panel)
        } else {
            rows::<1>(mr, last, c, ldc, a, lda, kc, panel)
        }
    }
}

/// Monomorphize the row count: full stripes take the `MR`-row kernel,
/// the last stripe the matching shorter one.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn rows<const V: usize>(
    mr: usize,
    last: __mmask8,
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    kc: usize,
    panel: *const f64,
) {
    match mr {
        8 => microkernel::<8, V>(last, c, ldc, a, lda, kc, panel),
        7 => microkernel::<7, V>(last, c, ldc, a, lda, kc, panel),
        6 => microkernel::<6, V>(last, c, ldc, a, lda, kc, panel),
        5 => microkernel::<5, V>(last, c, ldc, a, lda, kc, panel),
        4 => microkernel::<4, V>(last, c, ldc, a, lda, kc, panel),
        3 => microkernel::<3, V>(last, c, ldc, a, lda, kc, panel),
        2 => microkernel::<2, V>(last, c, ldc, a, lda, kc, panel),
        1 => microkernel::<1, V>(last, c, ldc, a, lda, kc, panel),
        _ => unreachable!("stripe height is 1..=MR"),
    }
}

/// The register tile: `C[0..R][0..V·8] += A[0..R][0..kc] · panel`, with
/// the C tile resident in `R · V` ZMM accumulators for the whole strip;
/// vector `V − 1` of each row is loaded and stored under `last`. `a`
/// points at the stripe's first element of this kc strip; rows are `lda`
/// apart and `kc` elements of each row are consumed.
#[target_feature(enable = "avx512f")]
unsafe fn microkernel<const R: usize, const V: usize>(
    last: __mmask8,
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    kc: usize,
    panel: *const f64,
) {
    let mask = |v: usize| if v + 1 == V { last } else { u8::MAX };
    let mut acc = [[_mm512_setzero_pd(); V]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (v, x) in row.iter_mut().enumerate() {
            *x = _mm512_maskz_loadu_pd(mask(v), c.add(r * ldc + v * LANES));
        }
    }
    for kk in 0..kc {
        let mut b = [_mm512_setzero_pd(); V];
        for (v, bv) in b.iter_mut().enumerate() {
            *bv = _mm512_loadu_pd(panel.add(kk * Avx512::NR + v * LANES));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*a.add(r * lda + kk));
            for (x, bv) in row.iter_mut().zip(&b) {
                *x = _mm512_fmadd_pd(av, *bv, *x);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, x) in row.iter().enumerate() {
            _mm512_mask_storeu_pd(c.add(r * ldc + v * LANES), mask(v), *x);
        }
    }
}
