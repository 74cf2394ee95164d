//! Cache-blocked packed B-panel layout for the register-blocked
//! microkernel, plus the process-wide pack counter.
//!
//! B (`k × n`, row-major) is repacked into a Goto-style blocked layout:
//! the column range is cut into [`NC`]-wide *blocks*, each block into
//! [`KC`]-deep *strips*, and each strip into [`NR`]-column *panels*
//! stored k-major — panel element `(kk, j)` of a strip lives at
//! `kk·NR + j` inside its panel. The macrokernel then walks one kc strip
//! at a time: a 4-row A stripe (`4·KC·8 B` ≈ 6 KiB) and the current
//! panel (`KC·NR·8 B` ≈ 12 KiB) both sit in L1 while the full strip
//! (`KC·NC·8 B` ≲ 0.8 MiB) stays resident in L2 across every A stripe —
//! the "kc-blocked pack" the roadmap called for, which keeps large-q
//! updates (q ≫ 200, where a flat pack of B overflows L2) on the same
//! GFLOP/s plateau as q ≈ 80.
//!
//! Every slot of the packed buffer is written on each pack — live columns
//! from B, tail-panel padding explicitly zeroed — so a recycled buffer
//! (which is *not* re-zeroed on resize) can be repacked to any smaller or
//! larger shape without stale values leaking into the zero padding. The
//! `prop_repack_after_larger_shape_is_clean` proptest pins this.
//!
//! The last panel of a block is zero-padded to full [`NR`] width, so the
//! microkernel never needs a masked load; padded columns contribute exact
//! zeros that the caller discards. Folding `alpha` into the pack keeps
//! the multiply out of the FMA inner loop (and is exact for the `±1.0`
//! used in-tree).
//!
//! The per-call pack buffer is thread-local and grows to a high-water
//! mark, so `gemm_acc` stays allocation-free at steady state; prepacked
//! reuse goes through [`super::PackedB`], which owns its buffer outright.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Panel width in columns: two 4-lane f64 vectors.
pub(super) const NR: usize = 8;

/// Microkernel height in rows.
pub(super) const MR: usize = 4;

/// Strip depth in k when stripping is needed: one `KC × NR` panel is
/// ~12 KiB and one 4-row A stripe is ~6 KiB, so panel + stripe fit L1
/// together; a full `KC × NC` strip is ~0.8 MiB, resident in L2 across
/// the whole i loop.
pub(super) const KC: usize = 192;

/// Block width in columns (must be a multiple of [`NR`]): bounds the L2
/// footprint of one packed strip at `KC · NC · 8` bytes.
pub(super) const NC: usize = 512;

/// L2 budget for one resident packed strip: half of a typical 2 MiB L2,
/// leaving the other half for the A and C streams passing through.
const STRIP_L2_BUDGET_BYTES: usize = 1 << 20;

/// The strip depth used for a `k × n` B — the single point of truth for
/// both the pack layout and the macro loop that consumes it.
///
/// Stripping the k range costs one extra C load+store pass per extra
/// strip, which only pays off once the panel no longer fits in L2. So:
/// one full-k strip while a whole-k strip of the widest column block
/// stays within the L2 budget (e.g. q ≤ ~400 square), [`KC`]-deep strips
/// beyond that (q ≫ 400, where the flat pack used to fall off the L2
/// cliff).
pub(super) fn kc_for(k: usize, n: usize) -> usize {
    let strip_width = n.min(NC).div_ceil(NR) * NR;
    if k * strip_width * 8 <= STRIP_L2_BUDGET_BYTES {
        k.max(1)
    } else {
        KC
    }
}

/// Process-wide count of B packs performed (any kernel, any thread).
/// Monotonic; benches snapshot it around a workload to report packs per
/// iteration, making repack elimination measurable rather than inferred.
static PACKS: AtomicU64 = AtomicU64::new(0);

/// Total B packs performed by this process so far (all threads).
pub fn pack_count() -> u64 {
    PACKS.load(Ordering::Relaxed)
}

/// Record one B pack. Called by every kernel's pack routine.
pub(super) fn count_pack() {
    PACKS.fetch_add(1, Ordering::Relaxed);
}

thread_local! {
    static PACK_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Total packed length for a `k × n` B: whole panels of `k · NR`.
/// (`NC` is a multiple of `NR`, so only the last panel of the last block
/// carries padding and the blocked length equals the flat one.)
pub(super) fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Pack `alpha · b` (`k × n`, row-major contiguous) into `out` in the
/// blocked layout: NC blocks → KC strips → NR panels, k-major inside each
/// panel.
pub(super) fn pack_b(b: &[f64], k: usize, n: usize, alpha: f64, out: &mut Vec<f64>) {
    debug_assert_eq!(b.len(), k * n);
    // SAFETY: `b` holds `k` rows of `n` elements, `n` apart.
    unsafe { pack_b_ld(b.as_ptr(), n, k, n, alpha, out) }
}

/// [`pack_b`] for a B whose rows are `ldb ≥ n` apart — a sub-matrix of a
/// larger row-major buffer, read in place.
///
/// # Safety
/// Each of the `k` rows `b + r·ldb .. + n` must be readable and must not
/// be written for the duration of the call.
pub(super) unsafe fn pack_b_ld(
    b: *const f64,
    ldb: usize,
    k: usize,
    n: usize,
    alpha: f64,
    out: &mut Vec<f64>,
) {
    count_pack();
    // Grow-only at steady state: new capacity is zero-filled once, but
    // slots a previous pack wrote are NOT re-zeroed — the loops below
    // overwrite every slot (live columns from B, tail padding explicitly).
    out.resize(packed_len(k, n), 0.0);
    let kc = kc_for(k, n);
    let mut block_base = 0;
    for j0c in (0..n).step_by(NC) {
        let ncb = NC.min(n - j0c);
        let panels = ncb.div_ceil(NR);
        for k0c in (0..k).step_by(kc) {
            let kcb = kc.min(k - k0c);
            // Strip `k0c` starts after the previous strips' panels, all
            // of which are `panels · NR` wide and together `k0c` deep.
            let strip = &mut out[block_base + panels * NR * k0c..][..panels * NR * kcb];
            for p in 0..panels {
                let j0 = j0c + p * NR;
                let nr = NR.min(n - j0);
                let panel = &mut strip[p * kcb * NR..][..kcb * NR];
                for kk in 0..kcb {
                    // SAFETY: columns `j0 .. j0 + nr` of row `k0c + kk`,
                    // inside the row the caller vouched for.
                    let row = unsafe { b.add((k0c + kk) * ldb + j0) };
                    let src = unsafe { std::slice::from_raw_parts(row, nr) };
                    let dst = &mut panel[kk * NR..][..NR];
                    for (d, s) in dst[..nr].iter_mut().zip(src) {
                        *d = alpha * *s;
                    }
                    for d in &mut dst[nr..] {
                        *d = 0.0;
                    }
                }
            }
        }
        block_base += panels * NR * k;
    }
}

/// Run `f` with this thread's recycled pack buffer.
pub(super) fn with_pack_buf<R>(f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    PACK_BUF.with(|buf| f(&mut buf.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn packs_panels_k_major_with_zero_padding() {
        // 2×10 B -> panels of 8: panel 0 full, panel 1 has 2 live columns.
        // (k ≤ KC and n ≤ NC: a single strip, so the blocked layout
        // coincides with a flat panel sequence.)
        let k = 2;
        let n = 10;
        let b: Vec<f64> = (0..k * n).map(|x| x as f64).collect();
        let mut out = vec![f64::NAN; 64]; // dirty buffer: padding must be cleared
        pack_b(&b, k, n, 1.0, &mut out);
        assert_eq!(out.len(), packed_len(k, n));
        // Panel 0, row 0 = b[0..8]; row 1 = b[10..18].
        assert_eq!(&out[..8], &b[..8]);
        assert_eq!(&out[8..16], &b[10..18]);
        // Panel 1, row 0 = b[8], b[9], then six zeros.
        assert_eq!(&out[16..24], &[8.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Panel 1, row 1 = b[18], b[19], then six zeros.
        assert_eq!(&out[24..32], &[18.0, 19.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn alpha_is_folded_into_the_pack() {
        let b = vec![1.0, -2.0, 3.0];
        let mut out = Vec::new();
        pack_b(&b, 1, 3, -1.0, &mut out);
        assert_eq!(&out[..3], &[-1.0, 2.0, -3.0]);
    }

    #[test]
    fn strip_depth_is_adaptive() {
        // Small B: one full-k strip (no extra C passes). Large B (a
        // whole-k strip would blow the L2 budget): KC-deep strips.
        assert_eq!(kc_for(80, 80), 80);
        assert_eq!(kc_for(320, 320), 320);
        assert_eq!(kc_for(640, 640), KC);
        assert_eq!(kc_for(4096, 4), 4096); // deep but narrow: still one strip
    }

    #[test]
    fn deep_packs_split_into_kc_strips() {
        // A shape past the L2 budget (300 × 512 ≈ 1.2 MiB): strip 1 must
        // start after strip 0's panels. Column 0 of row kk lives at
        // `kk·NR` within strip 0 and the first element of strip 1 is
        // B[KC][0] at offset `panels·NR·KC`.
        let (k, n) = (300usize, NC);
        assert_eq!(kc_for(k, n), KC, "this shape must be stripped");
        let b: Vec<f64> = (0..k * n).map(|x| (x % 7919) as f64).collect();
        let mut out = Vec::new();
        pack_b(&b, k, n, 1.0, &mut out);
        assert_eq!(out.len(), packed_len(k, n));
        let panels = n.div_ceil(NR);
        assert_eq!(out[0], b[0]);
        assert_eq!(out[NR], b[n]); // k-major within the strip
        assert_eq!(out[panels * NR * KC], b[KC * n]); // strip boundary
        // Last row of the last strip, panel 0.
        assert_eq!(out[panels * NR * KC + (k - 1 - KC) * NR], b[(k - 1) * n]);
    }

    #[test]
    fn wide_packs_split_into_nc_blocks() {
        // n > NC: the second block's panels start after the first block's
        // full `NC × k` footprint.
        let n = NC + 5;
        let b: Vec<f64> = (0..n).map(|x| x as f64).collect();
        let mut out = Vec::new();
        pack_b(&b, 1, n, 1.0, &mut out);
        assert_eq!(out.len(), packed_len(1, n));
        assert_eq!(out[0], 0.0);
        assert_eq!(out[NC], NC as f64); // first element of block 1
        assert_eq!(out[NC + 4], (NC + 4) as f64);
        assert_eq!(out[NC + 5], 0.0); // tail padding of the last panel
    }

    #[test]
    fn recycled_buffer_is_clean_across_stripped_and_blocked_shapes() {
        // The proptest below covers small (single-strip, single-block)
        // shapes; this pins the same no-stale-slots guarantee across the
        // kc-strip and NC-block thresholds, in both directions: a
        // stripped pack into a buffer that held a multi-block pack, and
        // a small tail-panel pack into a buffer that held a stripped one.
        let wide = (NC + 13, 3usize); // (n, k): two column blocks
        let deep = (NC, 300usize); // kc-stripped (see strip_depth test)
        let small = (11usize, 5usize); // tail panel
        let shapes = [wide, deep, small, deep, wide];
        let mut recycled = Vec::new();
        for (i, &(n, k)) in shapes.iter().enumerate() {
            let b: Vec<f64> = (0..k * n).map(|x| (x * 31 + i) as f64).collect();
            pack_b(&b, k, n, 1.0, &mut recycled);
            let mut fresh = Vec::new();
            pack_b(&b, k, n, 1.0, &mut fresh);
            assert_eq!(recycled, fresh, "shape {i} ({k}x{n}): recycled buffer differs");
        }
    }

    #[test]
    fn count_increments_per_pack() {
        let before = pack_count();
        let b = vec![1.0; 6];
        let mut out = Vec::new();
        pack_b(&b, 2, 3, 1.0, &mut out);
        pack_b(&b, 3, 2, 1.0, &mut out);
        assert!(pack_count() >= before + 2);
    }

    proptest! {
        /// Recycled-buffer regression: packing a smaller B into a buffer
        /// that previously held a larger pack must be indistinguishable
        /// from packing into a fresh buffer — `resize` does not re-zero
        /// surviving slots, so the tail-panel zero padding has to be
        /// written explicitly every time.
        #[test]
        fn prop_repack_after_larger_shape_is_clean(
            k1 in 1usize..40, n1 in 1usize..40,
            k2 in 1usize..40, n2 in 1usize..40,
            seed in 0..1000i64,
        ) {
            let big: Vec<f64> = (0..k1 * n1).map(|x| (seed + x as i64) as f64 + 0.5).collect();
            let small: Vec<f64> = (0..k2 * n2).map(|x| (seed - x as i64) as f64 - 0.25).collect();
            let mut recycled = Vec::new();
            pack_b(&big, k1, n1, 1.0, &mut recycled);
            pack_b(&small, k2, n2, 1.0, &mut recycled);
            let mut fresh = Vec::new();
            pack_b(&small, k2, n2, 1.0, &mut fresh);
            prop_assert_eq!(&recycled, &fresh);
        }
    }
}
