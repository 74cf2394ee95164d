//! The cache-blocked packed B layout and the blocked macro loop, written
//! once and shared by every SIMD kernel, plus the process-wide pack
//! counter.
//!
//! A SIMD kernel ([`super::avx2`], [`super::avx512`]) supplies only its
//! register [`Tile`] — `MR` rows × `NR` columns of C held in vector
//! registers across a k loop — and gets the rest from here, generic over
//! the tile:
//!
//! B (`k × n`, row-major) is repacked into a Goto-style blocked layout:
//! the column range is cut into [`NC`]-wide *blocks*, each block into
//! `kc`-deep *strips* ([`kc_for`]), and each strip into `NR`-column
//! *panels* stored k-major — panel element `(kk, j)` of a strip lives at
//! `kk·NR + j` inside its panel. The macro loop walks one kc strip at a
//! time: an `MR`-row A stripe and the current panel share L1 while the
//! whole strip (`kc · NC · 8` bytes at most) stays resident in L2 across
//! every A stripe — which keeps large-q updates (q ≫ 200, where a flat
//! pack of B overflows L2) on the same GFLOP/s plateau as q ≈ 80. The
//! footprints depend on the tile, so they are per kernel:
//!
//! | kernel | tile `MR × NR` | A stripe at [`KC`] (`MR·KC·8` B) | panel at [`KC`] (`KC·NR·8` B) | one full-k strip while |
//! |---|---|---|---|---|
//! | `avx2` | 4 × 8 | 6 KiB | 12 KiB | square q ≤ 360 |
//! | `avx512` | 8 × 16 | 12 KiB | 24 KiB | square q ≤ 356 |
//!
//! The packed image depends on `NR`, so it is private to the kernel that
//! made it (a [`super::PackedB`] records which).
//!
//! Every slot of the packed buffer is written on each pack — live columns
//! from B, tail-panel padding explicitly zeroed — so a recycled buffer
//! (which is *not* re-zeroed on resize) can be repacked to any smaller or
//! larger shape without stale values leaking into the zero padding. The
//! `prop_repack_after_larger_shape_is_clean` proptest pins this.
//!
//! The last panel of a block is zero-padded to full `NR` width, so a
//! tile may always read whole panel rows; the padded columns contribute
//! exact zeros to C columns the tile never writes. Folding `alpha` into
//! the pack keeps the multiply out of the FMA inner loop (and is exact for
//! the `±1.0` used in-tree).
//!
//! Every pack buffer is a [`PackBuf`], which starts on a cache line. The
//! per-call one is thread-local and grows to a high-water mark, so
//! `gemm_acc` stays allocation-free at steady state; prepacked reuse goes
//! through [`super::PackedB`], which owns its buffer outright.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A SIMD kernel's register tile: the one thing each SIMD kernel file
/// writes. Everything else — pack, strip depth, macro loop — is this
/// module's, instantiated per tile.
///
/// Both entries require the implementing kernel's CPU features, which
/// [`super::dispatch`] verifies before it hands the kernel out.
pub(super) trait Tile {
    /// Rows of C one [`Tile::update`] covers.
    const MR: usize;

    /// Columns per packed panel: a multiple of the vector width that
    /// divides [`NC`] (checked at compile time by [`packed_len`]).
    const NR: usize;

    /// The kernel's packed-path entry: [`macro_loop`] compiled with this
    /// kernel's target features — the implementation is that one call,
    /// under `#[target_feature]`, so the tile inlines into it.
    ///
    /// # Safety
    /// The CPU features, plus [`macro_loop`]'s contract.
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_packed(
        c: *mut f64,
        ldc: usize,
        a: *const f64,
        lda: usize,
        bp: &[f64],
        m: usize,
        n: usize,
        k: usize,
    );

    /// `C[0..mr][0..nr] += A[0..mr][0..kc] · panel`, for `1 ≤ mr ≤ MR` and
    /// `1 ≤ nr ≤ NR`, each C element accumulated over increasing `k` with
    /// FMA. C rows are `ldc` apart, A rows `lda` apart; the panel is
    /// `kc × NR`, k-major, zero past column `nr`.
    ///
    /// # Safety
    /// The CPU features; the `mr × nr` C elements readable and writable
    /// (and none outside them touched), the `mr × kc` A elements and the
    /// whole panel readable.
    #[allow(clippy::too_many_arguments)]
    unsafe fn update(
        mr: usize,
        nr: usize,
        c: *mut f64,
        ldc: usize,
        a: *const f64,
        lda: usize,
        kc: usize,
        panel: *const f64,
    );
}

/// Strip depth in k when stripping is needed: at this depth the A stripe
/// and the panel fit L1 together (table above: 18 KiB for the AVX2 tile,
/// 36 KiB for the AVX-512 one, whose CPUs carry a 48 KiB L1D).
pub(super) const KC: usize = 192;

/// Block width in columns (a multiple of every tile's `NR`): bounds the
/// L2 footprint of one packed strip at `KC · NC · 8` bytes (≈ 0.8 MiB).
pub(super) const NC: usize = 512;

/// L2 budget for one resident packed strip: half of a typical 2 MiB L2,
/// leaving the other half for the A and C streams passing through.
const STRIP_L2_BUDGET_BYTES: usize = 1 << 20;

/// The strip depth used for a `k × n` B under tile `T` — the single point
/// of truth for both the pack layout and the macro loop that consumes it.
///
/// Stripping the k range costs one extra C load+store pass per extra
/// strip, which only pays off once the strip no longer fits in L2. So:
/// one full-k strip while a whole-k strip of the widest column block,
/// padded to whole panels, stays within the L2 budget — square q ≤ 360
/// for `NR` = 8 (361 · 368 · 8 B > 2²⁰), q ≤ 356 for `NR` = 16 —
/// [`KC`]-deep strips beyond that, where the flat pack used to fall off
/// the L2 cliff.
pub(super) fn kc_for<T: Tile>(k: usize, n: usize) -> usize {
    let strip_width = n.min(NC).div_ceil(T::NR) * T::NR;
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
    static PACK_BUF: RefCell<PackBuf> = const { RefCell::new(PackBuf::new()) };
}

/// One cache line of packed coefficients, the unit a [`PackBuf`] grows by.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct Line([f64; 8]);

/// A grow-only pack buffer that starts on a cache line. In a pack off the
/// line, the tile's vector loads of each panel row straddle two lines, and
/// a `Vec<f64>` lands wherever the heap has room — 16 bytes past a line as
/// often as on one — so each pack's speed would be a draw. With one pack
/// per `B` row a whole run rests on one draw; this takes the draw away.
#[derive(Debug)]
pub(super) struct PackBuf {
    lines: Vec<Line>,
    len: usize,
}

impl PackBuf {
    pub(super) const fn new() -> Self {
        PackBuf { lines: Vec::new(), len: 0 }
    }

    /// The packed coefficients.
    pub(super) fn as_slice(&self) -> &[f64] {
        // SAFETY: `Line` is `repr(C)` over `[f64; 8]`, so the lines are
        // `8 · lines.len() ≥ len` contiguous, initialized `f64`s.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast(), self.len) }
    }

    /// The buffer as `len` coefficients, for a pack to overwrite: grown
    /// (new slots zero) or cut to length, never re-zeroed.
    pub(super) fn sized(&mut self, len: usize) -> &mut [f64] {
        self.lines.resize(len.div_ceil(8), Line::default());
        self.len = len;
        // SAFETY: as in `as_slice`, and `self` is borrowed mutably.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast(), len) }
    }
}

/// Total packed length for a `k × n` B under tile `T`: whole panels of
/// `k · NR`. (`NC` is a multiple of `NR`, so only the last panel of the
/// last block carries padding and the blocked length equals the flat one.)
pub(super) fn packed_len<T: Tile>(k: usize, n: usize) -> usize {
    const { assert!(NC.is_multiple_of(T::NR), "a panel must not straddle two column blocks") };
    n.div_ceil(T::NR) * k * T::NR
}

/// The SIMD rows' pack entry: pack `alpha · B` (`k × n`, rows `ldb ≥ n`
/// apart — a whole buffer or a sub-matrix of a larger one, read in place)
/// into `out` in tile `T`'s blocked layout: NC blocks → kc strips → NR
/// panels, k-major inside each panel.
///
/// # Safety
/// Each of the `k` rows `b + r·ldb .. + n` must be readable and must not
/// be written for the duration of the call.
pub(super) unsafe fn pack_b_ld<T: Tile>(
    b: *const f64,
    ldb: usize,
    k: usize,
    n: usize,
    alpha: f64,
    out: &mut PackBuf,
) {
    count_pack();
    // Grow-only at steady state: new capacity is zero-filled once, but
    // slots a previous pack wrote are NOT re-zeroed — the loops below
    // overwrite every slot (live columns from B, tail padding explicitly).
    let out = out.sized(packed_len::<T>(k, n));
    let kc = kc_for::<T>(k, n);
    let mut block_base = 0;
    for j0c in (0..n).step_by(NC) {
        let panels = NC.min(n - j0c).div_ceil(T::NR);
        for k0c in (0..k).step_by(kc) {
            let kcb = kc.min(k - k0c);
            // Strip `k0c` starts after the previous strips' panels, all
            // of which are `panels · NR` wide and together `k0c` deep.
            let strip = &mut out[block_base + panels * T::NR * k0c..][..panels * T::NR * kcb];
            for (p, panel) in strip.chunks_exact_mut(kcb * T::NR).enumerate() {
                let j0 = j0c + p * T::NR;
                let nr = T::NR.min(n - j0);
                for (kk, dst) in panel.chunks_exact_mut(T::NR).enumerate() {
                    // SAFETY: columns `j0 .. j0 + nr` of row `k0c + kk`,
                    // inside the row the caller vouched for.
                    let src = unsafe { std::slice::from_raw_parts(b.add((k0c + kk) * ldb + j0), nr) };
                    if nr == T::NR {
                        // A full row: a fixed-length copy the compiler unrolls.
                        dst.iter_mut().zip(&src[..T::NR]).for_each(|(d, s)| *d = alpha * s);
                    } else {
                        dst.iter_mut().zip(src).for_each(|(d, s)| *d = alpha * s);
                        dst[nr..].fill(0.0);
                    }
                }
            }
        }
        block_base += panels * T::NR * k;
    }
}

/// The blocked macro loop over a packed B buffer: column blocks → kc
/// strips → `MR`-row stripes → panels, the tile innermost. C and A rows
/// are `ldc` / `lda` apart. Always inlined, into each tile's
/// [`Tile::gemm_packed`], so it runs under that kernel's target features.
///
/// Accumulation order over `k` is increasing for every C element — kc
/// strips are visited in increasing k order and the store/reload of C
/// between strips is exact — so any two tiles whose updates FMA over
/// increasing `k` produce the same bits, whatever their `MR`, `NR` or
/// strip depth.
///
/// # Safety
/// The memory contract of [`super::Kernel::gemm_acc_ld`] for C and A;
/// `bp` is `T`'s packed image of a `k × n` B.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(super) unsafe fn macro_loop<T: Tile>(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    bp: &[f64],
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert_eq!(bp.len(), packed_len::<T>(k, n));
    let kc = kc_for::<T>(k, n);
    let mut block_base = 0;
    for j0c in (0..n).step_by(NC) {
        let panels = NC.min(n - j0c).div_ceil(T::NR);
        for k0c in (0..k).step_by(kc) {
            let kcb = kc.min(k - k0c);
            // Strips of this block are laid out back to back, each
            // `panels · NR` wide: strip `k0c` starts `panels·NR·k0c` in.
            let strip = bp.as_ptr().add(block_base + panels * T::NR * k0c);
            for i0 in (0..m).step_by(T::MR) {
                let mr = T::MR.min(m - i0);
                let a_stripe = a.add(i0 * lda + k0c);
                for p in 0..panels {
                    let j0 = j0c + p * T::NR;
                    let nr = T::NR.min(n - j0);
                    let (c_tile, panel) = (c.add(i0 * ldc + j0), strip.add(p * kcb * T::NR));
                    T::update(mr, nr, c_tile, ldc, a_stripe, lda, kcb, panel);
                }
            }
        }
        block_base += panels * T::NR * k;
    }
}

/// Run `f` with this thread's recycled pack buffer — where the SIMD rows'
/// per-call updates pack B before running the packed path.
pub(super) fn with_pack_buf<R>(f: impl FnOnce(&mut PackBuf) -> R) -> R {
    PACK_BUF.with(|buf| f(&mut buf.borrow_mut()))
}

#[cfg(all(test, any(target_arch = "x86", target_arch = "x86_64")))]
mod tests {
    use super::super::avx2::Avx2;
    #[cfg(target_arch = "x86_64")]
    use super::super::avx512::Avx512;
    use super::*;
    use proptest::prelude::*;

    /// Pack a contiguous `k × n` B for tile `T`.
    fn pack_b<T: Tile>(b: &[f64], k: usize, n: usize, alpha: f64, out: &mut PackBuf) {
        assert_eq!(b.len(), k * n);
        // SAFETY: `b` holds `k` rows of `n` elements, `n` apart.
        unsafe { pack_b_ld::<T>(b.as_ptr(), n, k, n, alpha, out) }
    }

    /// Run a layout check under every SIMD tile compiled in (packing is
    /// plain data movement: no CPU feature needed).
    fn for_each_tile(check: impl Fn(&dyn Fn(&[f64], usize, usize, f64, &mut PackBuf), usize)) {
        check(&pack_b::<Avx2>, Avx2::NR);
        #[cfg(target_arch = "x86_64")]
        check(&pack_b::<Avx512>, Avx512::NR);
    }

    #[test]
    fn packs_panels_k_major_with_zero_padding() {
        // 2 × (NR + 2) B: panel 0 full, panel 1 has 2 live columns. (k ≤
        // KC and n ≤ NC: a single strip, so the blocked layout coincides
        // with a flat panel sequence.)
        for_each_tile(|pack, nr| {
            let (k, n) = (2, nr + 2);
            let b: Vec<f64> = (0..k * n).map(|x| x as f64).collect();
            let mut buf = PackBuf::new();
            buf.sized(4 * nr * k).fill(f64::NAN); // dirty buffer: padding must be cleared
            pack(&b, k, n, 1.0, &mut buf);
            let out = buf.as_slice();
            assert_eq!(out.len(), 2 * nr * k);
            // Panel 0, row 0 = b[0..NR]; row 1 = b[n..n + NR].
            assert_eq!(&out[..nr], &b[..nr]);
            assert_eq!(&out[nr..2 * nr], &b[n..n + nr]);
            // Panel 1, row kk = the row's last two columns, then zeros.
            for kk in 0..k {
                let row = &out[(k + kk) * nr..][..nr];
                assert_eq!(&row[..2], &b[kk * n + nr..][..2], "NR = {nr}, row {kk}");
                assert!(row[2..].iter().all(|&x| x == 0.0), "NR = {nr}, row {kk}: {row:?}");
            }
        });
    }

    #[test]
    fn alpha_is_folded_into_the_pack() {
        for_each_tile(|pack, _| {
            let b = vec![1.0, -2.0, 3.0];
            let mut out = PackBuf::new();
            pack(&b, 1, 3, -1.0, &mut out);
            assert_eq!(&out.as_slice()[..3], &[-1.0, 2.0, -3.0]);
        });
    }

    #[test]
    fn strip_depth_is_adaptive() {
        // Small B: one full-k strip (no extra C passes). Large B (a
        // whole-k strip would blow the L2 budget): KC-deep strips. The
        // square thresholds are the ones the module docs state per tile.
        assert_eq!(kc_for::<Avx2>(80, 80), 80);
        assert_eq!(kc_for::<Avx2>(320, 320), 320);
        assert_eq!(kc_for::<Avx2>(360, 360), 360);
        assert_eq!(kc_for::<Avx2>(361, 361), KC);
        assert_eq!(kc_for::<Avx2>(640, 640), KC);
        assert_eq!(kc_for::<Avx2>(4096, 4), 4096); // deep but narrow: still one strip
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(kc_for::<Avx512>(320, 320), 320);
            assert_eq!(kc_for::<Avx512>(356, 356), 356);
            assert_eq!(kc_for::<Avx512>(357, 357), KC);
        }
    }

    #[test]
    fn deep_packs_split_into_kc_strips() {
        // A shape past the L2 budget (300 × 512 ≈ 1.2 MiB): strip 1 must
        // start after strip 0's panels. Column 0 of row kk lives at
        // `kk·NR` within strip 0 and the first element of strip 1 is
        // B[KC][0] at offset `panels·NR·KC`.
        let (k, n) = (300usize, NC);
        assert_eq!(kc_for::<Avx2>(k, n), KC, "this shape must be stripped");
        for_each_tile(|pack, nr| {
            let b: Vec<f64> = (0..k * n).map(|x| (x % 7919) as f64).collect();
            let mut buf = PackBuf::new();
            pack(&b, k, n, 1.0, &mut buf);
            let out = buf.as_slice();
            assert_eq!(out.len(), n * k);
            let panels = n / nr;
            assert_eq!(out[0], b[0]);
            assert_eq!(out[nr], b[n]); // k-major within the strip
            assert_eq!(out[panels * nr * KC], b[KC * n]); // strip boundary
            // Last row of the last strip, panel 0.
            assert_eq!(out[panels * nr * KC + (k - 1 - KC) * nr], b[(k - 1) * n]);
        });
    }

    #[test]
    fn wide_packs_split_into_nc_blocks() {
        // n > NC: the second block's panels start after the first block's
        // full `NC × k` footprint.
        for_each_tile(|pack, nr| {
            let n = NC + 5;
            let b: Vec<f64> = (0..n).map(|x| x as f64).collect();
            let mut buf = PackBuf::new();
            pack(&b, 1, n, 1.0, &mut buf);
            let out = buf.as_slice();
            assert_eq!(out.len(), NC + nr);
            assert_eq!(out[0], 0.0);
            assert_eq!(out[NC], NC as f64); // first element of block 1
            assert_eq!(out[NC + 4], (NC + 4) as f64);
            assert_eq!(out[NC + 5], 0.0); // tail padding of the last panel
        });
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
        for_each_tile(|pack, nr| {
            let mut recycled = PackBuf::new();
            for (i, &(n, k)) in shapes.iter().enumerate() {
                let b: Vec<f64> = (0..k * n).map(|x| (x * 31 + i) as f64).collect();
                pack(&b, k, n, 1.0, &mut recycled);
                let mut fresh = PackBuf::new();
                pack(&b, k, n, 1.0, &mut fresh);
                assert_eq!(recycled.as_slice(), fresh.as_slice(), "NR = {nr}, shape {i} ({k}x{n}): recycled buffer differs");
            }
        });
    }

    #[test]
    fn count_increments_per_pack() {
        let before = pack_count();
        let b = vec![1.0; 6];
        let mut out = PackBuf::new();
        pack_b::<Avx2>(&b, 2, 3, 1.0, &mut out);
        pack_b::<Avx2>(&b, 3, 2, 1.0, &mut out);
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
            for_each_tile(|pack, _| {
                let mut recycled = PackBuf::new();
                pack(&big, k1, n1, 1.0, &mut recycled);
                pack(&small, k2, n2, 1.0, &mut recycled);
                let mut fresh = PackBuf::new();
                pack(&small, k2, n2, 1.0, &mut fresh);
                assert_eq!(recycled.as_slice(), fresh.as_slice());
            });
        }
    }
}
