//! Dense LU kernels for the Section 7 extension.
//!
//! The paper's right-looking LU step factors a `µ × µ`-block pivot matrix,
//! updates the vertical panel (`x ← x · U⁻¹` per row), the horizontal panel
//! (`y ← L⁻¹ · y` per column), then performs a rank-µ update of the core
//! matrix. These are the corresponding element-level kernels, operating on a
//! small [`Dense`] row-major matrix type (conversions to/from
//! [`BlockMatrix`] are provided so the scheduling layer can stay
//! block-oriented).
//!
//! The pivot chain runs on one processor (§7.2), so whatever these kernels
//! cost is on the critical path. All three are **blocked** the way Brent's
//! survey prescribes (PAPERS.md, blocked LU): a fixed-width diagonal block
//! is solved by contiguous row-axpys, and everything off the diagonal —
//! the `O(n³)` part — is a rank-`NB` update through the dispatched gemm
//! micro-kernel, in place, via `Kernel::gemm_acc_ld`. The block width is
//! a measured constant, not a parameter. Per element the subtractions
//! still arrive in increasing `k`: under the scalar kernel the results are
//! the textbook loops' bits, under AVX2 they differ by FMA's unrounded
//! multiplies, within `n · ε · ‖·‖` (both pinned by this module's tests,
//! which keep the textbook loops as their oracle).
//!
//! Pivoting: the paper never pivots across workers (its LU is a structural
//! blueprint, not a numerically robust solver), so these kernels factor
//! without pivoting and require the input to have nonsingular leading
//! minors — e.g. diagonally dominant matrices, which
//! [`crate::fill::random_diagonally_dominant`] generates.

use crate::kernel::{self, Kernel, PackedB};
use crate::matrix::BlockMatrix;

/// Minimal dense row-major matrix used by the LU kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The coefficients as one row-major slice (for bulk serialization).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major coefficient slice (for bulk deserialization).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Convert a [`BlockMatrix`] to dense form.
    pub fn from_blocks(m: &BlockMatrix) -> Self {
        let (rows, cols) = m.dims();
        let q = m.q();
        let mut data = Vec::with_capacity(rows * cols);
        for bi in 0..m.rows() {
            for r in 0..q {
                for bj in 0..m.cols() {
                    data.extend_from_slice(&m.block(bi, bj).as_slice()[r * q..][..q]);
                }
            }
        }
        Dense { rows, cols, data }
    }

    /// Convert back to a [`BlockMatrix`] with block side `q` (dimensions
    /// must divide evenly).
    pub fn to_blocks(&self, q: usize) -> BlockMatrix {
        assert_eq!(self.rows % q, 0, "rows must divide by q");
        assert_eq!(self.cols % q, 0, "cols must divide by q");
        let mut m = BlockMatrix::zeros(self.rows / q, self.cols / q, q);
        for bi in 0..m.rows() {
            for bj in 0..m.cols() {
                let block = m.block_mut(bi, bj).as_mut_slice();
                for (r, dst) in block.chunks_exact_mut(q).enumerate() {
                    dst.copy_from_slice(&self.data[(bi * q + r) * self.cols + bj * q..][..q]);
                }
            }
        }
        m
    }

    /// `self ← self − a · b` (rank-k update with k = a.cols) through the
    /// dispatched block kernel — this is the LU runtime's core panel
    /// update, `alpha = −1` in the kernel contract.
    pub fn sub_mul(&mut self, a: &Dense, b: &Dense) {
        self.sub_mul_with(kernel::active(), a, b);
    }

    /// [`Dense::sub_mul`] through an explicitly chosen kernel — the form
    /// for loops that resolve the dispatch once (e.g. the LU worker).
    pub fn sub_mul_with(&mut self, kernel: &Kernel, a: &Dense, b: &Dense) {
        assert_eq!(a.cols, b.rows, "inner dimensions");
        assert_eq!(self.rows, a.rows, "row dimensions");
        assert_eq!(self.cols, b.cols, "col dimensions");
        kernel.gemm_acc(&mut self.data, &a.data, &b.data, a.rows, b.cols, a.cols, -1.0);
    }

    /// Pack this matrix as the B operand of [`Dense::sub_mul_prepacked`]
    /// (`alpha = −1`, the rank-µ-update case), reusing `dst`'s buffer.
    pub fn pack_sub_mul_for(&self, kernel: &Kernel, dst: &mut PackedB) {
        kernel.pack_into(dst, &self.data, self.rows, self.cols, -1.0);
    }

    /// `self ← self − a · b` with `b` prepacked by
    /// [`Dense::pack_sub_mul_for`] — bit-identical to
    /// [`Dense::sub_mul_with`] on the same data, minus the per-call
    /// repack. The LU worker packs the step's horizontal panel once and
    /// streams every core row group of the step against it.
    pub fn sub_mul_prepacked(&mut self, kernel: &Kernel, a: &Dense, b: &PackedB) {
        assert_eq!(a.cols, b.k(), "inner dimensions");
        assert_eq!(self.rows, a.rows, "row dimensions");
        assert_eq!(self.cols, b.n(), "col dimensions");
        assert_eq!(b.alpha(), -1.0, "sub_mul operands are packed with alpha = -1");
        kernel.gemm_acc_packed(&mut self.data, &a.data, b, a.rows);
    }

    /// Plain product `a · b` through the dispatched kernel.
    pub fn mul(a: &Dense, b: &Dense) -> Dense {
        let mut c = Dense::zeros(a.rows, b.cols);
        kernel::active().gemm_acc(&mut c.data, &a.data, &b.data, a.rows, b.cols, a.cols, 1.0);
        c
    }

    /// Maximum absolute coefficient.
    fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Maximum absolute difference against `other`.
    pub fn max_abs_diff(&self, other: &Dense) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (&x, &y)| m.max((x - y).abs()))
    }

    /// Extract the sub-matrix `[r0..r1) × [c0..c1)`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Dense {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let cols = c1 - c0;
        let mut data = Vec::with_capacity((r1 - r0) * cols);
        for i in r0..r1 {
            data.extend_from_slice(&self.data[i * self.cols + c0..][..cols]);
        }
        Dense { rows: r1 - r0, cols, data }
    }

    /// Write `sub` into position `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, sub: &Dense) {
        assert!(r0 + sub.rows <= self.rows && c0 + sub.cols <= self.cols);
        for i in 0..sub.rows {
            self.data[(r0 + i) * self.cols + c0..][..sub.cols]
                .copy_from_slice(&sub.data[i * sub.cols..][..sub.cols]);
        }
    }

    /// The unit-lower-triangular factor from a packed LU result (lower part
    /// below the diagonal, implicit unit diagonal).
    pub fn unit_lower(&self) -> Dense {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut l = Dense::identity(n);
        for i in 0..n {
            for j in 0..i {
                l[(i, j)] = self[(i, j)];
            }
        }
        l
    }

    /// The upper-triangular factor from a packed LU result.
    pub fn upper(&self) -> Dense {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut u = Dense::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                u[(i, j)] = self[(i, j)];
            }
        }
        u
    }
}

impl std::ops::Index<(usize, usize)> for Dense {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Smallest pivot magnitude we accept before declaring the matrix
/// numerically singular for unpivoted LU.
pub const PIVOT_TOL: f64 = 1e-12;

/// Side of the diagonal blocks the solves and the factor work through
/// with row-axpys; everything off the diagonal is a rank-`NB` update in
/// the gemm micro-kernel. Measured on the 800 × 160 panels of the perf
/// shape (AVX2, right / left solve in GFLOP/s): 8 → 22.1 / 29.3,
/// 16 → 22.8 / 30.0, 32 → 20.8 / 23.6, 64 → 17.1 / 18.0 — narrower
/// blocks starve the micro-kernel's k loop, wider ones leave too much of
/// the work to the axpys.
const NB: usize = 16;

/// Rows the right solve's diagonal block advances together: the rows are
/// independent, so walking a few of them in lockstep keeps several
/// divide → axpy chains in flight instead of one (1 row: 12 GFLOP/s on
/// the same panel; 4 to 32 rows: 20 to 22).
const ROWS: usize = 8;

/// In-place unpivoted LU factorization: on return the strictly lower part
/// holds `L` (unit diagonal implicit) and the upper part holds `U`. This
/// is the "factor pivot matrix" kernel of Section 7, step 1 — blocked:
/// `NB`-wide diagonal blocks by Doolittle elimination, their panels by
/// the two solves below, the trailing matrix by the gemm micro-kernel.
///
/// # Panics
/// If a pivot smaller than [`PIVOT_TOL`] in magnitude is met.
pub fn lu_factor_in_place(a: &mut Dense) {
    lu_blocked_in_place(a, NB);
}

/// Vertical-panel kernel (Section 7, step 2): replace each row `x` of the
/// panel by `x · U⁻¹`, where `U` is the upper factor of the packed pivot
/// `lu`. Rows are independent: solving a panel whole or in row groups
/// gives the same bits.
pub fn trsm_right_upper(panel: &mut Dense, lu: &Dense) {
    trsm_right_upper_with(kernel::active(), panel, lu);
}

/// Horizontal-panel kernel (Section 7, step 3): replace each column `y` of
/// the panel by `L⁻¹ · y`, where `L` is the unit-lower factor of the packed
/// pivot `lu`. Columns are independent: solving a panel whole or in
/// column groups gives the same bits.
pub fn trsm_left_unit_lower(panel: &mut Dense, lu: &Dense) {
    trsm_left_unit_lower_with(kernel::active(), panel, lu);
}

/// Full right-looking blocked LU with panel width `nb` elements — the
/// single-processor reference of Section 7.1. Returns the packed factors in
/// place of `a`. Each step runs, in place, the kernels the threaded
/// runtime runs on shipped copies of the same panels — pivot factor, the
/// two panel solves, the rank-`nb` core update — so the two agree bit for
/// bit.
pub fn lu_blocked_in_place(a: &mut Dense, nb: usize) {
    lu_blocked_with(kernel::active(), a, nb);
}

fn trsm_right_upper_with(kernel: &Kernel, panel: &mut Dense, lu: &Dense) {
    assert_eq!(lu.rows, lu.cols, "pivot must be square");
    assert_eq!(panel.cols, lu.rows, "panel width must equal pivot side");
    let (p, u) = (panel.data.as_mut_ptr(), lu.data.as_ptr());
    // SAFETY: two distinct contiguous matrices of the shapes just checked.
    unsafe { solve_right_upper(kernel, p, panel.cols, panel.rows, u, lu.cols, lu.rows) }
}

fn trsm_left_unit_lower_with(kernel: &Kernel, panel: &mut Dense, lu: &Dense) {
    assert_eq!(lu.rows, lu.cols, "pivot must be square");
    assert_eq!(panel.rows, lu.rows, "panel height must equal pivot side");
    let (p, l) = (panel.data.as_mut_ptr(), lu.data.as_ptr());
    // SAFETY: two distinct contiguous matrices of the shapes just checked.
    unsafe { solve_left_unit_lower(kernel, p, panel.cols, panel.cols, l, lu.cols, lu.rows) }
}

fn lu_blocked_with(kernel: &Kernel, a: &mut Dense, nb: usize) {
    assert_eq!(a.rows, a.cols, "LU needs a square matrix");
    assert!(nb > 0, "panel width must be positive");
    // SAFETY: one contiguous n × n matrix.
    unsafe { factor(kernel, a.data.as_mut_ptr(), a.cols, a.rows, nb) }
}

/// `P ← P · U⁻¹` in place: `p` is `m × n` with rows `ldp` apart, `U` the
/// upper triangle of the `n × n` matrix at `lu` with rows `ldl` apart.
///
/// Per `NB`-wide column block: forward substitution by contiguous
/// row-axpys against the block's triangle of `U`, then one rank-`NB`
/// update of every column to its right. Each element still receives its
/// subtractions in increasing `k`, exactly as the textbook dot-product
/// form orders them.
///
/// # Safety
/// Both matrices must be valid for their whole `rows × cols` extent at the
/// given strides (`p` for writes) and must not overlap.
unsafe fn solve_right_upper(
    kernel: &Kernel,
    p: *mut f64,
    ldp: usize,
    m: usize,
    lu: *const f64,
    ldl: usize,
    n: usize,
) {
    for j0 in (0..n).step_by(NB) {
        let j1 = (j0 + NB).min(n);
        for i0 in (0..m).step_by(ROWS) {
            for j in j0..j1 {
                // SAFETY: row j of U from its diagonal to the block edge.
                let u = unsafe { std::slice::from_raw_parts(lu.add(j * ldl + j), j1 - j) };
                for i in i0..(i0 + ROWS).min(m) {
                    // SAFETY: the same columns of panel row i.
                    let x = unsafe { std::slice::from_raw_parts_mut(p.add(i * ldp + j), j1 - j) };
                    let xj = x[0] / u[0];
                    x[0] = xj;
                    for (xk, uk) in x[1..].iter_mut().zip(&u[1..]) {
                        *xk -= xj * uk;
                    }
                }
            }
        }
        if j1 < n && m > 0 {
            // SAFETY: C = P[:, j1..n], A = P[:, j0..j1] (disjoint columns
            // of the same rows), B = U[j0..j1, j1..n] in the other matrix.
            unsafe {
                let (c, a, b) = (p.add(j1), p.add(j0), lu.add(j0 * ldl + j1));
                kernel.gemm_acc_ld(c, ldp, a, ldp, b, ldl, m, n - j1, j1 - j0, -1.0);
            }
        }
    }
}

/// `P ← L⁻¹ · P` in place: `p` is `n × m` with rows `ldp` apart, `L` the
/// unit lower triangle of the `n × n` matrix at `lu` with rows `ldl` apart.
///
/// Per `NB`-tall row block: forward substitution by full-width row-axpys
/// (`y_i -= l_ik · y_k`, both rows contiguous), then one rank-`NB` update
/// of every row below. Per element the subtractions run in increasing
/// `k`, as in the textbook form.
///
/// # Safety
/// As [`solve_right_upper`].
unsafe fn solve_left_unit_lower(
    kernel: &Kernel,
    p: *mut f64,
    ldp: usize,
    m: usize,
    lu: *const f64,
    ldl: usize,
    n: usize,
) {
    for i0 in (0..n).step_by(NB) {
        let i1 = (i0 + NB).min(n);
        for i in i0..i1 {
            // SAFETY: panel rows i and k < i are distinct rows.
            let yi = unsafe { std::slice::from_raw_parts_mut(p.add(i * ldp), m) };
            for k in i0..i {
                let l = unsafe { *lu.add(i * ldl + k) };
                let yk = unsafe { std::slice::from_raw_parts(p.add(k * ldp), m) };
                for (y, x) in yi.iter_mut().zip(yk) {
                    *y -= l * x;
                }
            }
        }
        if i1 < n && m > 0 {
            // SAFETY: C = P[i1..n, :] and B = P[i0..i1, :] are disjoint
            // rows, A = L[i1..n, i0..i1] is in the other matrix.
            unsafe {
                let (c, a, b) = (p.add(i1 * ldp), lu.add(i1 * ldl + i0), p.add(i0 * ldp));
                kernel.gemm_acc_ld(c, ldp, a, ldl, b, ldp, n - i1, m, i1 - i0, -1.0);
            }
        }
    }
}

/// Right-looking LU of the `n × n` matrix at `a` (rows `lda` apart) in
/// `nb`-wide steps: factor the diagonal block — by recursion at width
/// [`NB`] when `nb` is wider than that, by Doolittle elimination with
/// row-axpys otherwise — solve the panel below and the panel to the right
/// against it, rank-`nb` update the rest.
///
/// # Safety
/// `a` must be valid for reads and writes over the whole `n × n` extent.
unsafe fn factor(kernel: &Kernel, a: *mut f64, lda: usize, n: usize, nb: usize) {
    for k0 in (0..n).step_by(nb) {
        let k1 = (k0 + nb).min(n);
        // SAFETY (whole body): every pointer below is a sub-matrix of the
        // caller's n × n extent; at each call the written sub-matrix —
        // below, right of, or below-right of the diagonal block — is
        // disjoint from the ones read.
        unsafe {
            let diag = a.add(k0 * lda + k0);
            if nb > NB {
                factor(kernel, diag, lda, k1 - k0, NB);
            } else {
                eliminate(diag, lda, k1 - k0, k0);
            }
            let rest = n - k1;
            if rest > 0 {
                let (below, right) = (a.add(k1 * lda + k0), a.add(k0 * lda + k1));
                solve_right_upper(kernel, below, lda, rest, diag, lda, k1 - k0);
                solve_left_unit_lower(kernel, right, lda, rest, diag, lda, k1 - k0);
                let core = a.add(k1 * lda + k1);
                kernel.gemm_acc_ld(core, lda, below, lda, right, lda, rest, rest, k1 - k0, -1.0);
            }
        }
    }
}

/// Unblocked Doolittle elimination of the `n × n` block at `a`; `step0`
/// is the block's position in the whole matrix, for the panic message.
///
/// # Safety
/// `a` must be valid for reads and writes over the `n × n` extent.
unsafe fn eliminate(a: *mut f64, lda: usize, n: usize, step0: usize) {
    for k in 0..n {
        // SAFETY: row k right of its diagonal; rows i > k are distinct.
        let pivot = unsafe { *a.add(k * lda + k) };
        let u = unsafe { std::slice::from_raw_parts(a.add(k * lda + k + 1), n - k - 1) };
        assert!(
            pivot.abs() > PIVOT_TOL,
            "zero pivot at step {}: unpivoted LU requires nonsingular leading minors",
            step0 + k
        );
        for i in (k + 1)..n {
            let x = unsafe { std::slice::from_raw_parts_mut(a.add(i * lda + k), n - k) };
            let lik = x[0] / pivot;
            x[0] = lik;
            for (xj, uj) in x[1..].iter_mut().zip(u) {
                *xj -= lik * uj;
            }
        }
    }
}

/// Reconstruct `L · U` from a packed factorization — verification helper.
pub fn reconstruct(packed: &Dense) -> Dense {
    Dense::mul(&packed.unit_lower(), &packed.upper())
}

/// Backward error of a packed factorization of the `n × n` matrix `a`, in
/// units of the rounding it may legitimately carry:
/// `‖L·U − A‖ / (‖A‖ · n · ε)` in the max norm. A sound unpivoted
/// factorization of a diagonally dominant matrix reads well below 1 at any
/// size, which an absolute `1e-9` cannot say.
pub fn scaled_residual(packed: &Dense, a: &Dense) -> f64 {
    reconstruct(packed).max_abs_diff(a) / (a.max_abs() * a.rows as f64 * f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_diagonally_dominant;
    use crate::kernel::{available, by_name};
    use proptest::prelude::*;

    /// The textbook triple loops the blocked kernels replaced — the test
    /// oracle, in the role `Block::gemm_acc_naive` plays for gemm. Each
    /// element receives its subtractions in increasing `k`.
    mod oracle {
        use super::Dense;

        pub fn lu_factor(a: &mut Dense) {
            let n = a.rows();
            for k in 0..n {
                let pivot = a[(k, k)];
                for i in (k + 1)..n {
                    let lik = a[(i, k)] / pivot;
                    a[(i, k)] = lik;
                    for j in (k + 1)..n {
                        let u_kj = a[(k, j)];
                        a[(i, j)] -= lik * u_kj;
                    }
                }
            }
        }

        pub fn trsm_right_upper(panel: &mut Dense, lu: &Dense) {
            for i in 0..panel.rows() {
                for j in 0..lu.rows() {
                    let mut acc = panel[(i, j)];
                    for k in 0..j {
                        acc -= panel[(i, k)] * lu[(k, j)];
                    }
                    panel[(i, j)] = acc / lu[(j, j)];
                }
            }
        }

        pub fn trsm_left_unit_lower(panel: &mut Dense, lu: &Dense) {
            for j in 0..panel.cols() {
                for i in 0..lu.rows() {
                    let mut acc = panel[(i, j)];
                    for k in 0..i {
                        acc -= lu[(i, k)] * panel[(k, j)];
                    }
                    panel[(i, j)] = acc;
                }
            }
        }
    }

    fn dense_dd(n_blocks: usize, q: usize, seed: u64) -> Dense {
        Dense::from_blocks(&random_diagonally_dominant(n_blocks, q, seed))
    }

    /// `rows × cols` uniform in `[-1, 1]` (any shape, zero sides included).
    fn random_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut d = Dense::zeros(rows, cols);
        d.data.iter_mut().for_each(|x| *x = rng.gen_range(-1.0..1.0));
        d
    }

    /// A strictly diagonally dominant `n × n` matrix, any `n`.
    fn random_dd(n: usize, seed: u64) -> Dense {
        let mut d = random_dense(n, n, seed);
        (0..n).for_each(|i| d[(i, i)] += n as f64 + 1.0);
        d
    }

    /// `‖got − want‖ / (n · ε · ‖·‖)`: the distance between two orders of
    /// the same `n`-term sums, in units of the rounding either may carry.
    fn scaled_diff(got: &Dense, want: &Dense, n: usize, norm: f64) -> f64 {
        got.max_abs_diff(want) / (n.max(1) as f64 * f64::EPSILON * norm.max(f64::MIN_POSITIVE))
    }

    #[test]
    fn unblocked_lu_reconstructs() {
        let a = dense_dd(2, 5, 3);
        let mut packed = a.clone();
        lu_factor_in_place(&mut packed);
        let lu = reconstruct(&packed);
        assert!(lu.max_abs_diff(&a) < 1e-9 * a.max_abs_diff(&Dense::zeros(10, 10)).max(1.0));
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = dense_dd(3, 4, 7);
        let mut p1 = a.clone();
        let mut p2 = a.clone();
        lu_factor_in_place(&mut p1);
        lu_blocked_in_place(&mut p2, 4);
        assert!(p1.max_abs_diff(&p2) < 1e-9);
    }

    #[test]
    fn blocked_handles_non_divisible_panel() {
        let a = dense_dd(2, 5, 9); // n = 10
        let mut p1 = a.clone();
        let mut p2 = a.clone();
        lu_factor_in_place(&mut p1);
        lu_blocked_in_place(&mut p2, 3); // 10 = 3+3+3+1
        assert!(p1.max_abs_diff(&p2) < 1e-9);
    }

    #[test]
    fn trsm_right_upper_solves() {
        // X · U = P  =>  trsm gives X = P · U^-1.
        let a = dense_dd(1, 6, 1);
        let mut packed = a.clone();
        lu_factor_in_place(&mut packed);
        let u = packed.upper();
        let x_true = dense_dd(1, 6, 2);
        let p = Dense::mul(&x_true, &u);
        let mut x = p;
        trsm_right_upper(&mut x, &packed);
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn trsm_left_unit_lower_solves() {
        // L · Y = P  =>  trsm gives Y = L^-1 · P.
        let a = dense_dd(1, 6, 4);
        let mut packed = a.clone();
        lu_factor_in_place(&mut packed);
        let l = packed.unit_lower();
        let y_true = dense_dd(1, 6, 5);
        let p = Dense::mul(&l, &y_true);
        let mut y = p;
        trsm_left_unit_lower(&mut y, &packed);
        assert!(y.max_abs_diff(&y_true) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "zero pivot at step 1")]
    fn singular_matrix_panics() {
        let mut a = Dense::zeros(3, 3);
        a[(0, 0)] = 1.0; // second pivot will be exactly zero
        lu_factor_in_place(&mut a);
    }

    #[test]
    #[should_panic(expected = "zero pivot at step 40")]
    fn a_zero_pivot_is_named_by_its_global_step() {
        // Past the first diagonal blocks: the message counts from the
        // matrix's first row, not from the block's.
        let mut a = random_dd(45, 6);
        (0..45).for_each(|j| a[(40, j)] = a[(39, j)]);
        lu_factor_in_place(&mut a);
    }

    #[test]
    fn block_roundtrip() {
        let m = random_diagonally_dominant(2, 3, 8);
        let d = Dense::from_blocks(&m);
        let back = d.to_blocks(3);
        assert_eq!(back.max_abs_diff(&m), 0.0);
        // Element (i, j) of the dense form is element (i, j) of the grid.
        for (i, j) in [(0, 0), (2, 3), (3, 2), (5, 5), (1, 4)] {
            assert_eq!(d[(i, j)], m.get(i, j));
        }
    }

    #[test]
    fn submatrix_roundtrip() {
        let d = random_dense(7, 9, 12);
        let sub = d.submatrix(2, 6, 3, 8);
        assert_eq!((sub.rows(), sub.cols()), (4, 5));
        assert_eq!(sub[(0, 0)], d[(2, 3)]);
        assert_eq!(sub[(3, 4)], d[(5, 7)]);
        let mut back = Dense::zeros(7, 9);
        back.set_submatrix(2, 3, &sub);
        assert_eq!(back.submatrix(2, 6, 3, 8), sub);
        assert_eq!(back[(1, 3)], 0.0);
        assert_eq!(d.submatrix(3, 3, 0, 9), Dense::zeros(0, 9));
        assert_eq!(d.submatrix(0, 7, 4, 4), Dense::zeros(7, 0));
    }

    #[test]
    fn scalar_kernel_solves_are_the_oracles_operation_sequence() {
        // Blocking only regroups the work: under the scalar kernel (no
        // FMA) every element still sees the oracle's subtractions in the
        // oracle's order, so the results are the same bits — at sides
        // that are and are not multiples of the diagonal block.
        let scalar = by_name("scalar").expect("always available");
        for (m, n) in [(1, 1), (5, 16), (9, 33), (37, 50), (3, 80)] {
            let mut lu = random_dd(n, 20);
            let mut want = lu.clone();
            lu_blocked_with(scalar, &mut lu, NB);
            oracle::lu_factor(&mut want);
            assert_eq!(lu, want, "factor, n = {n}");

            let (mut right, mut left) = (random_dense(m, n, 21), random_dense(n, m, 22));
            let (mut want_right, mut want_left) = (right.clone(), left.clone());
            trsm_right_upper_with(scalar, &mut right, &lu);
            trsm_left_unit_lower_with(scalar, &mut left, &lu);
            oracle::trsm_right_upper(&mut want_right, &lu);
            oracle::trsm_left_unit_lower(&mut want_left, &lu);
            assert_eq!(right, want_right, "right solve, {m} x {n}");
            assert_eq!(left, want_left, "left solve, {n} x {m}");
        }
    }

    #[test]
    fn a_panel_solved_whole_equals_the_panel_solved_in_groups() {
        // Rows of the right solve and columns of the left solve are
        // independent, whatever register tile or column panel they land
        // in: the runtime may cut a panel anywhere.
        for kernel in available() {
            let (m, n) = (43, 37);
            let mut lu = random_dd(n, 30);
            lu_blocked_with(kernel, &mut lu, NB);
            let (vert, horiz) = (random_dense(m, n, 31), random_dense(n, m, 32));
            let (mut whole_v, mut whole_h) = (vert.clone(), horiz.clone());
            trsm_right_upper_with(kernel, &mut whole_v, &lu);
            trsm_left_unit_lower_with(kernel, &mut whole_h, &lu);
            for cuts in [vec![0, 1, 4, 11, 30, m], vec![0, 9, m], vec![0, 42, m]] {
                for g in cuts.windows(2) {
                    let mut rows = vert.submatrix(g[0], g[1], 0, n);
                    trsm_right_upper_with(kernel, &mut rows, &lu);
                    let want = whole_v.submatrix(g[0], g[1], 0, n);
                    assert_eq!(rows, want, "{} rows {g:?}", kernel.name());
                    let mut cols = horiz.submatrix(0, n, g[0], g[1]);
                    trsm_left_unit_lower_with(kernel, &mut cols, &lu);
                    let want = whole_h.submatrix(0, n, g[0], g[1]);
                    assert_eq!(cols, want, "{} cols {g:?}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn blocked_lu_in_place_equals_the_kernels_on_copied_out_panels() {
        // What the threaded runtime does — ship each panel as its own
        // contiguous matrix, run the kernel there, store the result back
        // — against `lu_blocked_in_place` working through leading
        // dimensions: the same bits, at panel widths above and below the
        // diagonal block and not dividing the side.
        for kernel in available() {
            for (n, nb) in [(50, 20), (50, 7), (67, 33), (48, 16), (5, 9)] {
                let a = random_dd(n, 40);
                let mut in_place = a.clone();
                lu_blocked_with(kernel, &mut in_place, nb);
                let mut shipped = a;
                for k0 in (0..n).step_by(nb) {
                    let k1 = (k0 + nb).min(n);
                    let mut pivot = shipped.submatrix(k0, k1, k0, k1);
                    lu_blocked_with(kernel, &mut pivot, NB);
                    shipped.set_submatrix(k0, k0, &pivot);
                    let mut vert = shipped.submatrix(k1, n, k0, k1);
                    trsm_right_upper_with(kernel, &mut vert, &pivot);
                    shipped.set_submatrix(k1, k0, &vert);
                    let mut horiz = shipped.submatrix(k0, k1, k1, n);
                    trsm_left_unit_lower_with(kernel, &mut horiz, &pivot);
                    shipped.set_submatrix(k0, k1, &horiz);
                    let mut core = shipped.submatrix(k1, n, k1, n);
                    core.sub_mul_with(kernel, &vert, &horiz);
                    shipped.set_submatrix(k1, k1, &core);
                }
                assert_eq!(in_place, shipped, "{} n = {n}, nb = {nb}", kernel.name());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_blocked_lu_reconstructs(nb in 1usize..8, n_blocks in 1usize..3, seed in 0u64..50) {
            let q = 4;
            let a = dense_dd(n_blocks, q, seed);
            let mut packed = a.clone();
            lu_blocked_in_place(&mut packed, nb);
            let lu = reconstruct(&packed);
            prop_assert!(lu.max_abs_diff(&a) < 1e-8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The blocked solves and factor against the textbook loops, under
        /// every kernel this CPU runs, within the rounding `n`-term sums
        /// may differ by (FMA against separate multiply and subtract) —
        /// over shapes with 0 and 1 rows or columns and sides that are no
        /// multiple of the diagonal block or of the 4 × 8 register tile.
        #[test]
        fn prop_blocked_kernels_match_the_oracle(
            m in 0usize..45, n in 0usize..70, seed in 0u64..1000,
        ) {
            for kernel in available() {
                let a = random_dd(n, seed);
                let (mut lu, mut want) = (a.clone(), a.clone());
                lu_blocked_with(kernel, &mut lu, NB);
                oracle::lu_factor(&mut want);
                prop_assert!(scaled_diff(&lu, &want, n, a.max_abs()) <= 1.0, "factor, n = {}", n);
                if n > 0 {
                    prop_assert!(scaled_residual(&lu, &a) <= 1.0, "residual, n = {}", n);
                }

                let (right, left) = (random_dense(m, n, seed + 1), random_dense(n, m, seed + 2));
                let (mut got, mut want) = (right.clone(), right);
                trsm_right_upper_with(kernel, &mut got, &lu);
                oracle::trsm_right_upper(&mut want, &lu);
                prop_assert!(scaled_diff(&got, &want, n, 1.0) <= 1.0, "right solve {} x {}", m, n);
                let (mut got, mut want) = (left.clone(), left);
                trsm_left_unit_lower_with(kernel, &mut got, &lu);
                oracle::trsm_left_unit_lower(&mut want, &lu);
                prop_assert!(scaled_diff(&got, &want, n, 1.0) <= 1.0, "left solve {} x {}", n, m);
            }
        }
    }
}
