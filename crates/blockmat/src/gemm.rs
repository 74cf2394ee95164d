//! Whole-matrix multiplication: the ground truth the master-worker runtime
//! is verified against.

use crate::kernel::{self, Kernel, PackedB};
use crate::matrix::BlockMatrix;

/// Serial `C ← C + A × B` at the block level, through the fastest kernel
/// this CPU runs ([`gemm_serial_with`] of [`kernel::active`]).
pub fn gemm_serial(c: &mut BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
    gemm_serial_with(kernel::active(), c, a, b);
}

/// Serial `C ← C + A × B` at the block level through `kernel` — the
/// reference a fleet of `kernel` workers is compared against.
///
/// Each B block is packed **once** per `(k, j)` and reused across the
/// whole `i` loop (one pack per B block instead of one per block update —
/// `r·s·t` packs become `s·t`), through a single recycled [`PackedB`].
/// Per C block the `k` accumulation order is unchanged (increasing), so
/// results are bit-identical to per-call packing
/// ([`crate::Block::gemm_acc_with`]). Panics if the block shapes do not
/// conform (`A : r × t`, `B : t × s`, `C : r × s`, equal `q`).
pub fn gemm_serial_with(kernel: &Kernel, c: &mut BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
    check_conformance(c, a, b);
    let t = a.cols();
    let mut packed = PackedB::new();
    for j in 0..c.cols() {
        for k in 0..t {
            b.block(k, j).pack_b_for(kernel, &mut packed);
            for i in 0..c.rows() {
                c.block_mut(i, j).gemm_acc_prepacked(kernel, a.block(i, k), &packed);
            }
        }
    }
}

fn check_conformance(c: &BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
    assert_eq!(a.q(), b.q(), "A and B block sides differ");
    assert_eq!(a.q(), c.q(), "A and C block sides differ");
    assert_eq!(a.cols(), b.rows(), "inner block dimensions differ");
    assert_eq!(c.rows(), a.rows(), "C rows must match A rows");
    assert_eq!(c.cols(), b.cols(), "C cols must match B cols");
}

/// Serial block product through the naive triple-loop oracle
/// ([`crate::Block::gemm_acc_naive`]) — deliberately independent of the
/// dispatched kernel, so verification never checks the optimized path
/// against itself.
pub fn gemm_serial_oracle(c: &mut BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
    check_conformance(c, a, b);
    let t = a.cols();
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let cij = c.block_mut(i, j);
            for k in 0..t {
                cij.gemm_acc_naive(a.block(i, k), b.block(k, j));
            }
        }
    }
}

/// Verify `c ≈ c0 + a·b` within `tol`, returning the max abs deviation.
///
/// The expectation is built with [`gemm_serial_oracle`] (the documented
/// naive oracle), not the dispatched kernel, so this catches a broken
/// optimized kernel instead of agreeing with it.
pub fn verify_product(
    c: &BlockMatrix,
    c0: &BlockMatrix,
    a: &BlockMatrix,
    b: &BlockMatrix,
    tol: f64,
) -> Result<f64, f64> {
    let mut expected = c0.clone();
    gemm_serial_oracle(&mut expected, a, b);
    let err = c.max_abs_diff(&expected);
    if err <= tol {
        Ok(err)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_matrix;
    use proptest::prelude::*;

    /// `A × B` into a fresh zero C, serial.
    fn multiply(a: &BlockMatrix, b: &BlockMatrix) -> BlockMatrix {
        let mut c = BlockMatrix::zeros(a.rows(), b.cols(), a.q());
        gemm_serial(&mut c, a, b);
        c
    }

    #[test]
    fn multiply_by_identity() {
        let a = random_matrix(3, 4, 8, 11);
        let id = BlockMatrix::identity(4, 8);
        let c = multiply(&a, &id);
        assert!(c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = random_matrix(2, 2, 4, 6);
        let b = random_matrix(2, 2, 4, 7);
        let c0 = random_matrix(2, 2, 4, 8);
        let mut c = c0.clone();
        gemm_serial(&mut c, &a, &b);
        assert!(verify_product(&c, &c0, &a, &b, 1e-12).is_ok());
        // Against a zero baseline it must fail (c0 contribution missing).
        let zero = BlockMatrix::zeros(2, 2, 4);
        assert!(verify_product(&c, &zero, &a, &b, 1e-9).is_err());
    }

    #[test]
    #[should_panic(expected = "inner block dimensions")]
    fn conformance_checked() {
        let a = random_matrix(2, 3, 4, 0);
        let b = random_matrix(2, 2, 4, 1);
        let _ = multiply(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_associativity_with_identity(r in 1usize..4, s in 1usize..4, t in 1usize..4, seed in 0u64..100) {
            // (A·I)·B == A·(I·B) == A·B for conforming shapes.
            let q = 4;
            let a = random_matrix(r, t, q, seed);
            let b = random_matrix(t, s, q, seed + 1);
            let idt = BlockMatrix::identity(t, q);
            let ab = multiply(&a, &b);
            let ai_b = multiply(&multiply(&a, &idt), &b);
            let a_ib = multiply(&a, &multiply(&idt, &b));
            prop_assert!(ab.max_abs_diff(&ai_b) < 1e-10);
            prop_assert!(ab.max_abs_diff(&a_ib) < 1e-10);
        }
    }
}
