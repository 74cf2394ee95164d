//! Single-worker LU (Section 7.1): numerical verification of the
//! schedule's arithmetic.

use mwp_blockmat::lu::{lu_blocked_in_place, lu_factor_in_place, reconstruct, Dense};
use mwp_blockmat::BlockMatrix;

/// Execute the Section 7.1 schedule numerically (on the calling thread —
/// the point is the arithmetic staging, not parallelism): per step, factor
/// the pivot, update the vertical panel rows, the horizontal panel
/// columns, then the core, exactly as the master would stream them to a
/// single worker. Returns the packed LU factors.
pub fn factor_single(matrix: &BlockMatrix, mu_blocks: usize) -> Dense {
    let (n, m) = matrix.dims();
    assert_eq!(n, m, "LU needs a square matrix");
    let panel = mu_blocks * matrix.q();
    let mut dense = Dense::from_blocks(matrix);
    lu_blocked_in_place(&mut dense, panel);
    dense
}

/// Verify that [`factor_single`] produces a correct factorization
/// (`L·U ≈ A`); returns the max abs reconstruction error.
pub fn verify(matrix: &BlockMatrix, mu_blocks: usize, tol: f64) -> Result<f64, f64> {
    let packed = factor_single(matrix, mu_blocks);
    let a = Dense::from_blocks(matrix);
    let err = reconstruct(&packed).max_abs_diff(&a);
    if err <= tol {
        Ok(err)
    } else {
        Err(err)
    }
}

/// Reference unblocked factorization for cross-checks.
pub fn factor_reference(matrix: &BlockMatrix) -> Dense {
    let mut dense = Dense::from_blocks(matrix);
    lu_factor_in_place(&mut dense);
    dense
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LuProblem;
    use mwp_blockmat::fill::random_diagonally_dominant;

    /// The single-worker time of an `r × r` factorization at `mu` under
    /// `(c, w)`.
    fn predicted_time(r: usize, mu: usize, c: f64, w: f64) -> f64 {
        LuProblem::new(r, mu).total().single_worker_time(c, w)
    }

    #[test]
    fn schedule_factorization_is_correct() {
        let m = random_diagonally_dominant(4, 5, 77); // 20×20 elements
        let err = verify(&m, 2, 1e-8).expect("factorization should succeed");
        assert!(err < 1e-8);
    }

    #[test]
    fn blocked_equals_unblocked() {
        let m = random_diagonally_dominant(3, 4, 9);
        let blocked = factor_single(&m, 1);
        let reference = factor_reference(&m);
        assert!(blocked.max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn predicted_time_positive_and_monotone_in_r() {
        let t1 = predicted_time(10, 5, 2.0, 1.0);
        let t2 = predicted_time(20, 5, 2.0, 1.0);
        assert!(t1 > 0.0);
        assert!(t2 > t1);
    }

    #[test]
    fn larger_mu_reduces_communication_time() {
        // comm ~ r³/µ: doubling µ nearly halves the communication part.
        let slow = predicted_time(40, 2, 1.0, 0.0);
        let fast = predicted_time(40, 4, 1.0, 0.0);
        assert!(fast < slow);
        assert!(fast > 0.4 * slow);
    }
}
