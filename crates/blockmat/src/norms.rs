//! Matrix norms and error measures used by verification and EXPERIMENTS.md.

use crate::matrix::BlockMatrix;

/// Frobenius norm `sqrt(Σ x²)` over all coefficients.
pub fn frobenius(m: &BlockMatrix) -> f64 {
    let mut acc = 0.0;
    for (_, _, b) in m.iter_blocks() {
        for &x in b.as_slice() {
            acc += x * x;
        }
    }
    acc.sqrt()
}

/// Relative Frobenius error `‖a − b‖_F / max(‖b‖_F, ε)`.
pub fn relative_error(a: &BlockMatrix, b: &BlockMatrix) -> f64 {
    assert_eq!(a.dims(), b.dims(), "dimension mismatch");
    let mut num = 0.0;
    for ((_, _, ba), (_, _, bb)) in a.iter_blocks().zip(b.iter_blocks()) {
        for (&x, &y) in ba.as_slice().iter().zip(bb.as_slice()) {
            let d = x - y;
            num += d * d;
        }
    }
    num.sqrt() / frobenius(b).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_matrix;

    #[test]
    fn frobenius_of_identity() {
        let m = BlockMatrix::identity(3, 4);
        // 12 ones -> sqrt(12).
        assert!((frobenius(&m) - 12.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn relative_error_zero_for_equal() {
        let m = random_matrix(2, 3, 4, 9);
        assert_eq!(relative_error(&m, &m), 0.0);
    }

    #[test]
    fn relative_error_scales() {
        let m = BlockMatrix::identity(1, 4);
        let mut n = m.clone();
        n.set(0, 0, 2.0); // one coefficient off by 1; ‖m‖_F = 2.
        assert!((relative_error(&n, &m) - 0.5).abs() < 1e-12);
    }
}
