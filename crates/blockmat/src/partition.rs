//! The `(r, s, t)` stripe decomposition of Section 2.1.
//!
//! For `C ← C + A × B` with `A : nA × nAB`, `B : nAB × nB` and block side
//! `q`:
//!
//! * `A` splits into `r = nA/q` horizontal stripes of `t = nAB/q` blocks,
//! * `B` splits into `s = nB/q` vertical stripes of `t` blocks,
//! * `C` has `r × s` blocks, each needing `t` block updates.

use std::fmt;

/// Block-level dimensions of one product instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    /// Number of horizontal stripes of `A` = block rows of `C`.
    pub r: usize,
    /// Number of vertical stripes of `B` = block columns of `C`.
    pub s: usize,
    /// Shared dimension in blocks (`A` is `r × t`, `B` is `t × s`).
    pub t: usize,
    /// Block side.
    pub q: usize,
}

impl Partition {
    /// Build directly from block counts.
    pub fn from_blocks(r: usize, s: usize, t: usize, q: usize) -> Self {
        assert!(r > 0 && s > 0 && t > 0 && q > 0, "all dimensions must be positive");
        Partition { r, s, t, q }
    }

    /// Build from element dimensions, which must be divisible by `q`
    /// (the paper assumes exact divisibility; padding is the caller's job).
    pub fn from_dims(n_a: usize, n_ab: usize, n_b: usize, q: usize) -> Self {
        assert!(q > 0, "q must be positive");
        assert_eq!(n_a % q, 0, "nA must be divisible by q");
        assert_eq!(n_ab % q, 0, "nAB must be divisible by q");
        assert_eq!(n_b % q, 0, "nB must be divisible by q");
        Partition::from_blocks(n_a / q, n_b / q, n_ab / q, q)
    }

    /// Total number of block updates `r·s·t` (the work volume).
    pub fn total_updates(&self) -> u64 {
        self.r as u64 * self.s as u64 * self.t as u64
    }

    /// Number of C blocks `r·s`.
    pub fn c_blocks(&self) -> u64 {
        self.r as u64 * self.s as u64
    }

    /// Element dimensions `(nA, nAB, nB)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.r * self.q, self.t * self.q, self.s * self.q)
    }

    /// Total floating-point operations (multiply-add pairs counted as 2
    /// flops), `2 · nA · nAB · nB`.
    pub fn flops(&self) -> f64 {
        let (na, nab, nb) = self.dims();
        2.0 * na as f64 * nab as f64 * nb as f64
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (na, nab, nb) = self.dims();
        write!(
            f,
            "{na}x{nab} * {nab}x{nb} (q={}, r={}, t={}, s={})",
            self.q, self.r, self.t, self.s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_first_experiment_shape() {
        // "8000×8000 for A and 8000×64000 for B … r = t = 100 and s = 800"
        let p = Partition::from_dims(8000, 8000, 64_000, 80);
        assert_eq!((p.r, p.t, p.s), (100, 100, 800));
        assert_eq!(p.total_updates(), 8_000_000);
        assert_eq!(p.c_blocks(), 80_000);
    }

    #[test]
    fn dims_roundtrip() {
        let p = Partition::from_blocks(3, 5, 7, 80);
        // dims are (nA, nAB, nB) = (r·q, t·q, s·q).
        assert_eq!(p.dims(), (240, 560, 400));
        let q = Partition::from_dims(240, 560, 400, 80);
        assert_eq!((q.r, q.t, q.s), (3, 7, 5));
    }

    #[test]
    fn flops_formula() {
        let p = Partition::from_blocks(2, 2, 2, 10);
        // 2 * 20 * 20 * 20 = 16000.
        assert_eq!(p.flops(), 16_000.0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_non_divisible() {
        let _ = Partition::from_dims(8001, 8000, 64_000, 80);
    }

    #[test]
    fn display_contains_shape() {
        let p = Partition::from_dims(8000, 8000, 64_000, 80);
        let s = p.to_string();
        assert!(s.contains("8000x8000"));
        assert!(s.contains("s=800"));
    }
}
