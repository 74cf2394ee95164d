//! Per-worker parameters `(c_i, w_i, m_i)`.

use std::fmt;

/// Identifier of a worker within a [`crate::Platform`].
///
/// Workers are numbered `P1 … Pp` in the paper; `WorkerId(i)` is 0-based, so
/// `WorkerId(0)` is the paper's `P1`. The master `P0` is never addressed by
/// a `WorkerId` — it is implicit in all master-side APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

impl WorkerId {
    /// 0-based index into worker arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display using the paper's 1-based naming.
        write!(f, "P{}", self.0 + 1)
    }
}

/// The paper's per-worker platform parameters.
///
/// * `c` — time for the master to send **or** receive one `q × q` block
///   to/from this worker (one-port, linear cost model);
/// * `w` — time for this worker to perform one block update
///   `C_ij += A_ik · B_kj`;
/// * `m` — number of `q × q` block buffers that fit in this worker's memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerParams {
    /// Per-block communication cost `c_i` (time units per block).
    pub c: f64,
    /// Per-block-update computation cost `w_i` (time units per update).
    pub w: f64,
    /// Memory capacity `m_i` in block buffers.
    pub m: usize,
}

impl WorkerParams {
    /// Create a new parameter triple.
    pub fn new(c: f64, w: f64, m: usize) -> Self {
        WorkerParams { c, w, m }
    }

    /// The *communication-to-computation* price of this worker for the
    /// maximum re-use pattern: sending `2µ` blocks buys `µ²` updates, so the
    /// steady-state link occupation per unit of work is `2c/(µw)`. This is
    /// the quantity the bandwidth-centric selection sorts by (divided by
    /// `w`), see Section 6.1.
    pub fn bandwidth_centric_key(&self, mu: usize) -> f64 {
        2.0 * self.c / mu as f64
    }

    /// Largest `µ` such that `µ² + 4µ ≤ m` (the overlapped maximum re-use
    /// layout of Section 5: `µ²` C buffers plus `2µ` working and `2µ`
    /// prefetch buffers for A and B).
    ///
    /// Returns 0 when even `µ = 1` does not fit (m < 5).
    pub fn mu(&self) -> usize {
        mu_for_memory(self.m)
    }
}

/// Largest integer `µ ≥ 0` with `µ² + 4µ ≤ m`.
///
/// This is the block-square side used by the overlapped maximum re-use
/// algorithm: `µ²` blocks of C stay resident while `2µ` buffers hold the
/// current A/B row fragments and `2µ` more prefetch the next ones.
pub fn mu_for_memory(m: usize) -> usize {
    // Solve µ² + 4µ - m = 0 -> µ = sqrt(4 + m) - 2; floor, then fix up any
    // floating point slop with exact integer checks.
    let mut mu = ((4.0 + m as f64).sqrt() - 2.0).floor() as usize;
    while mu * mu + 4 * mu > m {
        mu -= 1;
    }
    while (mu + 1) * (mu + 1) + 4 * (mu + 1) <= m {
        mu += 1;
    }
    mu
}

/// Largest integer `µ ≥ 0` with `1 + µ + µ² ≤ m`.
///
/// This is the *non-overlapped* maximum re-use layout of Section 4 (one A
/// buffer, `µ` B buffers, `µ²` C buffers), used for the communication-volume
/// analysis.
pub fn mu_for_memory_unoverlapped(m: usize) -> usize {
    if m == 0 {
        return 0;
    }
    let mut mu = ((m as f64).sqrt()) as usize + 1;
    while 1 + mu + mu * mu > m {
        if mu == 0 {
            return 0;
        }
        mu -= 1;
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_id_display_is_one_based() {
        assert_eq!(WorkerId(0).to_string(), "P1");
        assert_eq!(WorkerId(7).to_string(), "P8");
        assert_eq!(WorkerId(3).index(), 3);
    }

    #[test]
    fn mu_overlapped_examples() {
        // µ² + 4µ ≤ m boundary cases.
        assert_eq!(mu_for_memory(0), 0);
        assert_eq!(mu_for_memory(4), 0); // 1 + 4 = 5 > 4
        assert_eq!(mu_for_memory(5), 1); // 1 + 4 = 5
        assert_eq!(mu_for_memory(11), 1); // 4 + 8 = 12 > 11
        assert_eq!(mu_for_memory(12), 2); // 4 + 8 = 12
        assert_eq!(mu_for_memory(21), 3); // 9 + 12 = 21
        assert_eq!(mu_for_memory(32), 4); // 16 + 16 = 32
        assert_eq!(mu_for_memory(44), 4); // 25 + 20 = 45 > 44
        assert_eq!(mu_for_memory(45), 5);
    }

    #[test]
    fn mu_unoverlapped_examples() {
        // 1 + µ + µ² ≤ m: the paper's Figure 5 example has m = 21 -> µ = 4.
        assert_eq!(mu_for_memory_unoverlapped(21), 4);
        assert_eq!(mu_for_memory_unoverlapped(20), 3); // 1+4+16=21 > 20
        assert_eq!(mu_for_memory_unoverlapped(3), 1);
        assert_eq!(mu_for_memory_unoverlapped(2), 0); // 1+1+1=3 > 2
        assert_eq!(mu_for_memory_unoverlapped(0), 0);
    }

    #[test]
    fn mu_is_monotone_in_memory() {
        let mut last = 0;
        for m in 0..10_000 {
            let mu = mu_for_memory(m);
            assert!(mu >= last, "mu must not decrease (m = {m})");
            assert!(mu * mu + 4 * mu <= m || mu == 0);
            last = mu;
        }
    }

    #[test]
    fn worker_params_mu_matches_free_function() {
        let p = WorkerParams::new(1.0, 2.0, 21);
        assert_eq!(p.mu(), mu_for_memory(21));
        assert_eq!(p.mu(), 3);
    }

    #[test]
    fn bandwidth_centric_key_matches_formula() {
        let p = WorkerParams::new(3.0, 1.0, 100);
        assert!((p.bandwidth_centric_key(6) - 1.0).abs() < 1e-12);
    }
}
