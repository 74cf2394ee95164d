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
}
