//! The star platform: a master plus `p` workers.

use crate::error::PlatformError;
use crate::worker::{WorkerId, WorkerParams};

/// A validated star-shaped master-worker platform.
///
/// The master `P0` is implicit (the paper assumes it has no processing
/// capability of its own — a master that computes is modeled by adding a
/// fictitious worker with `c = 0⁺`). The `p` workers are `P1 … Pp`.
///
/// ```
/// use mwp_platform::{Platform, WorkerParams};
///
/// // The paper's Table 2 platform.
/// let platform = Platform::new(vec![
///     WorkerParams::new(2.0, 2.0, 60),  // P1: µ1 = 6
///     WorkerParams::new(3.0, 3.0, 396), // P2: µ2 = 18
///     WorkerParams::new(5.0, 1.0, 140), // P3: µ3 = 10
/// ]).unwrap();
/// assert_eq!(platform.len(), 3);
/// assert_eq!(platform[mwp_platform::WorkerId(1)].m, 396);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    workers: Vec<WorkerParams>,
}

impl Platform {
    /// Build a platform from worker parameters, validating every entry.
    pub fn new(workers: Vec<WorkerParams>) -> Result<Self, PlatformError> {
        if workers.is_empty() {
            return Err(PlatformError::NoWorkers);
        }
        for (i, wk) in workers.iter().enumerate() {
            if !wk.c.is_finite() || wk.c <= 0.0 {
                return Err(PlatformError::InvalidLinkCost { worker: i, value: wk.c });
            }
            if !wk.w.is_finite() || wk.w <= 0.0 {
                return Err(PlatformError::InvalidComputeCost { worker: i, value: wk.w });
            }
            if wk.m < 3 {
                return Err(PlatformError::InsufficientMemory { worker: i, buffers: wk.m });
            }
        }
        Ok(Platform { workers })
    }

    /// A fully homogeneous platform: `p` identical workers with parameters
    /// `(c, w, m)`.
    pub fn homogeneous(p: usize, c: f64, w: f64, m: usize) -> Result<Self, PlatformError> {
        Platform::new(vec![WorkerParams::new(c, w, m); p])
    }

    /// Number of workers `p`.
    #[inline]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the platform has no workers (never true for a constructed
    /// platform, but required by clippy's `len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Worker parameters by id.
    #[inline]
    pub fn worker(&self, id: WorkerId) -> &WorkerParams {
        &self.workers[id.index()]
    }

    /// All workers in id order.
    #[inline]
    pub fn workers(&self) -> &[WorkerParams] {
        &self.workers
    }

    /// Iterate `(WorkerId, &WorkerParams)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &WorkerParams)> {
        self.workers.iter().enumerate().map(|(i, w)| (WorkerId(i), w))
    }

    /// All worker ids in order.
    pub fn ids(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.workers.len()).map(WorkerId)
    }

    /// True iff every worker has the same `(c, w, m)` triple.
    pub fn is_homogeneous(&self) -> bool {
        let first = &self.workers[0];
        self.workers.iter().all(|w| w == first)
    }

    /// The common parameters if the platform is homogeneous.
    pub fn homogeneous_params(&self) -> Option<WorkerParams> {
        if self.is_homogeneous() {
            Some(self.workers[0])
        } else {
            None
        }
    }
}

impl std::ops::Index<WorkerId> for Platform {
    type Output = WorkerParams;
    #[inline]
    fn index(&self, id: WorkerId) -> &WorkerParams {
        self.worker(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2() -> Platform {
        Platform::new(vec![
            WorkerParams::new(2.0, 2.0, 60),
            WorkerParams::new(3.0, 3.0, 396),
            WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Platform::new(vec![]).unwrap_err(), PlatformError::NoWorkers);
    }

    #[test]
    fn rejects_bad_costs() {
        let e = Platform::new(vec![WorkerParams::new(0.0, 1.0, 10)]).unwrap_err();
        assert!(matches!(e, PlatformError::InvalidLinkCost { worker: 0, .. }));
        let e = Platform::new(vec![WorkerParams::new(1.0, f64::NAN, 10)]).unwrap_err();
        assert!(matches!(e, PlatformError::InvalidComputeCost { worker: 0, .. }));
        let e = Platform::new(vec![WorkerParams::new(1.0, 1.0, 2)]).unwrap_err();
        assert!(matches!(e, PlatformError::InsufficientMemory { worker: 0, buffers: 2 }));
    }

    #[test]
    fn homogeneous_detection() {
        let homo = Platform::homogeneous(4, 2.0, 4.5, 100).unwrap();
        assert!(homo.is_homogeneous());
        assert_eq!(homo.homogeneous_params(), Some(WorkerParams::new(2.0, 4.5, 100)));
        let het = table2();
        assert!(!het.is_homogeneous());
        assert_eq!(het.homogeneous_params(), None);
    }
}
