//! Calibration of abstract `(c, w)` costs from hardware characteristics.
//!
//! The paper's analysis is expressed in time-units per block operation. To
//! regenerate the Section 8 experiments we need concrete values: the paper's
//! testbed is a cluster of 3.2 GHz Xeon nodes on switched 100 Mbps Fast
//! Ethernet, with `q = 80` blocks. In block terms (Section 5):
//!
//! * `c = q² · τ_c` — a block carries `q²` matrix coefficients; `τ_c` is the
//!   per-coefficient transfer time (8 bytes / bandwidth),
//! * `w = q³ · τ_a` — a block update takes `q³` fused multiply-adds; `τ_a`
//!   is the time per arithmetic operation (1 / effective flop rate, counting
//!   one multiply-add as one operation as the paper does).

use crate::units::{Bandwidth, FlopRate, Seconds};

/// Bytes per matrix coefficient (we store IEEE-754 f64).
pub const BYTES_PER_COEFF: usize = 8;

/// Hardware characteristics of one worker class and its link to the master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareProfile {
    /// Sustained dgemm rate of the node, counting one multiply-add pair as
    /// *two* flops (vendor convention).
    pub flop_rate: FlopRate,
    /// Link bandwidth between the master and this node.
    pub bandwidth: Bandwidth,
}

impl HardwareProfile {
    /// The paper's University of Tennessee testbed: dual 3.2 GHz Xeon nodes
    /// on switched 100 Mbps Fast Ethernet. The sustained dgemm rate is
    /// calibrated at 3.3 Gflop/s — the value at which the homogeneous
    /// algorithm's resource selection enrolls 2 workers at 132 MB and 4 at
    /// 512 MB of buffers, matching the worker counts the paper reports in
    /// its Figure 13 discussion (and a plausible ATLAS rate for that CPU).
    pub fn tennessee_2006() -> Self {
        HardwareProfile {
            flop_rate: FlopRate::gflops(3.3),
            bandwidth: Bandwidth::mbps(100.0),
        }
    }

    /// A contemporary profile (for what-if sweeps): 50 Gflop/s dgemm on
    /// 10 GbE.
    pub fn modern() -> Self {
        HardwareProfile {
            flop_rate: FlopRate::gflops(50.0),
            bandwidth: Bandwidth::mbps(10_000.0),
        }
    }
}

/// Maps a hardware profile and block size `q` to per-block costs `(c, w)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Block side `q` (the paper uses 80 or 100).
    pub q: usize,
    /// Per-coefficient transfer time `τ_c` in seconds.
    pub tau_c: f64,
    /// Per-block-operation arithmetic time `τ_a` in seconds (time for one
    /// multiply-add).
    pub tau_a: f64,
}

impl CostModel {
    /// Build a cost model from a hardware profile.
    pub fn from_profile(q: usize, hw: &HardwareProfile) -> Self {
        // One coefficient = 8 bytes. One block update = q³ multiply-adds
        // = 2q³ flops at `flop_rate`.
        let tau_c = BYTES_PER_COEFF as f64 / hw.bandwidth.value();
        let tau_a = 2.0 / hw.flop_rate.per_second();
        CostModel { q, tau_c, tau_a }
    }

    /// Per-block communication cost `c = q² τ_c`, in seconds.
    pub fn c(&self) -> Seconds {
        Seconds((self.q * self.q) as f64 * self.tau_c)
    }

    /// Per-block-update computation cost `w = q³ τ_a`, in seconds.
    pub fn w(&self) -> Seconds {
        Seconds((self.q * self.q * self.q) as f64 * self.tau_a)
    }

    /// Ratio `w/c = q · τ_a/τ_c`: grows linearly with q, which is why
    /// larger blocks shift the platform toward compute-bound behaviour.
    pub fn w_over_c(&self) -> f64 {
        self.q as f64 * self.tau_a / self.tau_c
    }

    /// Number of block buffers that fit in `bytes` of worker memory.
    pub fn buffers_for_memory(&self, bytes: usize) -> usize {
        bytes / (self.q * self.q * BYTES_PER_COEFF)
    }

    /// Size of one block in bytes.
    pub fn block_bytes(&self) -> usize {
        self.q * self.q * BYTES_PER_COEFF
    }

    /// The optimal enrolled-worker count of the homogeneous algorithm,
    /// `P = ceil(µw / 2c) = ceil(µ q τ_a / 2 τ_c)` (Section 5), before
    /// clamping to the available `p`.
    pub fn ideal_worker_count(&self, mu: usize) -> usize {
        let p = (mu as f64 * self.w().value()) / (2.0 * self.c().value());
        // Guard against float slop turning an exact integer ratio into
        // its successor (e.g. 5.0000000000000009 -> 6).
        (p - 1e-9).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tennessee_costs_are_plausible() {
        let hw = HardwareProfile::tennessee_2006();
        let cm = CostModel::from_profile(80, &hw);
        // c: 80*80*8 bytes at 12.5 MB/s = 4.096 ms.
        assert!((cm.c().value() - 4.096e-3).abs() < 1e-9);
        // w: 2*80^3 flops at 3.3 Gflop/s ≈ 0.31 ms.
        assert!((cm.w().value() - 2.0 * 512_000.0 / 3.3e9).abs() < 1e-9);
        // Communication-bound: w < c on Fast Ethernet.
        assert!(cm.w_over_c() < 1.0);
    }

    #[test]
    fn fig13_worker_counts_match_paper() {
        // The calibration target: HoLM enrolls 2 workers at 132 MB and 4
        // at 512 MB, as the paper reports for Figure 13.
        let hw = HardwareProfile::tennessee_2006();
        let cm = CostModel::from_profile(80, &hw);
        let mu_132 = {
            let m = cm.buffers_for_memory(132 * 1024 * 1024);
            // µ² + 4µ ≤ m
            ((4.0 + m as f64).sqrt() - 2.0).floor() as usize
        };
        let mu_512 = {
            let m = cm.buffers_for_memory(512 * 1024 * 1024);
            ((4.0 + m as f64).sqrt() - 2.0).floor() as usize
        };
        assert_eq!(cm.ideal_worker_count(mu_132), 2, "µ = {mu_132}");
        assert_eq!(cm.ideal_worker_count(mu_512), 4, "µ = {mu_512}");
    }

    #[test]
    fn w_over_c_scales_linearly_with_q() {
        let hw = HardwareProfile::tennessee_2006();
        let cm40 = CostModel::from_profile(40, &hw);
        let cm80 = CostModel::from_profile(80, &hw);
        assert!((cm80.w_over_c() / cm40.w_over_c() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn buffers_for_memory_matches_fig13_setup() {
        let hw = HardwareProfile::tennessee_2006();
        let cm = CostModel::from_profile(80, &hw);
        assert_eq!(cm.block_bytes(), 51_200);
        // 512 MB of block buffers.
        let m = cm.buffers_for_memory(512 * 1024 * 1024);
        assert_eq!(m, 10_485); // 536870912 / 51200
        // 132 MB.
        let m = cm.buffers_for_memory(132 * 1024 * 1024);
        assert_eq!(m, 2_703);
    }

    #[test]
    fn ideal_worker_count_matches_formula() {
        // Paper example (Section 5): c = 2, w = 4.5, µ = 4 -> P = ceil(4.5) = 5.
        let cm = CostModel { q: 1, tau_c: 2.0, tau_a: 4.5 };
        assert_eq!(cm.c().value(), 2.0);
        assert_eq!(cm.w().value(), 4.5);
        assert_eq!(cm.ideal_worker_count(4), 5);
    }

    #[test]
    fn modern_profile_is_compute_richer() {
        let old = CostModel::from_profile(80, &HardwareProfile::tennessee_2006());
        let new = CostModel::from_profile(80, &HardwareProfile::modern());
        // Modern nodes compute faster relative to their (also faster) links
        // at the same ratio here; just sanity-check both costs dropped.
        assert!(new.c().value() < old.c().value());
        assert!(new.w().value() < old.w().value());
    }
}
