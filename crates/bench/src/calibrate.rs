//! Calibration of the simulated platform against the paper's testbed.
//!
//! Section 8.1: "a cluster of 64 Xeon 3.2GHz dual-processor nodes … four
//! Gigabytes of memory … switched 100Mbps Fast Ethernet". In per-block
//! terms with `q = 80`:
//!
//! * `c = q²·8 bytes / 12.5 MB/s = 4.096 ms` per block either way,
//! * `w = 2q³ flops / 2.5 Gflop/s ≈ 0.41 ms` per block update (ATLAS
//!   dgemm on that CPU sustains roughly 2.5 Gflop/s),
//!
//! i.e. a **communication-bound** platform (`w/c ≈ 0.1`), which is exactly
//! why resource selection keeps only a handful of workers busy.

use mwp_platform::{CostModel, HardwareProfile, Platform};

/// Per-node memory the paper's Figure 13 sweep allocates to block buffers
/// (the other experiments use the 512 MB point).
pub const FIG13_MEMORY_MB: [usize; 4] = [132, 256, 384, 512];

/// Build the calibrated Tennessee platform: `p` workers, block size `q`,
/// `mem_mb` megabytes of block buffers per worker. Costs are in seconds.
pub fn tennessee_platform(p: usize, q: usize, mem_mb: usize) -> Platform {
    let cm = cost_model(q);
    let m = cm.buffers_for_memory(mem_mb * 1024 * 1024);
    Platform::homogeneous(p, cm.c(), cm.w(), m)
        .expect("calibrated parameters are valid")
}

/// The calibrated cost model for block size `q`.
pub fn cost_model(q: usize) -> CostModel {
    CostModel::from_profile(q, &HardwareProfile::tennessee_2006())
}

/// A platform with multiplicative jitter on `(c, w)` — models the
/// run-to-run variability of the real cluster (Figure 11). `jitter` is
/// the maximum relative deviation (e.g. 0.03 for ±3%).
pub fn jittered_platform(p: usize, q: usize, mem_mb: usize, jitter: f64, seed: u64) -> Platform {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let base = tennessee_platform(p, q, mem_mb);
    let params = base.homogeneous_params().expect("built homogeneous");
    let factor_c = 1.0 + rng.gen_range(-jitter..=jitter);
    let factor_w = 1.0 + rng.gen_range(-jitter..=jitter);
    // The paper's variability is a whole-run effect (network and node
    // load), so one factor per run rather than per worker.
    Platform::homogeneous(p, params.c * factor_c, params.w * factor_w, params.m)
        .expect("jittered parameters stay valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_is_comm_bound_like_the_testbed() {
        let pf = tennessee_platform(8, 80, 512);
        let wk = pf.homogeneous_params().unwrap();
        assert!(wk.w / wk.c < 0.2, "w/c = {}", wk.w / wk.c);
        // 512 MB of 80x80 f64 blocks.
        assert_eq!(wk.m, 10_485);
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let a = jittered_platform(4, 80, 512, 0.03, 1);
        let b = jittered_platform(4, 80, 512, 0.03, 1);
        assert_eq!(a, b, "same seed, same platform");
        let base = tennessee_platform(4, 80, 512).homogeneous_params().unwrap();
        let j = a.homogeneous_params().unwrap();
        assert!((j.c / base.c - 1.0).abs() <= 0.03 + 1e-12);
        assert!((j.w / base.w - 1.0).abs() <= 0.03 + 1e-12);
    }

    #[test]
    fn fig13_memory_points_give_growing_mu() {
        use mwp_core::layout::MemoryLayout;
        let mut last = 0;
        for mb in FIG13_MEMORY_MB {
            let pf = tennessee_platform(1, 80, mb);
            let mu = MemoryLayout::MaxReuseOverlapped.mu(pf.homogeneous_params().unwrap().m);
            assert!(mu > last, "µ must grow with memory");
            last = mu;
        }
    }
}
