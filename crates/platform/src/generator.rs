//! Reproducible platform generators for the experiment harness.
//!
//! The RR-6053 report measures homogeneous platforms only, but announces
//! heterogeneous experiments assessing "the impact of the degree of
//! heterogeneity (in processor speed, link bandwidth and memory capacity)".
//! [`PlatformGenerator`] produces seeded random heterogeneous platforms with
//! a controllable heterogeneity degree so those sweeps are reproducible.

use crate::platform::Platform;
use crate::worker::WorkerParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How heterogeneous each dimension of the platform is.
///
/// Each field is a *spread factor* `h ≥ 1`: parameter values are drawn
/// log-uniformly in `[base/h, base·h]`, so `h = 1` is homogeneous and
/// `h = 4` spans a 16× ratio between extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeterogeneityProfile {
    /// Spread of per-block communication cost `c_i`.
    pub comm: f64,
    /// Spread of per-update computation cost `w_i`.
    pub comp: f64,
    /// Spread of memory capacity `m_i`.
    pub memory: f64,
}

impl HeterogeneityProfile {
    /// Fully homogeneous (all spreads 1).
    pub fn homogeneous() -> Self {
        HeterogeneityProfile { comm: 1.0, comp: 1.0, memory: 1.0 }
    }

    /// Mild heterogeneity: 2× spread in every dimension.
    pub fn mild() -> Self {
        HeterogeneityProfile { comm: 2.0, comp: 2.0, memory: 2.0 }
    }

    /// Strong heterogeneity: 4× spread in every dimension.
    pub fn strong() -> Self {
        HeterogeneityProfile { comm: 4.0, comp: 4.0, memory: 4.0 }
    }
}

/// Seeded generator of random star platforms around base parameters.
#[derive(Debug, Clone)]
pub struct PlatformGenerator {
    /// Base (median) communication cost.
    pub base_c: f64,
    /// Base (median) computation cost.
    pub base_w: f64,
    /// Base (median) memory capacity in blocks.
    pub base_m: usize,
    /// Heterogeneity spreads.
    pub profile: HeterogeneityProfile,
}

impl PlatformGenerator {
    /// New generator around `(c, w, m)` with the given heterogeneity.
    pub fn new(base_c: f64, base_w: f64, base_m: usize, profile: HeterogeneityProfile) -> Self {
        PlatformGenerator { base_c, base_w, base_m, profile }
    }

    /// Generate a `p`-worker platform from `seed`. The same seed always
    /// produces the same platform (StdRng is a stable, portable PRNG).
    pub fn generate(&self, p: usize, seed: u64) -> Platform {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = (0..p)
            .map(|_| {
                let c = draw_log_uniform(&mut rng, self.base_c, self.profile.comm);
                let w = draw_log_uniform(&mut rng, self.base_w, self.profile.comp);
                let m_f = draw_log_uniform(&mut rng, self.base_m as f64, self.profile.memory);
                // Memory must allow at least the minimal working set.
                let m = (m_f.round() as usize).max(5);
                WorkerParams::new(c, w, m)
            })
            .collect();
        Platform::new(workers).expect("generated parameters are always valid")
    }

    /// Generate `n` platforms with consecutive seeds (for averaging).
    pub fn generate_many(&self, p: usize, first_seed: u64, n: usize) -> Vec<Platform> {
        (0..n as u64).map(|k| self.generate(p, first_seed + k)).collect()
    }
}

/// Draw log-uniformly from `[base/spread, base·spread]`.
fn draw_log_uniform(rng: &mut StdRng, base: f64, spread: f64) -> f64 {
    if spread <= 1.0 {
        return base;
    }
    let lo = (base / spread).ln();
    let hi = (base * spread).ln();
    let x: f64 = rng.gen_range(lo..=hi);
    x.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_platform() {
        let g = PlatformGenerator::new(2.0, 4.5, 100, HeterogeneityProfile::strong());
        let a = g.generate(8, 42);
        let b = g.generate(8, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let g = PlatformGenerator::new(2.0, 4.5, 100, HeterogeneityProfile::strong());
        let a = g.generate(8, 1);
        let b = g.generate(8, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn homogeneous_profile_yields_identical_workers() {
        let g = PlatformGenerator::new(2.0, 4.5, 100, HeterogeneityProfile::homogeneous());
        let p = g.generate(8, 7);
        assert!(p.is_homogeneous());
        let w = p.homogeneous_params().unwrap();
        assert_eq!(w.c, 2.0);
        assert_eq!(w.w, 4.5);
        assert_eq!(w.m, 100);
    }

    #[test]
    fn spread_bounds_are_respected() {
        let g = PlatformGenerator::new(2.0, 4.0, 1000, HeterogeneityProfile::strong());
        for pf in g.generate_many(16, 0, 10) {
            for (_, wk) in pf.iter() {
                assert!(wk.c >= 2.0 / 4.0 - 1e-9 && wk.c <= 2.0 * 4.0 + 1e-9);
                assert!(wk.w >= 1.0 - 1e-9 && wk.w <= 16.0 + 1e-9);
                assert!(wk.m >= 250 - 1 && wk.m <= 4000 + 1);
            }
        }
    }

    #[test]
    fn generate_many_uses_consecutive_seeds() {
        let g = PlatformGenerator::new(2.0, 4.5, 100, HeterogeneityProfile::mild());
        let many = g.generate_many(4, 10, 3);
        assert_eq!(many.len(), 3);
        assert_eq!(many[0], g.generate(4, 10));
        assert_eq!(many[2], g.generate(4, 12));
    }
}
