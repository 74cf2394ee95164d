//! Heterogeneous LU (Section 7.3).
//!
//! Unlike matrix product, LU fixes one pivot size µ for *all* workers at a
//! given step, so a worker's memory may not match µ. The paper's policy for
//! a worker whose memory holds `µ_i < µ` is its chunk shape: keep either a
//! **square** `µ_i × µ_i` chunk of the horizontal panel (communication
//! `3µ_i c` per `µ_i²` ops) or a set of **whole columns**
//! (`(µ + 2µ_i²/µ)c` per `µ_i²` ops); the square shape wins iff
//! `µ_i ≤ µ/2` ([`chunk_shape`], [`chunk_comm_cost`]).
//!
//! The paper picks µ by exhaustive search over a makespan estimate.
//! [`best_pivot_size`] searches the same divisors of `r`, but prices each
//! by the schedule the runtime runs: the simulator's [`replay`] of
//! [`crate::schedule::lu_schedule`] at the chunk sides
//! [`crate::runtime::factor`] deals ([`chunk_sides`]) — the pivot chain on
//! worker 0, the core update as the product's chunk exchanges — so the
//! search prices the frames `replay_diff` checks against real runs.

use crate::schedule::{chunk_sides, replay};
use mwp_platform::Platform;

/// Shape of the horizontal-panel chunk a memory-limited worker keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkShape {
    /// A `µ_i × µ_i` square chunk.
    Square,
    /// `µ_i²/µ` whole columns of the `µ`-row panel.
    WholeColumns,
}

/// The paper's chunk-shape rule: square iff `µ_i ≤ µ/2`.
pub fn chunk_shape(mu_i: usize, mu: usize) -> ChunkShape {
    assert!(mu > 0, "pivot size must be positive");
    if 2 * mu_i <= mu {
        ChunkShape::Square
    } else {
        ChunkShape::WholeColumns
    }
}

/// Communication cost per `µ_i²` block updates for each shape
/// (Section 7.3's two expressions), in blocks.
pub fn chunk_comm_cost(mu_i: usize, mu: usize, shape: ChunkShape) -> f64 {
    let mu_i = mu_i as f64;
    let mu = mu as f64;
    match shape {
        ChunkShape::Square => 3.0 * mu_i,
        ChunkShape::WholeColumns => mu + 2.0 * mu_i * mu_i / mu,
    }
}

/// The divisor µ of `r` whose factorization replays fastest on
/// `platform`, and that replayed makespan: the argmin over every divisor
/// of the simulated [`replay`] of the schedule [`crate::runtime::factor`]
/// runs at that µ (the paper: "it is feasible to exhaustively study all
/// the possible values of µ"). A µ the fleet cannot run — no worker holds
/// a chunk, so `factor` would abort, or the replay overflows a worker's
/// memory — is not a candidate; ties go to the smaller µ.
///
/// # Panics
/// If no divisor is a candidate: no worker's memory holds a chunk.
#[allow(clippy::expect_used, reason = "a documented panic: no worker's memory holds a chunk")]
pub fn best_pivot_size(platform: &Platform, r: usize) -> (usize, f64) {
    let replayed = |mu: usize| {
        let sides = chunk_sides(platform, r, mu);
        if sides.iter().all(|&side| side == 0) {
            return None;
        }
        replay(platform, r, mu, &sides).ok().map(|report| (mu, report.makespan.value()))
    };
    (1..=r)
        .filter(|mu| r.is_multiple_of(*mu))
        .filter_map(replayed)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("no worker's memory holds a chunk")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_platform::WorkerParams;

    #[test]
    fn chunk_shape_crossover_at_half_mu() {
        // Square iff µ_i ≤ µ/2 (Section 7.3's inequality).
        assert_eq!(chunk_shape(4, 10), ChunkShape::Square);
        assert_eq!(chunk_shape(5, 10), ChunkShape::Square); // 2·5 = 10 ≤ 10
        assert_eq!(chunk_shape(6, 10), ChunkShape::WholeColumns);
        assert_eq!(chunk_shape(10, 10), ChunkShape::WholeColumns);
    }

    #[test]
    fn shape_rule_minimizes_cost() {
        // The rule must always pick the cheaper shape.
        for mu in 2..40usize {
            for mu_i in 1..=mu {
                let chosen = chunk_shape(mu_i, mu);
                let square = chunk_comm_cost(mu_i, mu, ChunkShape::Square);
                let cols = chunk_comm_cost(mu_i, mu, ChunkShape::WholeColumns);
                match chosen {
                    ChunkShape::Square => assert!(
                        square <= cols + 1e-9,
                        "µ_i={mu_i} µ={mu}: square {square} > cols {cols}"
                    ),
                    ChunkShape::WholeColumns => assert!(
                        cols <= square + 1e-9,
                        "µ_i={mu_i} µ={mu}: cols {cols} > square {square}"
                    ),
                }
            }
        }
    }

    #[test]
    fn equal_cost_at_exactly_half() {
        // At µ_i = µ/2 the two shapes cost the same: 3µ_i = µ + µ²/2µ·...
        let mu = 10;
        let mu_i = 5;
        let square = chunk_comm_cost(mu_i, mu, ChunkShape::Square);
        let cols = chunk_comm_cost(mu_i, mu, ChunkShape::WholeColumns);
        assert!((square - cols).abs() < 1e-12, "{square} vs {cols}");
    }

    /// The replayed makespan of the factorization at `mu`, through the
    /// same helper the search uses.
    fn replayed(platform: &Platform, r: usize, mu: usize) -> f64 {
        replay(platform, r, mu, &chunk_sides(platform, r, mu)).unwrap().makespan.value()
    }

    /// E12's heterogeneous platform.
    fn three_workers() -> Platform {
        Platform::new(vec![
            WorkerParams::new(1.0, 1.0, 400),
            WorkerParams::new(1.5, 0.8, 300),
            WorkerParams::new(2.0, 1.2, 500),
        ])
        .unwrap()
    }

    #[test]
    fn estimate_prefers_intermediate_mu() {
        // Tiny µ floods the port (comm ~ r³/µ); huge µ serializes the
        // pivot work. The best µ is interior for a balanced platform.
        let pf = three_workers();
        let (best_mu, best_t) = best_pivot_size(&pf, 60);
        assert!(best_mu > 1, "µ = 1 should lose to larger pivots");
        assert!(best_mu < 60, "µ = r serializes everything");
        // The optimum beats both extremes.
        assert!(best_t < replayed(&pf, 60, 1));
        assert!(best_t < replayed(&pf, 60, 60));
    }

    #[test]
    fn the_search_is_the_argmin_of_the_replays_over_the_divisors() {
        // A brute-force loop over the divisors of r through the helper the
        // search shares, on E12's platform, a homogeneous one and one whose
        // only chunk-holding worker is not the pivot's.
        let lopsided = Platform::new(vec![WorkerParams::new(1.0, 0.5, 4), WorkerParams::new(2.0, 1.0, 60)]).unwrap();
        for (pf, r) in [(three_workers(), 60), (three_workers(), 24), (Platform::homogeneous(2, 1.0, 2.0, 60).unwrap(), 36), (lopsided, 12)] {
            let mut best: Option<(usize, f64)> = None;
            for mu in (1..=r).filter(|mu| r % mu == 0) {
                let t = replayed(&pf, r, mu);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((mu, t));
                }
            }
            assert_eq!(Some(best_pivot_size(&pf, r)), best, "r = {r} on {pf:?}");
        }
    }

    #[test]
    #[should_panic(expected = "no worker's memory holds a chunk")]
    fn a_fleet_that_holds_no_chunk_has_no_pivot_size() {
        best_pivot_size(&Platform::homogeneous(2, 1.0, 1.0, 4).unwrap(), 12);
    }

    #[test]
    fn estimate_improves_with_faster_platform() {
        let slow = Platform::homogeneous(3, 2.0, 2.0, 200).unwrap();
        let fast = Platform::homogeneous(3, 1.0, 1.0, 200).unwrap();
        let ts = replayed(&slow, 24, 4);
        let tf = replayed(&fast, 24, 4);
        assert!((ts / tf - 2.0).abs() < 1e-6, "linear cost scaling: {ts} vs {tf}");
        assert_eq!(best_pivot_size(&slow, 24).0, best_pivot_size(&fast, 24).0, "the same µ either way");
    }
}
