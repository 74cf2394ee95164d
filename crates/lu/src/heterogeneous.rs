//! Heterogeneous LU (Section 7.3).
//!
//! Unlike matrix product, LU fixes one pivot size µ for *all* workers at a
//! given step, so a worker's memory may not match µ. The paper's policy:
//!
//! * `µ_i < µ` (not enough memory): keep either a **square** `µ_i × µ_i`
//!   chunk of the horizontal panel (communication `3µ_i c` per `µ_i²`
//!   ops) or a set of **whole columns** (`(µ + 2µ_i²/µ)c` per `µ_i²`
//!   ops). The square shape wins iff `µ_i ≤ µ/2`.
//! * `µ_i > µ` (more than enough): split the worker's memory into
//!   `floor(µ_i²/µ²)` virtual workers of square side µ.
//!
//! The overall µ is chosen by exhaustive search: for each candidate µ,
//! pick the fastest processor for the sequential phases, run resource
//! selection for the core update, estimate the makespan, and keep the
//! best.

use crate::cost::LuProblem;
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

/// Estimated makespan of the heterogeneous factorization for a given µ:
/// per step, the fastest worker executes the sequential phases
/// (communication + computation serialized), then the core groups are
/// processed at the aggregate steady-state rate of the enrolled virtual
/// workers, bounded by the master's port.
pub fn estimate_makespan(platform: &Platform, r: usize, mu: usize) -> f64 {
    assert!(mu > 0 && r.is_multiple_of(mu), "r must be a multiple of µ");
    let problem = LuProblem::new(r, mu);

    // Fastest worker (comm + comp) handles pivot and panels.
    let seq_rate = platform
        .iter()
        .map(|(_, wk)| (wk.c, wk.w))
        .min_by(|a, b| (a.0 + a.1).partial_cmp(&(b.0 + b.1)).expect("finite"))
        .expect("non-empty platform");

    // Aggregate core-update capability: each worker contributes its
    // compute rate, capped by its share of the port at its per-chunk
    // communication price.
    let mut total = 0.0;
    for k in 1..=problem.steps() {
        let sc = problem.step_cost(k);
        let seq_time = (sc.pivot.comm + sc.vertical.comm + sc.horizontal.comm) * seq_rate.0
            + sc.sequential_comp() * seq_rate.1;

        // Core: LP-style bound. Port time per update for worker i uses
        // the better chunk shape; work rate capped at 1/w_i.
        let mut port_left = 1.0_f64;
        let mut rate = 0.0_f64;
        let mut prices: Vec<(f64, f64)> = platform
            .iter()
            .filter_map(|(_, wk)| {
                let mu_i = mwp_core::layout::MemoryLayout::MaxReuseOverlapped.mu(wk.m);
                if mu_i == 0 {
                    return None;
                }
                let eff_mu = mu_i.min(mu);
                let shape = chunk_shape(eff_mu, mu);
                let comm_per_chunk = chunk_comm_cost(eff_mu, mu, shape) * wk.c;
                let work_per_chunk = (eff_mu * eff_mu) as f64;
                Some((comm_per_chunk / work_per_chunk, 1.0 / wk.w))
            })
            .collect();
        prices.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for (price, max_rate) in prices {
            if port_left <= 0.0 {
                break;
            }
            let r_i = max_rate.min(port_left / price);
            rate += r_i;
            port_left -= r_i * price;
        }
        let core_time = if sc.core.comp > 0.0 { sc.core.comp / rate.max(1e-12) } else { 0.0 };
        total += seq_time + core_time;
    }
    total
}

/// Exhaustively search the best pivot size µ over the divisors of `r`
/// (the paper: "it is feasible to exhaustively study all the possible
/// values of µ"). Returns `(µ, estimated makespan)`.
pub fn best_pivot_size(platform: &Platform, r: usize) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for mu in 1..=r {
        if !r.is_multiple_of(mu) {
            continue;
        }
        let t = estimate_makespan(platform, r, mu);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((mu, t));
        }
    }
    best.expect("r ≥ 1 has at least the divisor 1")
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

    #[test]
    fn estimate_prefers_intermediate_mu() {
        // Tiny µ floods the port (comm ~ r³/µ); huge µ serializes the
        // pivot work. The best µ is interior for a balanced platform.
        let pf = Platform::new(vec![
            WorkerParams::new(1.0, 1.0, 400),
            WorkerParams::new(1.5, 0.8, 300),
            WorkerParams::new(2.0, 1.2, 500),
        ])
        .unwrap();
        let (best_mu, best_t) = best_pivot_size(&pf, 60);
        assert!(best_mu > 1, "µ = 1 should lose to larger pivots");
        assert!(best_mu < 60, "µ = r serializes everything");
        // The optimum beats both extremes.
        assert!(best_t < estimate_makespan(&pf, 60, 1));
        assert!(best_t < estimate_makespan(&pf, 60, 60));
    }

    #[test]
    fn estimate_improves_with_faster_platform() {
        let slow = Platform::homogeneous(3, 2.0, 2.0, 200).unwrap();
        let fast = Platform::homogeneous(3, 1.0, 1.0, 200).unwrap();
        let ts = estimate_makespan(&slow, 24, 4);
        let tf = estimate_makespan(&fast, 24, 4);
        assert!((ts / tf - 2.0).abs() < 1e-6, "linear cost scaling: {ts} vs {tf}");
    }
}
