//! The Section 7.1 cost model.
//!
//! All quantities are in blocks (communication) and block operations
//! (computation), for a matrix of `r × r` blocks factored with pivot size
//! `µ` on a platform with per-block costs `(c, w)`.
//!
//! Per step `k` (for `k = 1 … r/µ`):
//!
//! 1. **Pivot factorization** — comm `2µ²`, comp `µ³`;
//! 2. **Vertical panel** (`x ← x·U⁻¹` per row) — comm `2µ(r−kµ)`,
//!    comp `µ²(r−kµ)/2`;
//! 3. **Horizontal panel** (`y ← L⁻¹y` per column) — same costs;
//! 4. **Core update** (rank-µ) — comm `(r/µ−k)(µ² + 3(r−kµ)µ)`,
//!    comp `(r/µ−k)(r−kµ)µ²`.
//!
//! ### The paper's closed forms
//!
//! The paper states totals `(r³/µ − r² + 2µr)·c` and `(r³ + 2µ²r)·w/3`.
//! The computation total is exactly the sum of the per-step terms; the
//! communication total is **not** — the exact sum is `(r³/µ + r²)·c`
//! (the leading `r³/µ` term agrees; the discrepancy `2r² − 2µr` is lower
//! order). [`LuCost::comm_closed_form_paper`] returns the paper's
//! expression, [`LuProblem::total`] the exact per-step sum; tests pin both.
//!
//! ### What the runtime moves
//!
//! The paper cuts the core into column groups and re-sends the whole
//! vertical panel with each; [`crate::schedule`] runs the core update as a
//! product instead. Step `k`'s `rem = r − kµ` trailing rows are dealt as
//! one band per enrolled worker (`P' = min(P, rem)` bands), each band cut
//! into chunks of at most the workers' chunk side `c` — the product's
//! `µ² + 4µ` layout, `c = ⌊−2 + √(4 + m)⌋`. Every C block crosses twice,
//! and each chunk of `h × w` blocks takes a `w`-block row of the
//! horizontal panel and an `h`-block column of the vertical one per step
//! of the rank-µ update:
//!
//! ```text
//! pivot + panels   2µ² + 4µ·rem
//! trailing update  2·rem² + µ·rem·(⌈rem/c⌉ + Σ_bands ⌈h_b/c⌉)
//! ```
//!
//! With every band one chunk (`c ≥ rem`) the update moves
//! `2·rem² + (P' + 1)·µ·rem` blocks — the model's `3·rem² + µ·rem` less
//! `rem² − P'·µ·rem`: the horizontal panel crosses once per band, not once
//! per group. The runtime's metered volume, the simulated one and that sum
//! are one number (tests in [`crate::schedule`] and [`crate::runtime`]
//! hold them equal). At the benchmark's `r` = 12, `µ` = 2, `P` = 2 and
//! `m` = 100 000 that is 908 blocks in 122 frames (12 panel frames, then
//! `2·rem + 10` a step) against the exact closed form's
//! [`LuCost::comm_closed_form_exact`] = 1 008; a memory-bound `c` below
//! `rem` re-ships panel blocks per chunk and can exceed it.

/// An LU factorization instance in block terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuProblem {
    /// Matrix size in blocks (the matrix is `r × r` blocks).
    pub r: usize,
    /// Pivot size in blocks (second-level blocking).
    pub mu: usize,
}

impl LuProblem {
    /// New instance; `r` must be a positive multiple of `µ` (the paper
    /// assumes exact divisibility).
    pub fn new(r: usize, mu: usize) -> Self {
        assert!(mu > 0, "µ must be positive");
        assert!(r > 0 && r.is_multiple_of(mu), "r must be a positive multiple of µ");
        LuProblem { r, mu }
    }

    /// Number of elimination steps `r/µ`.
    pub fn steps(&self) -> usize {
        self.r / self.mu
    }

    /// Costs of step `k` (1-based, `1 ≤ k ≤ r/µ`) as
    /// `(communication blocks, computation block-ops)`.
    pub fn step_cost(&self, k: usize) -> StepCost {
        assert!(k >= 1 && k <= self.steps(), "step out of range");
        let mu = self.mu as f64;
        let r = self.r as f64;
        let kf = k as f64;
        let rem = r - kf * mu; // rows/cols below/right of the pivot
        let groups = r / mu - kf; // (r/µ − k) column groups of the core

        let pivot = Phase { comm: 2.0 * mu * mu, comp: mu * mu * mu };
        let vertical = Phase { comm: 2.0 * mu * rem, comp: 0.5 * mu * mu * rem };
        let horizontal = Phase { comm: 2.0 * mu * rem, comp: 0.5 * mu * mu * rem };
        let core = Phase {
            comm: groups * (mu * mu + 3.0 * rem * mu),
            comp: groups * rem * mu * mu,
        };
        StepCost { pivot, vertical, horizontal, core }
    }

    /// Total cost: exact sum of every step's phases.
    pub fn total(&self) -> LuCost {
        let mut comm = 0.0;
        let mut comp = 0.0;
        let mut core_comp = 0.0;
        for k in 1..=self.steps() {
            let s = self.step_cost(k);
            comm += s.comm();
            comp += s.comp();
            core_comp += s.core.comp;
        }
        LuCost { comm, comp, core_comp, problem: *self }
    }
}

/// Communication/computation pair for one phase of one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Blocks moved to/from the master.
    pub comm: f64,
    /// Block operations (one block op = `q³` multiply-adds).
    pub comp: f64,
}

/// All four phases of one elimination step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Pivot factorization.
    pub pivot: Phase,
    /// Vertical panel update.
    pub vertical: Phase,
    /// Horizontal panel update.
    pub horizontal: Phase,
    /// Core matrix rank-µ update.
    pub core: Phase,
}

impl StepCost {
    /// Step communication total.
    pub fn comm(&self) -> f64 {
        self.pivot.comm + self.vertical.comm + self.horizontal.comm + self.core.comm
    }

    /// Step computation total.
    pub fn comp(&self) -> f64 {
        self.pivot.comp + self.vertical.comp + self.horizontal.comp + self.core.comp
    }

    /// The sequential (non-core) part of the step — the fraction a single
    /// processor must execute before the parallel core update.
    pub fn sequential_comp(&self) -> f64 {
        self.pivot.comp + self.vertical.comp + self.horizontal.comp
    }
}

/// Totals for a whole factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuCost {
    /// Total blocks communicated (exact per-step sum).
    pub comm: f64,
    /// Total block operations (exact per-step sum).
    pub comp: f64,
    /// Block operations in core updates only (the parallelizable part).
    pub core_comp: f64,
    /// The instance.
    pub problem: LuProblem,
}

impl LuCost {
    /// The paper's closed-form communication total `r³/µ − r² + 2µr`.
    /// Kept for comparison; it does not match the per-step sum (see the
    /// module docs).
    pub fn comm_closed_form_paper(&self) -> f64 {
        let r = self.problem.r as f64;
        let mu = self.problem.mu as f64;
        r * r * r / mu - r * r + 2.0 * mu * r
    }

    /// The exact closed-form communication total `r³/µ + r²`, equal to
    /// the per-step sum (proved in tests by symbolic summation).
    pub fn comm_closed_form_exact(&self) -> f64 {
        let r = self.problem.r as f64;
        let mu = self.problem.mu as f64;
        r * r * r / mu + r * r
    }

    /// The paper's closed-form computation total `(r³ + 2µ²r)/3`, which
    /// *does* equal the per-step sum.
    pub fn comp_closed_form(&self) -> f64 {
        let r = self.problem.r as f64;
        let mu = self.problem.mu as f64;
        (r * r * r + 2.0 * mu * mu * r) / 3.0
    }

    /// Elapsed time on a single worker with costs `(c, w)`: everything is
    /// serialized (communication then computation per step — the paper's
    /// single-processor schedule overlaps nothing).
    pub fn single_worker_time(&self, c: f64, w: f64) -> f64 {
        self.comm * c + self.comp * w
    }
}

/// The closed form of "What the runtime moves" (module docs): the blocks
/// [`crate::schedule::lu_schedule`] moves with `enrolled` workers of
/// chunk side `side`.
#[cfg(test)]
pub(crate) fn scheduled_comm(problem: LuProblem, enrolled: usize, side: usize) -> f64 {
    let mu = problem.mu;
    let step = |rem: usize| {
        let bands = enrolled.min(rem);
        let band_chunks: usize =
            (0..bands).map(|b| ((b + 1) * rem / bands - b * rem / bands).div_ceil(side)).sum();
        2 * mu * mu + 4 * mu * rem + 2 * rem * rem + mu * rem * (rem.div_ceil(side) + band_chunks)
    };
    (1..=problem.steps()).map(|k| step(problem.r - k * mu)).sum::<usize>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn computation_total_matches_paper_closed_form() {
        for (r, mu) in [(8, 2), (12, 3), (20, 4), (60, 6), (100, 10)] {
            let total = LuProblem::new(r, mu).total();
            let closed = total.comp_closed_form();
            assert!(
                (total.comp - closed).abs() < 1e-6 * closed,
                "r={r} µ={mu}: per-step {} vs closed {closed}",
                total.comp
            );
        }
    }

    #[test]
    fn communication_total_matches_exact_closed_form() {
        for (r, mu) in [(8, 2), (12, 3), (20, 4), (60, 6), (100, 10)] {
            let total = LuProblem::new(r, mu).total();
            let exact = total.comm_closed_form_exact();
            assert!(
                (total.comm - exact).abs() < 1e-6 * exact,
                "r={r} µ={mu}: per-step {} vs exact closed {exact}",
                total.comm
            );
        }
    }

    #[test]
    fn paper_comm_closed_form_disagrees_by_lower_order_terms() {
        // Documenting the paper's algebra slip: its stated total differs
        // from its own per-step sum by 2r² − 2µr, a lower-order term.
        let total = LuProblem::new(100, 10).total();
        let paper = total.comm_closed_form_paper();
        let exact = total.comm_closed_form_exact();
        let diff = exact - paper;
        let r = 100.0_f64;
        let mu = 10.0_f64;
        assert!((diff - (2.0 * r * r - 2.0 * mu * r)).abs() < 1e-6);
        // Relative to the leading r³/µ term the slip shrinks with r.
        assert!(diff / exact < 0.2);
        let big = LuProblem::new(1000, 10).total();
        assert!(
            (big.comm_closed_form_exact() - big.comm_closed_form_paper())
                / big.comm_closed_form_exact()
                < 0.02
        );
    }

    #[test]
    fn last_step_has_no_panels_or_core() {
        let p = LuProblem::new(12, 3);
        let last = p.step_cost(p.steps());
        assert_eq!(last.vertical.comm, 0.0);
        assert_eq!(last.horizontal.comp, 0.0);
        assert_eq!(last.core.comm, 0.0);
        assert_eq!(last.core.comp, 0.0);
        // Pivot cost never vanishes.
        assert_eq!(last.pivot.comp, 27.0);
    }

    #[test]
    fn core_dominates_for_large_matrices() {
        // The paper parallelizes the core update because it dominates:
        // its share of computation tends to 1 as r/µ grows.
        let total = LuProblem::new(200, 5).total();
        assert!(total.core_comp / total.comp > 0.9);
    }

    #[test]
    #[should_panic(expected = "multiple of µ")]
    fn non_divisible_rejected() {
        let _ = LuProblem::new(10, 3);
    }

    #[test]
    fn single_worker_time_is_linear_in_costs() {
        let total = LuProblem::new(12, 3).total();
        let t1 = total.single_worker_time(1.0, 1.0);
        let t2 = total.single_worker_time(2.0, 2.0);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
        assert_eq!(t1, total.comm + total.comp);
    }

    proptest! {
        #[test]
        fn prop_closed_forms_hold(steps in 1usize..20, mu in 1usize..12) {
            let r = steps * mu;
            let total = LuProblem::new(r, mu).total();
            let comp = total.comp_closed_form();
            let comm = total.comm_closed_form_exact();
            prop_assert!((total.comp - comp).abs() <= 1e-6 * comp.max(1.0));
            prop_assert!((total.comm - comm).abs() <= 1e-6 * comm.max(1.0));
        }

        #[test]
        fn prop_step_costs_nonnegative(steps in 1usize..15, mu in 1usize..10) {
            let p = LuProblem::new(steps * mu, mu);
            for k in 1..=p.steps() {
                let s = p.step_cost(k);
                prop_assert!(s.comm() >= 0.0 && s.comp() >= 0.0);
                prop_assert!(s.sequential_comp() <= s.comp());
            }
        }
    }
}
