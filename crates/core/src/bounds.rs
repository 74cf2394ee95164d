//! Communication-to-computation ratios and lower bounds (Section 4).
//!
//! All ratios are in **block** terms: communications counted in `q × q`
//! blocks moved to or from the master, computations in block updates
//! (`q³` multiply-adds each). In element terms every ratio divides by `q`.
//!
//! The chain of results reproduced here:
//!
//! 1. the maximum re-use algorithm achieves
//!    `CCR = (2µ² + 2µt)/(µ²t) = 2/t + 2/µ → 2/√m`,
//! 2. Toledo's lemma bounds any standard multiplication's work by
//!    `K = min((N_A+N_B)√N_C, (N_A+N_C)√N_B, (N_B+N_C)√N_A)`, giving
//!    `CCR_opt ≥ sqrt(27/(32m))`,
//! 3. the Loomis–Whitney inequality `K = sqrt(N_A·N_B·N_C)` tightens it to
//!    `CCR_opt ≥ sqrt(27/(8m))` — the paper's new bound, improving the
//!    earlier `sqrt(1/(8m))` of Irony, Toledo & Tiskin,
//! 4. the gap between the algorithm and the bound is
//!    `(2/√m) / sqrt(27/8m) = sqrt(32/27) ≈ 1.089`.

/// CCR of one outer-loop iteration of the maximum re-use algorithm:
/// `2µ² + 2µt` blocks communicated for `µ²t` updates, i.e. `2/t + 2/µ`.
pub fn ccr_max_reuse(mu: usize, t: usize) -> f64 {
    assert!(mu > 0 && t > 0, "µ and t must be positive");
    2.0 / t as f64 + 2.0 / mu as f64
}

/// Asymptotic (large `t`) CCR of the maximum re-use algorithm with `m`
/// buffers: `2/√m` (using `µ ≈ √m` from the `1 + µ + µ²` layout).
pub fn ccr_max_reuse_asymptotic(m: usize) -> f64 {
    assert!(m > 0, "memory must be positive");
    2.0 / (m as f64).sqrt()
}

/// The paper's refined Toledo-style lower bound `sqrt(27/(32m))` on the
/// CCR of any standard (non-Strassen) algorithm with `m` buffers.
pub fn lower_bound_toledo(m: usize) -> f64 {
    (27.0 / (32.0 * m as f64)).sqrt()
}

/// The paper's Loomis–Whitney lower bound `sqrt(27/(8m))` — the tightest
/// bound derived in Section 4.2.
pub fn lower_bound_loomis_whitney(m: usize) -> f64 {
    (27.0 / (8.0 * m as f64)).sqrt()
}

/// The previously best-known bound `sqrt(1/(8m))` from Irony, Toledo &
/// Tiskin, which the paper improves by a factor `sqrt(27) ≈ 5.2`.
pub fn lower_bound_irony_toledo_tiskin(m: usize) -> f64 {
    (1.0 / (8.0 * m as f64)).sqrt()
}

/// The optimality gap of the maximum re-use algorithm:
/// `CCR∞ / CCR_opt = sqrt(32/27) ≈ 1.0887`, independent of `m`.
pub fn max_reuse_optimality_gap() -> f64 {
    (32.0_f64 / 27.0).sqrt()
}

/// CCR of Toledo's equal-thirds blocked algorithm: with squares of side
/// `sqrt(m/3)` blocks, `2s² + 2s·t·(s/s)`… asymptotically `2/sqrt(m/3)`,
/// i.e. a factor `sqrt(3)` above the maximum re-use algorithm.
pub fn ccr_toledo_asymptotic(m: usize) -> f64 {
    assert!(m >= 3, "Toledo layout needs at least 3 buffers");
    2.0 / ((m / 3) as f64).sqrt()
}

/// The normalized objective of the Section 4.2 optimization: with
/// `α + β + γ ≤ 2` (elements accessed per `m` communications, in units of
/// `m`), the work per `m√m q³` is `k = sqrt(α·β·γ)`. The optimum is
/// `α = β = γ = 2/3`, `k = sqrt(8/27)`.
pub fn loomis_whitney_objective(alpha: f64, beta: f64, gamma: f64) -> f64 {
    (alpha * beta * gamma).sqrt()
}

/// The Toledo-lemma objective of Section 4.2 (first system):
/// `k = min((α+β)√γ, (β+γ)√α, (γ+α)√β)`; optimum `sqrt(32/27)` at 2/3.
pub fn toledo_objective(alpha: f64, beta: f64, gamma: f64) -> f64 {
    let k1 = (alpha + beta) * gamma.sqrt();
    let k2 = (beta + gamma) * alpha.sqrt();
    let k3 = (gamma + alpha) * beta.sqrt();
    k1.min(k2).min(k3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ccr_formula_matches_components() {
        // µ = 4, t = 100: 2/100 + 2/4 = 0.52.
        assert!((ccr_max_reuse(4, 100) - 0.52).abs() < 1e-12);
        // Large t limit approaches 2/µ.
        assert!((ccr_max_reuse(10, 1_000_000) - 0.2).abs() < 1e-4);
    }

    #[test]
    fn bound_ordering() {
        // For every m: ITT bound < refined Toledo < Loomis-Whitney <=
        // achieved CCR of max-re-use.
        for m in [10, 21, 100, 1000, 10_000] {
            let itt = lower_bound_irony_toledo_tiskin(m);
            let tol = lower_bound_toledo(m);
            let lw = lower_bound_loomis_whitney(m);
            let achieved = ccr_max_reuse_asymptotic(m);
            assert!(itt < tol, "m = {m}");
            assert!(tol < lw, "m = {m}");
            assert!(lw <= achieved, "m = {m}");
        }
    }

    #[test]
    fn optimality_gap_is_sqrt_32_27() {
        for m in [10, 100, 10_000] {
            let gap = ccr_max_reuse_asymptotic(m) / lower_bound_loomis_whitney(m);
            assert!((gap - max_reuse_optimality_gap()).abs() < 1e-12, "m = {m}");
        }
        assert!((max_reuse_optimality_gap() - 1.0887).abs() < 1e-3);
    }

    #[test]
    fn paper_bound_values() {
        // CCR∞ = sqrt(32/8m) restated: 2/sqrt(m).
        let m = 64;
        assert!((ccr_max_reuse_asymptotic(m) - 0.25).abs() < 1e-12);
        // sqrt(27/8/64) = sqrt(0.052734) ≈ 0.22964.
        assert!((lower_bound_loomis_whitney(m) - (27.0 / 512.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn toledo_ccr_is_sqrt3_worse() {
        // Using the continuous approximation m/3 exact: factor sqrt(3).
        let m = 30_000; // divisible by 3 keeps the integer division exact
        let ratio = ccr_toledo_asymptotic(m) / ccr_max_reuse_asymptotic(m);
        assert!((ratio - 3.0_f64.sqrt()).abs() < 1e-3, "ratio = {ratio}");
    }

    #[test]
    fn loomis_whitney_optimum_at_two_thirds() {
        // Grid search over the simplex α+β+γ ≤ 2 confirms the analytic
        // optimum of Section 4.2.
        let mut best = (0.0, 0.0, 0.0, 0.0);
        let n: usize = 60; // divisible by 3 so the grid contains (2/3, 2/3, 2/3)
        for ia in 1..=n {
            for ib in 1..=(n.saturating_sub(ia)) {
                for ic in 1..=(n.saturating_sub(ia + ib)) {
                    let (a, b, g) = (
                        2.0 * ia as f64 / n as f64,
                        2.0 * ib as f64 / n as f64,
                        2.0 * ic as f64 / n as f64,
                    );
                    let k = loomis_whitney_objective(a, b, g);
                    if k > best.3 {
                        best = (a, b, g, k);
                    }
                }
            }
        }
        let opt = (8.0_f64 / 27.0).sqrt();
        assert!((best.3 - opt).abs() < 1e-9, "grid max {} vs analytic {opt}", best.3);
        assert!((best.0 - 2.0 / 3.0).abs() < 0.1);
        assert!((best.1 - 2.0 / 3.0).abs() < 0.1);
        assert!((best.2 - 2.0 / 3.0).abs() < 0.1);
    }

    #[test]
    fn toledo_objective_optimum() {
        // k = sqrt(32/27) at α = β = γ = 2/3.
        let k = toledo_objective(2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0);
        assert!((k - (32.0_f64 / 27.0).sqrt()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_lw_dominates_any_feasible_point(
            // Draw within the unit cube: ~5/6 of samples satisfy the
            // simplex constraint, keeping the assume-rejection rate low.
            a in 0.01f64..1.0, b in 0.01f64..1.0, g in 0.01f64..1.0
        ) {
            // No feasible (α, β, γ) beats the analytic optimum.
            prop_assume!(a + b + g <= 2.0);
            prop_assert!(loomis_whitney_objective(a, b, g) <= (8.0f64/27.0).sqrt() + 1e-12);
        }

        #[test]
        fn prop_toledo_objective_bounded(
            a in 0.01f64..1.0, b in 0.01f64..1.0, g in 0.01f64..1.0
        ) {
            prop_assume!(a + b + g <= 2.0);
            prop_assert!(toledo_objective(a, b, g) <= (32.0f64/27.0).sqrt() + 1e-12);
        }
    }
}
