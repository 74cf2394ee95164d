//! Bandwidth-centric steady-state selection (Section 6.1).
//!
//! In steady state, worker `P_i` receiving `y_i` blocks per time unit can
//! compute `x_i = y_i µ_i / 2` C blocks per time unit, subject to the
//! master's port (`Σ y_i c_i ≤ 1`) and its own speed (`x_i w_i ≤ 1`). The
//! optimal solution of the resulting linear program is *bandwidth-centric*:
//! sort workers by the port time they consume per unit of work,
//! `2c_i/µ_i`, and enroll greedily; the last enrolled worker may be
//! fractional.
//!
//! The catch — and the reason Section 6.2 exists — is that the steady-state
//! schedule may need more buffers than `m_i` provides: a fast worker must
//! hold enough staged work to survive the port serving slow workers
//! (Table 1's counterexample). [`SteadyState::memory_feasible`] checks the
//! corresponding (sufficient) condition.

use mwp_platform::{Platform, WorkerId};

/// Enrollment of one worker in the steady-state solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Enrollment {
    /// The worker.
    pub worker: WorkerId,
    /// Its µ (from the overlapped maximum re-use layout).
    pub mu: usize,
    /// Work rate `x_i` in C blocks per time unit (`≤ 1/w_i`; fractional
    /// for the last enrolled worker).
    pub rate: f64,
    /// Fraction of the master's port this worker consumes, `2c_i x_i/µ_i`.
    pub port_share: f64,
}

/// The steady-state LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Enrolled workers in bandwidth-centric order (most efficient first).
    pub enrolled: Vec<Enrollment>,
    /// Total throughput `ρ = Σ x_i` in C blocks per time unit.
    pub throughput: f64,
}

/// Solve the Section 6.1 linear program for `platform`, using each
/// worker's `µ_i` from the overlapped layout.
pub fn steady_state(platform: &Platform) -> SteadyState {
    steady_state_with_mu(platform, |m| crate::layout::MemoryLayout::MaxReuseOverlapped.mu(m))
}

/// Same as [`steady_state`], with a custom `µ(m)` function (the paper's
/// Table 1 example fixes µ directly rather than deriving it).
pub fn steady_state_with_mu(platform: &Platform, mu_of: impl Fn(usize) -> usize) -> SteadyState {
    // Sort by port cost per unit of work, 2c_i/µ_i ascending.
    let mut order: Vec<(WorkerId, usize)> = platform
        .iter()
        .map(|(id, w)| (id, mu_of(w.m)))
        .filter(|&(_, mu)| mu > 0)
        .collect();
    order.sort_by(|a, b| {
        let ka = 2.0 * platform[a.0].c / a.1 as f64;
        let kb = 2.0 * platform[b.0].c / b.1 as f64;
        ka.partial_cmp(&kb).expect("finite keys")
    });

    let mut port_left = 1.0_f64;
    let mut enrolled = Vec::new();
    let mut throughput = 0.0;
    for (id, mu) in order {
        if port_left <= 0.0 {
            break;
        }
        let w = &platform[id];
        let port_per_work = 2.0 * w.c / mu as f64; // port time per C block
        let full_rate = 1.0 / w.w; // compute-bound rate
        let rate = full_rate.min(port_left / port_per_work);
        if rate <= 0.0 {
            break;
        }
        let share = rate * port_per_work;
        port_left -= share;
        throughput += rate;
        enrolled.push(Enrollment { worker: id, mu, rate, port_share: share });
    }
    SteadyState { enrolled, throughput }
}

impl SteadyState {
    /// Sufficient memory-feasibility condition for realizing the steady
    /// state with per-chunk granularity: while the port serves every other
    /// enrolled worker one full chunk (`2µ_j c_j` each), worker `i` must
    /// keep itself busy from its resident chunk, which lasts `µ_i² w_i`.
    ///
    /// Returns the ids of workers whose buffers are too small — exactly
    /// what Table 1 illustrates (`P1` starves while `P2`'s 80-time-unit
    /// message monopolizes the port).
    pub fn memory_infeasible_workers(&self, platform: &Platform) -> Vec<WorkerId> {
        let mut out = Vec::new();
        for e in &self.enrolled {
            let my_reserve = (e.mu * e.mu) as f64 * platform[e.worker].w;
            let others: f64 = self
                .enrolled
                .iter()
                .filter(|o| o.worker != e.worker)
                .map(|o| 2.0 * o.mu as f64 * platform[o.worker].c)
                .sum();
            if my_reserve < others {
                out.push(e.worker);
            }
        }
        out
    }

    /// True when every enrolled worker passes the buffer check.
    pub fn memory_feasible(&self, platform: &Platform) -> bool {
        self.memory_infeasible_workers(platform).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_platform::WorkerParams;

    /// The paper's Table 2 platform (µ = 6, 18, 10 via m = 60, 396, 140).
    fn table2() -> Platform {
        Platform::new(vec![
            WorkerParams::new(2.0, 2.0, 60),
            WorkerParams::new(3.0, 3.0, 396),
            WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap()
    }

    /// The paper's Table 1 platform (µ fixed at 2 for both workers).
    fn table1() -> Platform {
        Platform::new(vec![
            WorkerParams::new(1.0, 2.0, 12),  // µ = 2 via µ²+4µ ≤ 12
            WorkerParams::new(20.0, 40.0, 12),
        ])
        .unwrap()
    }

    #[test]
    fn table2_throughput_is_1_39() {
        // Section 6.2.1: "the steady-state approach of Section 6.1 would
        // achieve a ratio of 1.39 without memory limitations."
        let ss = steady_state(&table2());
        assert!(
            (ss.throughput - 1.3889).abs() < 0.001,
            "throughput = {}",
            ss.throughput
        );
        // Enrollment order by 2c/µ: P2 (1/3), P1 (2/3), P3 (1).
        let order: Vec<WorkerId> = ss.enrolled.iter().map(|e| e.worker).collect();
        assert_eq!(order, vec![WorkerId(1), WorkerId(0), WorkerId(2)]);
        // P2 and P1 run compute-bound; P3 is the fractional one.
        assert!((ss.enrolled[0].rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((ss.enrolled[1].rate - 0.5).abs() < 1e-12);
        assert!((ss.enrolled[2].rate - 5.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn port_shares_sum_to_at_most_one() {
        for pf in [table1(), table2()] {
            let ss = steady_state(&pf);
            let total: f64 = ss.enrolled.iter().map(|e| e.port_share).sum();
            assert!(total <= 1.0 + 1e-9, "port over-committed: {total}");
        }
    }

    #[test]
    fn table1_enrolls_both_but_is_memory_infeasible() {
        // 2c_i/(µ_i w_i) = 0.5 for both workers: the LP enrolls both fully
        // (Σ = 1), but P1 cannot buffer across P2's 80-time-unit message.
        let pf = table1();
        let ss = steady_state(&pf);
        assert_eq!(ss.enrolled.len(), 2);
        let total_share: f64 = ss.enrolled.iter().map(|e| e.port_share).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        assert!(!ss.memory_feasible(&pf));
        // P1 (the fast-computing worker) is the starved one.
        assert_eq!(ss.memory_infeasible_workers(&pf), vec![WorkerId(0)]);
    }

    #[test]
    fn single_worker_is_always_feasible() {
        let pf = Platform::homogeneous(1, 2.0, 4.0, 60).unwrap();
        let ss = steady_state(&pf);
        assert_eq!(ss.enrolled.len(), 1);
        assert!(ss.memory_feasible(&pf));
        // Rate is min(1/w, port capacity µ/2c) = min(0.25, 1.5) = 0.25.
        assert!((ss.throughput - 0.25).abs() < 1e-12);
    }

    #[test]
    fn saturated_port_truncates_slowest_efficiency_worker() {
        // Two identical comm-heavy workers: port runs out before both are
        // compute-bound; the second gets a fractional rate.
        let pf = Platform::homogeneous(2, 10.0, 1.0, 12).unwrap(); // µ = 2
        let ss = steady_state(&pf);
        // port per work = 2·10/2 = 10; full rate 1/w = 1 -> first worker
        // alone would need port share 10 » 1, so it is fractional at 0.1
        // and the second gets nothing.
        assert_eq!(ss.enrolled.len(), 1);
        assert!((ss.throughput - 0.1).abs() < 1e-12);
    }

    #[test]
    fn workers_with_zero_mu_are_skipped() {
        let pf = Platform::new(vec![
            WorkerParams::new(1.0, 1.0, 4),  // µ = 0: cannot participate
            WorkerParams::new(1.0, 1.0, 60), // µ = 6
        ])
        .unwrap();
        let ss = steady_state(&pf);
        assert_eq!(ss.enrolled.len(), 1);
        assert_eq!(ss.enrolled[0].worker, WorkerId(1));
    }
}
