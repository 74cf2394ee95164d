//! Incremental resource selection for heterogeneous platforms
//! (Section 6.2, Algorithm 3 and its variants).
//!
//! The steady-state solution may be memory-infeasible, so the paper
//! pre-computes the allocation of chunks to processors by *simulating*
//! communications one at a time. Each selection of worker `P_i` stands for
//! sending it `µ_i` blocks of A and `µ_i` blocks of B (2µ_i blocks over
//! `2µ_i c_i` time units), enabling `µ_i²` block updates (`µ_i² w_i` time
//! units); C-block I/O is neglected as in the paper. A communication to
//! `P_i` cannot complete before `P_i` finishes its queued work (limited
//! memory forbids deep prefetch), hence the recurring
//! `max(completion + 2µ_i c_i, ready_i)` term.
//!
//! Three selection objectives are implemented:
//!
//! * **Global** (Algorithm 3) — maximize total-work-so-far over the
//!   completion time of the candidate communication,
//! * **Local** — maximize the work bought by *this* communication over the
//!   port time it consumes,
//! * **Two-step lookahead** — the refinement sketched at the end of
//!   Section 6.2.1: pick the best ordered *pair* of next communications.

use mwp_platform::{Platform, WorkerId};

/// Which incremental objective to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionRule {
    /// Algorithm 3's global ratio.
    Global,
    /// The local (per-communication) ratio of Section 6.2.2.
    Local,
    /// Global objective evaluated over the best ordered pair of
    /// selections, both of which are committed.
    TwoStepLookahead,
    /// Generalization of the lookahead idea: exhaustively evaluate every
    /// ordered sequence of `depth` selections, commit the whole winning
    /// sequence. `Lookahead(1)` equals `Global`; `Lookahead(2)` equals
    /// `TwoStepLookahead`. Cost grows as `p^depth` per committed batch —
    /// "the only price to pay is an increase in the cost of the selection
    /// algorithm" (Section 6.2.1).
    Lookahead(usize),
}

/// One committed selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionStep {
    /// The selected worker.
    pub worker: WorkerId,
    /// Completion time of this communication.
    pub completion_time: f64,
    /// The worker's ready time after appending the enabled work.
    pub ready: f64,
    /// Cumulative work (block updates) assigned after this step.
    pub total_work: f64,
}

/// The full output of the selection simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionTrace {
    /// Every committed selection in order.
    pub steps: Vec<SelectionStep>,
    /// Per-worker count of selections.
    pub selections_per_worker: Vec<usize>,
    /// Final `total_work / completion_time` — the paper's "ratio".
    pub ratio: f64,
    /// Completed C block columns when the loop stopped.
    pub columns_filled: usize,
}

struct State {
    completion_time: f64,
    ready: Vec<f64>,
    nb_block: Vec<f64>,
    total_work: f64,
}

impl State {
    fn new(p: usize) -> Self {
        State {
            completion_time: 0.0,
            ready: vec![0.0; p],
            nb_block: vec![0.0; p],
            total_work: 0.0,
        }
    }

    /// Completion time if the next communication goes to worker `i`.
    fn completion_if(&self, platform: &Platform, mu: &[usize], i: usize) -> f64 {
        let wk = &platform[WorkerId(i)];
        (self.completion_time + 2.0 * mu[i] as f64 * wk.c).max(self.ready[i])
    }

    /// Commit a selection of worker `i`.
    fn commit(&mut self, platform: &Platform, mu: &[usize], i: usize) -> SelectionStep {
        let wk = &platform[WorkerId(i)];
        let mui = mu[i] as f64;
        self.total_work += mui * mui;
        self.completion_time = self.completion_if(platform, mu, i);
        self.ready[i] = self.completion_time + mui * mui * wk.w;
        self.nb_block[i] += 2.0 * mui;
        SelectionStep {
            worker: WorkerId(i),
            completion_time: self.completion_time,
            ready: self.ready[i],
            total_work: self.total_work,
        }
    }

    /// The paper's `nb-column` accumulator: worker `P_i` completes a group
    /// of `µ_i` block columns after `t · ceil(r/µ_i)` selections, i.e.
    /// `2µ_i t ceil(r/µ_i)` blocks.
    fn columns(&self, mu: &[usize], r: usize, t: usize) -> usize {
        self.nb_block
            .iter()
            .zip(mu.iter())
            .map(|(&nb, &mui)| {
                if mui == 0 {
                    return 0;
                }
                let denom = 2.0 * mui as f64 * t as f64 * (r as f64 / mui as f64).ceil();
                ((nb / denom).floor() as usize) * mui
            })
            .sum()
    }
}

/// Run the incremental selection until `s` block columns are allocated
/// (the Algorithm 3 termination test) for a problem of `r × s` C blocks
/// with shared dimension `t`.
pub fn run_selection(
    platform: &Platform,
    rule: SelectionRule,
    r: usize,
    s: usize,
    t: usize,
) -> SelectionTrace {
    let mu: Vec<usize> = platform
        .workers()
        .iter()
        .map(|w| crate::layout::MemoryLayout::MaxReuseOverlapped.mu(w.m))
        .collect();
    run_selection_with_mu(platform, &mu, rule, r, s, t)
}

/// [`run_selection`] with externally fixed `µ_i` (the paper's Table 2
/// lists µ directly).
pub fn run_selection_with_mu(
    platform: &Platform,
    mu: &[usize],
    rule: SelectionRule,
    r: usize,
    s: usize,
    t: usize,
) -> SelectionTrace {
    assert_eq!(mu.len(), platform.len(), "one µ per worker");
    assert!(mu.iter().any(|&m| m > 0), "no worker has usable memory");
    let p = platform.len();
    let mut st = State::new(p);
    let mut steps = Vec::new();
    let mut per_worker = vec![0usize; p];

    // Cap guards against non-terminating configurations in tests.
    let cap = 4 * (r.max(1) * s.max(1) * t.max(1)).max(1_000);
    while st.columns(mu, r, t) < s && steps.len() < cap {
        for &i in &select(platform, mu, &st, rule) {
            let step = st.commit(platform, mu, i);
            per_worker[i] += 1;
            steps.push(step);
        }
    }

    let ratio = if st.completion_time > 0.0 {
        st.total_work / st.completion_time
    } else {
        0.0
    };
    SelectionTrace {
        steps,
        selections_per_worker: per_worker,
        ratio,
        columns_filled: st.columns(mu, r, t),
    }
}

/// Run a fixed number of selections (no termination test) and return the
/// asymptotic ratio — used to reproduce the Section 6.2 figures.
pub fn asymptotic_ratio(
    platform: &Platform,
    mu: &[usize],
    rule: SelectionRule,
    selections: usize,
) -> f64 {
    let p = platform.len();
    let mut st = State::new(p);
    while {
        let committed = select(platform, mu, &st, rule);
        for &i in &committed {
            st.commit(platform, mu, i);
        }
        true
    } {
        if st.total_work >= selections as f64 {
            break;
        }
    }
    st.total_work / st.completion_time
}

/// Choose the next selection(s) under `rule`. Returns one worker index for
/// the greedy rules, two for the lookahead.
fn select(platform: &Platform, mu: &[usize], st: &State, rule: SelectionRule) -> Vec<usize> {
    let p = platform.len();
    let candidates: Vec<usize> = (0..p).filter(|&i| mu[i] > 0).collect();
    match rule {
        SelectionRule::Global => {
            #[allow(clippy::expect_used, reason = "the selection runs only while some worker has µ > 0")]
            let best = candidates
                .into_iter()
                .max_by(|&a, &b| {
                    let ra = global_ratio(platform, mu, st, a);
                    let rb = global_ratio(platform, mu, st, b);
                    ra.total_cmp(&rb)
                })
                .expect("at least one candidate");
            vec![best]
        }
        SelectionRule::Local => {
            #[allow(clippy::expect_used, reason = "the selection runs only while some worker has µ > 0")]
            let best = candidates
                .into_iter()
                .max_by(|&a, &b| {
                    let ra = local_ratio(platform, mu, st, a);
                    let rb = local_ratio(platform, mu, st, b);
                    ra.total_cmp(&rb)
                })
                .expect("at least one candidate");
            vec![best]
        }
        SelectionRule::TwoStepLookahead => lookahead(platform, mu, st, &candidates, 2),
        SelectionRule::Lookahead(depth) => {
            assert!(depth >= 1, "lookahead depth must be at least 1");
            lookahead(platform, mu, st, &candidates, depth)
        }
    }
}

/// Exhaustive depth-`d` lookahead: evaluate every ordered sequence of `d`
/// candidate selections by the global ratio at the sequence's end, and
/// return the best full sequence for commitment.
fn lookahead(
    platform: &Platform,
    mu: &[usize],
    st: &State,
    candidates: &[usize],
    depth: usize,
) -> Vec<usize> {
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut seq = Vec::with_capacity(depth);
    let mut tmp = State {
        completion_time: st.completion_time,
        ready: st.ready.clone(),
        nb_block: st.nb_block.clone(),
        total_work: st.total_work,
    };
    explore_sequences(platform, mu, &mut tmp, candidates, depth, &mut seq, &mut best);
    #[allow(clippy::expect_used, reason = "depth ≥ 1 over a non-empty candidate list explores a sequence")]
    let best = best.expect("at least one sequence");
    best.1
}

/// DFS over selection sequences; `tmp` is mutated and restored around
/// every branch (cheaper than cloning the whole state at each node).
fn explore_sequences(
    platform: &Platform,
    mu: &[usize],
    tmp: &mut State,
    candidates: &[usize],
    depth: usize,
    seq: &mut Vec<usize>,
    best: &mut Option<(f64, Vec<usize>)>,
) {
    if depth == 0 {
        let ratio = tmp.total_work / tmp.completion_time.max(f64::MIN_POSITIVE);
        if best.as_ref().is_none_or(|(r, _)| ratio > *r) {
            *best = Some((ratio, seq.clone()));
        }
        return;
    }
    for &i in candidates {
        // Save the touched parts of the state.
        let saved_completion = tmp.completion_time;
        let saved_ready = tmp.ready[i];
        let saved_nb = tmp.nb_block[i];
        let saved_work = tmp.total_work;
        tmp.commit(platform, mu, i);
        seq.push(i);
        explore_sequences(platform, mu, tmp, candidates, depth - 1, seq, best);
        seq.pop();
        tmp.completion_time = saved_completion;
        tmp.ready[i] = saved_ready;
        tmp.nb_block[i] = saved_nb;
        tmp.total_work = saved_work;
    }
}

fn global_ratio(platform: &Platform, mu: &[usize], st: &State, i: usize) -> f64 {
    (st.total_work + (mu[i] * mu[i]) as f64) / st.completion_if(platform, mu, i)
}

fn local_ratio(platform: &Platform, mu: &[usize], st: &State, i: usize) -> f64 {
    let elapsed = st.completion_if(platform, mu, i) - st.completion_time;
    (mu[i] * mu[i]) as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_platform::WorkerParams;

    /// Table 2: c = (2, 3, 5), w = (2, 3, 1), µ = (6, 18, 10).
    fn table2() -> (Platform, Vec<usize>) {
        let pf = Platform::new(vec![
            WorkerParams::new(2.0, 2.0, 60),
            WorkerParams::new(3.0, 3.0, 396),
            WorkerParams::new(5.0, 1.0, 140),
        ])
        .unwrap();
        (pf, vec![6, 18, 10])
    }

    #[test]
    fn algorithm3_worked_example_first_steps() {
        // Section 6.2.1 walks the first three selections: P2, then P1,
        // then P3, with exact intermediate values.
        let (pf, mu) = table2();
        let mut st = State::new(3);

        // Step 1 ratios: 1.5, 3, 1 -> P2.
        assert!((global_ratio(&pf, &mu, &st, 0) - 1.5).abs() < 1e-12);
        assert!((global_ratio(&pf, &mu, &st, 1) - 3.0).abs() < 1e-12);
        assert!((global_ratio(&pf, &mu, &st, 2) - 1.0).abs() < 1e-12);
        let s1 = st.commit(&pf, &mu, 1);
        assert_eq!(s1.total_work, 324.0);
        assert_eq!(s1.completion_time, 108.0);
        assert_eq!(s1.ready, 1080.0);
        assert_eq!(st.nb_block[1], 36.0);

        // Step 2 ratios: 2.71…, 0.6, 2.03… -> P1.
        assert!((global_ratio(&pf, &mu, &st, 0) - 360.0 / 132.0).abs() < 1e-12);
        assert!((global_ratio(&pf, &mu, &st, 1) - 648.0 / 1080.0).abs() < 1e-12);
        assert!((global_ratio(&pf, &mu, &st, 2) - 424.0 / 208.0).abs() < 1e-12);
        let s2 = st.commit(&pf, &mu, 0);
        assert_eq!(s2.total_work, 360.0);
        assert_eq!(s2.completion_time, 132.0);
        assert_eq!(s2.ready, 204.0);
        assert_eq!(st.nb_block[0], 12.0);

        // Step 3 selects P3 per the paper.
        let best = select(&pf, &mu, &st, SelectionRule::Global)[0];
        assert_eq!(best, 2);
    }

    #[test]
    fn global_asymptotic_ratio_matches_paper() {
        // "The asymptotic value of ratio is 1.17".
        let (pf, mu) = table2();
        let r = asymptotic_ratio(&pf, &mu, SelectionRule::Global, 2_000_000);
        assert!((r - 1.17).abs() < 0.02, "global ratio = {r}");
    }

    #[test]
    fn local_asymptotic_ratio_matches_paper() {
        // "The local selection algorithm achieves an asymptotic ratio of
        // computation per communication of 1.21."
        let (pf, mu) = table2();
        let r = asymptotic_ratio(&pf, &mu, SelectionRule::Local, 2_000_000);
        assert!((r - 1.21).abs() < 0.02, "local ratio = {r}");
    }

    #[test]
    fn two_step_lookahead_matches_paper() {
        // "The two-step ahead strategy achieves a ratio 1.30."
        let (pf, mu) = table2();
        let r = asymptotic_ratio(&pf, &mu, SelectionRule::TwoStepLookahead, 2_000_000);
        assert!((r - 1.30).abs() < 0.03, "lookahead ratio = {r}");
    }

    #[test]
    fn ratios_are_below_steady_state_bound() {
        // The steady-state 1.39 upper-bounds every realizable selection.
        let (pf, mu) = table2();
        for rule in [
            SelectionRule::Global,
            SelectionRule::Local,
            SelectionRule::TwoStepLookahead,
        ] {
            let r = asymptotic_ratio(&pf, &mu, rule, 500_000);
            assert!(r <= 1.39 + 1e-6, "{rule:?} ratio {r} exceeds steady state");
        }
    }

    #[test]
    fn lookahead_one_equals_global() {
        let (pf, mu) = table2();
        let g = asymptotic_ratio(&pf, &mu, SelectionRule::Global, 300_000);
        let l1 = asymptotic_ratio(&pf, &mu, SelectionRule::Lookahead(1), 300_000);
        assert!((g - l1).abs() < 1e-9, "global {g} vs lookahead(1) {l1}");
    }

    #[test]
    fn lookahead_two_equals_two_step() {
        let (pf, mu) = table2();
        let two = asymptotic_ratio(&pf, &mu, SelectionRule::TwoStepLookahead, 300_000);
        let l2 = asymptotic_ratio(&pf, &mu, SelectionRule::Lookahead(2), 300_000);
        assert!((two - l2).abs() < 1e-9, "two-step {two} vs lookahead(2) {l2}");
    }

    #[test]
    fn lookahead_ablation_bounded_but_not_monotone() {
        // The ablation the paper hints at ("the only price to pay is an
        // increase in the cost of the selection algorithm"): on Table 2,
        // depth 2 and 3 clearly beat the greedy (1.17 → 1.28 → 1.31), and
        // no depth exceeds the 1.39 steady-state bound. Interestingly the
        // improvement is NOT monotone (depth 4 commits whole batches and
        // can lock in myopic sequences, dropping to ≈ 1.20) — a caveat the
        // paper's two-step suggestion does not mention.
        let (pf, mu) = table2();
        let ratios: Vec<f64> = (1..=4)
            .map(|d| asymptotic_ratio(&pf, &mu, SelectionRule::Lookahead(d), 300_000))
            .collect();
        for (d, r) in ratios.iter().enumerate() {
            assert!(*r <= 1.39 + 1e-6, "depth {}: {r} above steady state", d + 1);
        }
        assert!(ratios[1] > ratios[0] + 0.05, "depth 2 should clearly beat greedy");
        assert!(ratios[2] > ratios[1], "depth 3 should beat depth 2 here");
        assert!(ratios[3] < ratios[2], "depth 4 regression documents non-monotonicity");
    }

    #[test]
    fn termination_fills_requested_columns() {
        let (pf, mu) = table2();
        let trace = run_selection_with_mu(&pf, &mu, SelectionRule::Global, 36, 36, 4);
        assert!(trace.columns_filled >= 36);
        assert!(!trace.steps.is_empty());
        let total: usize = trace.selections_per_worker.iter().sum();
        assert_eq!(total, trace.steps.len());
    }

    #[test]
    fn homogeneous_platform_spreads_selections() {
        // On a homogeneous platform every objective is symmetric; the
        // argmax tie-breaks to the first worker, then its ready time makes
        // the next worker strictly better, and so on.
        let pf = Platform::homogeneous(3, 1.0, 4.0, 60).unwrap();
        let mu = vec![6, 6, 6];
        let trace = run_selection_with_mu(&pf, &mu, SelectionRule::Global, 12, 12, 4);
        assert!(trace.selections_per_worker.iter().all(|&n| n > 0));
    }

    #[test]
    fn default_mu_derivation_is_used() {
        let (pf, _) = table2();
        let trace = run_selection(&pf, SelectionRule::Global, 18, 18, 2);
        assert!(trace.columns_filled >= 18);
    }
}
