//! Homogeneous resource selection (Section 5).
//!
//! With identical workers `(c, w, m)` and the overlapped maximum re-use
//! layout (`µ² + 4µ ≤ m`), one full round per worker exchanges `2µ²` C
//! blocks plus `2µt` A/B blocks for `µ²t` updates. Saturating the master's
//! port requires at most
//!
//! ```text
//! P = ceil(µ²tw / 2µtc) = ceil(µw / 2c)
//! ```
//!
//! workers (neglecting the C I/O, as the paper does — see "Impact of the
//! start-up overhead"). If `C` is too small to give each of those workers
//! `µ²` blocks per round, a smaller square side `ν` and worker count
//! `Q = ceil(νw/2c)` are used instead, chosen as the largest `ν` with
//! `ceil(νw/2c)·ν² ≤ r·s`.
//!
//! **One refinement.** When that choice enrolls a single worker (the
//! search's `Q = 1`, or the fallback on a one-worker platform) and the
//! whole grid fits its memory (`max(r, s) ≤ µ`), the chunk side becomes
//! `max(r, s)`: C ships as one chunk. Every A and B block then crosses
//! the port once, not once per chunk column (A) or chunk row (B), and C
//! travels in fewer, wider frames. It never gives up parallelism: a lone
//! worker computes the same updates either way, and the full-µ regime,
//! `Q ≥ 2` and grids wider than `µ` keep §5's choice exactly. On 4 × 4 at
//! `c = w = 1`, `µ = 6` (§5: four 2 × 2 chunks, 96 blocks), the one chunk
//! moves 64 blocks and replays at makespan 104 against 112. A sweep of
//! the replayed [`crate::schedule::Schedule::algorithm1`] over
//! `w/c ∈ {1/8, 1/4, 1/2, 2/3, 1, 2, 4, 8}`, `m ∈ {5, 12, 21, 32, 60, 140,
//! 396}`, `p ≤ 8`, `r, s ≤ 20` and `t ∈ {1, 2, 5, 12}` found the rule
//! strictly faster in all 56 564 cases where it fires, never moving more
//! blocks. The looser `ν = min(µ, max(r, s))`, which also fires on grids
//! wider than `µ`, loses on ragged tilings: a 2 × 4 grid at `µ = 3`
//! becomes a 2 × 3 and a 2 × 1 chunk, replayed at 131 against §5's 120
//! (`c = w = 1`, `t = 12`).

use crate::layout::MemoryLayout;
use mwp_platform::WorkerParams;

/// The outcome of homogeneous resource selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomogeneousSelection {
    /// Number of enrolled workers.
    pub workers: usize,
    /// Square side (in blocks) of the C chunk each enrolled worker holds —
    /// the paper's `µ` for large matrices, `ν` for small ones.
    pub chunk_side: usize,
    /// True if the matrix was large enough for the full-µ regime.
    pub full_mu_regime: bool,
}

/// The ideal worker count `ceil(µw/2c)` before clamping to `p`.
pub fn ideal_worker_count(mu: usize, w: f64, c: f64) -> usize {
    // The small epsilon guards against float slop turning an exact
    // integer ratio into its successor (5.0000000000000009 -> 6).
    (((mu as f64 * w) / (2.0 * c)) - 1e-9).ceil().max(1.0) as usize
}

/// Perform the Section 5 selection for a homogeneous platform of `p`
/// workers with parameters `params`, on an `r × s` C grid, refined so
/// that a single enrolled worker whose memory holds the whole grid gets
/// it as one chunk.
///
/// Returns the enrolled worker count and the chunk side to use.
pub fn select_homogeneous(
    params: &WorkerParams,
    p: usize,
    r: usize,
    s: usize,
) -> HomogeneousSelection {
    assert!(p > 0, "need at least one worker");
    let mu = MemoryLayout::MaxReuseOverlapped.mu(params.m);
    assert!(mu > 0, "worker memory too small for even µ = 1");
    let sel = section5(params, mu, p, r, s);
    let side = r.max(s);
    if sel.workers == 1 && side <= mu {
        return HomogeneousSelection { chunk_side: side, ..sel };
    }
    sel
}

/// Section 5's choice as the paper states it, before the one-chunk
/// refinement of [`select_homogeneous`].
fn section5(params: &WorkerParams, mu: usize, p: usize, r: usize, s: usize) -> HomogeneousSelection {
    let rs = (r as u64) * (s as u64);

    // Large-matrix regime: every enrolled worker can be kept on full µ²
    // chunks.
    let p_ideal = ideal_worker_count(mu, params.w, params.c);
    let p_full = p_ideal.min(p);
    if rs >= (p_full as u64) * (mu as u64) * (mu as u64) {
        return HomogeneousSelection {
            workers: p_full.max(1),
            chunk_side: mu,
            full_mu_regime: true,
        };
    }

    // Small-matrix regime: largest ν with ceil(νw/2c)·ν² ≤ r·s.
    let mut best: Option<(usize, usize)> = None; // (ν, Q)
    for nu in 1..=mu {
        let q_needed = ideal_worker_count(nu, params.w, params.c).max(1);
        if (q_needed as u64) * (nu as u64) * (nu as u64) <= rs {
            best = Some((nu, q_needed));
        }
    }
    match best {
        Some((nu, q)) if q <= p => HomogeneousSelection {
            workers: q,
            chunk_side: nu,
            full_mu_regime: false,
        },
        _ => {
            // Platform smaller than desired: enroll everyone with the
            // largest ν that both fits the matrix (ν² ≤ rs/p) and does not
            // starve the port (ν ≤ 2cp/w).
            let by_matrix = ((rs as f64 / p as f64).sqrt().floor() as usize).max(1);
            let by_port = ((2.0 * params.c * p as f64) / params.w).floor() as usize;
            let nu = by_matrix.min(by_port.max(1)).min(mu).max(1);
            HomogeneousSelection {
                workers: p,
                chunk_side: nu,
                full_mu_regime: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Replay, Schedule};
    use mwp_blockmat::Partition;
    use mwp_platform::Platform;
    use mwp_sim::Simulator;
    use proptest::prelude::*;

    #[test]
    fn paper_worked_example() {
        // Section 5: c = 2, w = 4.5, µ = 4 -> P = ceil(4·4.5/4) = 5.
        assert_eq!(ideal_worker_count(4, 4.5, 2.0), 5);
    }

    #[test]
    fn fig13_worker_counts_match_paper() {
        // The calibration target: HoLM enrolls 2 workers at 132 MB and 4
        // at 512 MB, as the paper reports for Figure 13.
        use mwp_platform::{CostModel, HardwareProfile};
        let cm = CostModel::from_profile(80, &HardwareProfile::tennessee_2006());
        for (mb, p) in [(132, 2), (512, 4)] {
            let mu = MemoryLayout::MaxReuseOverlapped.mu(cm.buffers_for_memory(mb * 1024 * 1024));
            assert_eq!(ideal_worker_count(mu, cm.w(), cm.c()), p, "{mb} MB: µ = {mu}");
        }
    }

    #[test]
    fn large_matrix_uses_full_mu() {
        // µ² + 4µ ≤ 32 -> µ = 4. P_ideal = ceil(4·4.5/4) = 5, p = 8.
        let params = WorkerParams::new(2.0, 4.5, 32);
        let sel = select_homogeneous(&params, 8, 100, 100);
        assert_eq!(sel.chunk_side, 4);
        assert_eq!(sel.workers, 5);
        assert!(sel.full_mu_regime);
    }

    #[test]
    fn clamped_by_available_workers() {
        let params = WorkerParams::new(2.0, 4.5, 32);
        let sel = select_homogeneous(&params, 3, 100, 100);
        assert_eq!(sel.workers, 3);
        assert!(sel.full_mu_regime);
    }

    #[test]
    fn small_matrix_shrinks_chunk() {
        // Same params, but C is only 3×3 blocks: cannot host 5 workers at
        // µ = 4 (needs 80 blocks).
        let params = WorkerParams::new(2.0, 4.5, 32);
        let sel = select_homogeneous(&params, 8, 3, 3);
        assert!(!sel.full_mu_regime);
        assert!(sel.chunk_side <= 3);
        // Invariant from the paper: Q·ν² ≤ r·s.
        assert!(sel.workers as u64 * (sel.chunk_side as u64).pow(2) <= 9);
        assert!(sel.workers >= 1);
    }

    #[test]
    fn tiny_platform_enrolls_everyone() {
        // One worker available: always enrolled. §5's fallback gives it
        // ν = 1 (the port bound 2c/w < 1); the 2 × 2 grid fits its µ = 4,
        // so it gets the grid as one chunk.
        let params = WorkerParams::new(2.0, 4.5, 32);
        assert_eq!(section5(&params, 4, 1, 2, 2).chunk_side, 1);
        let sel = select_homogeneous(&params, 1, 2, 2);
        assert_eq!((sel.workers, sel.chunk_side), (1, 2));
    }

    #[test]
    fn one_worker_ships_the_serving_shapes_as_one_chunk() {
        // `serve_mix_tcp`'s platform (c = w = 1, m = 60, so µ = 6): §5's
        // search picks ν = 2 on Q = 1 worker for each of these grids.
        let params = WorkerParams::new(1.0, 1.0, 60);
        for (r, s) in [(4, 4), (3, 3), (2, 5)] {
            assert_eq!(section5(&params, 6, 2, r, s).chunk_side, 2, "{r} × {s}");
            let sel = select_homogeneous(&params, 2, r, s);
            assert_eq!((sel.workers, sel.chunk_side), (1, r.max(s)), "{r} × {s}");
            assert!(!sel.full_mu_regime);
        }
        // A 5-wide chunk on a 2-row grid is one 2 × 5 chunk.
        let chunks = crate::chunks::tile(&Partition::from_blocks(2, 5, 4, 4), 5);
        assert_eq!(chunks, [crate::chunks::Chunk { i0: 0, j0: 0, height: 2, width: 5 }]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Where the refinement fires, the replayed Algorithm 1 finishes
        /// strictly sooner and moves no more blocks than at §5's choice;
        /// elsewhere the selection is §5's.
        #[test]
        fn one_chunk_refinement_replays_strictly_faster(
            (c, w) in (1u32..9, 1u32..9),
            m in 0usize..6,
            p in 1usize..5,
            (r, s) in (1usize..13, 1usize..13),
            t in 0usize..4,
        ) {
            let (c, w, m, t) = (c as f64, w as f64, [5, 12, 21, 32, 60, 140][m], [1, 2, 5, 12][t]);
            let params = WorkerParams::new(c, w, m);
            let mu = MemoryLayout::MaxReuseOverlapped.mu(m);
            let (sel, paper) = (select_homogeneous(&params, p, r, s), section5(&params, mu, p, r, s));
            if sel == paper {
                return Ok(());
            }
            prop_assert_eq!((sel.workers, paper.workers, sel.chunk_side), (1, 1, r.max(s)));
            prop_assert!(r.max(s) <= mu);
            let platform = Platform::homogeneous(p, c, w, m).unwrap();
            let problem = Partition::from_blocks(r, s, t, 4);
            let replay = |sel: HomogeneousSelection| {
                let schedule = Schedule::algorithm1(&problem, sel.chunk_side, sel.workers, 1);
                let engine = Simulator::new(platform.clone()).without_trace();
                let report = engine.run(&mut Replay::new(&schedule)).unwrap();
                (report.makespan, report.blocks_sent + report.blocks_received)
            };
            let ((fast, moved), (slow, paper_moved)) = (replay(sel), replay(paper));
            prop_assert!(fast < slow, "{sel:?} replays in {fast:?}, §5's {paper:?} in {slow:?}");
            prop_assert!(moved <= paper_moved, "{moved} blocks moved against §5's {paper_moved}");
        }
    }

    #[test]
    fn compute_bound_platform_enrolls_more() {
        // w/c = 8: each worker is slow relative to its link, so many are
        // needed to drain the port's feed.
        let params = WorkerParams::new(1.0, 8.0, 32);
        let sel = select_homogeneous(&params, 64, 1000, 1000);
        assert_eq!(sel.chunk_side, 4);
        assert_eq!(sel.workers, 16); // ceil(4·8/2) = 16
    }

    #[test]
    fn comm_bound_platform_enrolls_one() {
        // w << c: a single worker absorbs everything the port can feed.
        let params = WorkerParams::new(10.0, 0.1, 32);
        let sel = select_homogeneous(&params, 8, 100, 100);
        assert_eq!(sel.workers, 1);
    }
}
