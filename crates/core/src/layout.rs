//! Memory layouts: how a worker's `m` block buffers are split among the
//! three matrices.
//!
//! The paper's central practical insight is that the split matters
//! enormously. Dedicating `µ²` buffers to a square of `C` blocks, `µ` to a
//! row of `B` and a single one to `A` (re-used `µ` times per step) drives
//! the communication-to-computation ratio down to `2/µ + 2/t ≈ 2/√m`,
//! a factor `√3` below Toledo's equal-thirds layout.

/// The memory-splitting policies implemented by the algorithm suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryLayout {
    /// Section 4: `1 + µ + µ² ≤ m` — one A buffer, µ B buffers, µ² C
    /// buffers. Minimal-communication layout without overlap buffers.
    MaxReuse,
    /// Section 5: `µ² + 4µ ≤ m` — adds µ A and µ B prefetch buffers so the
    /// next step's data arrives while the current step computes.
    MaxReuseOverlapped,
    /// DDOML's variant: `µ² + 2µ ≤ m` — working A/B buffers only; the
    /// worker never receives and computes at the same time, so no prefetch
    /// buffers are needed and µ can be slightly larger.
    MaxReuseNoPrefetch,
    /// Toledo's BMM: memory in equal thirds, one square of each matrix,
    /// side `µ = floor(sqrt(m/3))` blocks.
    ToledoThirds,
    /// OBMM: equal fifths — like thirds plus one spare square of A and one
    /// of B for overlap, side `µ = floor(sqrt(m/5))` blocks.
    ToledoFifths,
}

impl MemoryLayout {
    /// Largest `µ` this layout admits in `m` block buffers (0 when even
    /// `µ = 1` does not fit).
    pub fn mu(self, m: usize) -> usize {
        match self {
            MemoryLayout::MaxReuse => largest_mu(m, |mu| 1 + mu + mu * mu),
            MemoryLayout::MaxReuseOverlapped => largest_mu(m, |mu| mu * mu + 4 * mu),
            MemoryLayout::MaxReuseNoPrefetch => largest_mu(m, |mu| mu * mu + 2 * mu),
            MemoryLayout::ToledoThirds => int_sqrt(m / 3),
            MemoryLayout::ToledoFifths => int_sqrt(m / 5),
        }
    }

    /// Buffers actually used at the chosen µ.
    pub fn buffers_used(self, mu: usize) -> usize {
        match self {
            MemoryLayout::MaxReuse => 1 + mu + mu * mu,
            MemoryLayout::MaxReuseOverlapped => mu * mu + 4 * mu,
            MemoryLayout::MaxReuseNoPrefetch => mu * mu + 2 * mu,
            MemoryLayout::ToledoThirds => 3 * mu * mu,
            MemoryLayout::ToledoFifths => 5 * mu * mu,
        }
    }

    /// True if the worker following this layout can receive the next
    /// step's data while computing (extra buffers exist for prefetch).
    pub fn overlaps(self) -> bool {
        matches!(
            self,
            MemoryLayout::MaxReuseOverlapped | MemoryLayout::ToledoFifths
        )
    }
}

/// Largest `µ ≥ 0` such that `need(µ) ≤ m` for a monotone `need`.
fn largest_mu(m: usize, need: impl Fn(usize) -> usize) -> usize {
    if need(1) > m {
        return 0;
    }
    // Exponential + binary search keeps this O(log µ) for huge memories.
    let mut hi = 1usize;
    while need(hi * 2) <= m {
        hi *= 2;
    }
    let mut lo = hi; // need(lo) ≤ m
    hi *= 2; // need(hi) > m
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if need(mid) <= m {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Integer square root (floor).
fn int_sqrt(x: usize) -> usize {
    if x == 0 {
        return 0;
    }
    let mut r = (x as f64).sqrt() as usize;
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    while r * r > x {
        r -= 1;
    }
    r
}

/// A concrete memory plan for one worker: the layout, its µ, and the
/// buffer budget it was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPlan {
    /// The splitting policy.
    pub layout: MemoryLayout,
    /// Chosen µ.
    pub mu: usize,
    /// The worker's total buffer count `m`.
    pub m: usize,
}

impl MemoryPlan {
    /// Derive the plan for a worker with `m` buffers under `layout`.
    pub fn derive(layout: MemoryLayout, m: usize) -> Self {
        MemoryPlan { layout, mu: layout.mu(m), m }
    }

    /// Buffers left unused by the plan.
    pub fn slack(&self) -> usize {
        self.m - self.layout.buffers_used(self.mu)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_figure5_example() {
        // m = 21 -> µ = 4 for the Section 4 layout (1 + 4 + 16 = 21).
        assert_eq!(MemoryLayout::MaxReuse.mu(21), 4);
        assert_eq!(MemoryLayout::MaxReuse.buffers_used(4), 21);
    }

    #[test]
    fn overlapped_layout_examples() {
        // µ² + 4µ ≤ m; Table 2 has (m=60 -> 6), (396 -> 18), (140 -> 10).
        assert_eq!(MemoryLayout::MaxReuseOverlapped.mu(60), 6);
        assert_eq!(MemoryLayout::MaxReuseOverlapped.mu(396), 18);
        assert_eq!(MemoryLayout::MaxReuseOverlapped.mu(140), 10);
    }

    #[test]
    fn no_prefetch_allows_larger_mu() {
        for m in [12, 60, 140, 396, 1000] {
            assert!(
                MemoryLayout::MaxReuseNoPrefetch.mu(m)
                    >= MemoryLayout::MaxReuseOverlapped.mu(m)
            );
        }
        // µ² + 2µ ≤ 15 -> µ = 3 (9 + 6); overlapped gives 2 (4 + 8 ≤ 15).
        assert_eq!(MemoryLayout::MaxReuseNoPrefetch.mu(15), 3);
        assert_eq!(MemoryLayout::MaxReuseOverlapped.mu(15), 2);
    }

    #[test]
    fn toledo_layouts() {
        assert_eq!(MemoryLayout::ToledoThirds.mu(300), 10); // sqrt(100)
        assert_eq!(MemoryLayout::ToledoThirds.mu(299), 9);
        assert_eq!(MemoryLayout::ToledoFifths.mu(500), 10);
        assert_eq!(MemoryLayout::ToledoFifths.mu(499), 9);
    }

    #[test]
    fn max_reuse_beats_toledo_on_mu() {
        // The whole point of the paper's layout: for the same memory, the
        // resident C square is larger than Toledo's (µ vs sqrt(m/3)).
        for m in [50, 132, 512, 2048, 10_000] {
            assert!(
                MemoryLayout::MaxReuse.mu(m) > MemoryLayout::ToledoThirds.mu(m),
                "m = {m}"
            );
        }
    }

    #[test]
    fn tiny_memories_degenerate_to_zero() {
        assert_eq!(MemoryLayout::MaxReuse.mu(2), 0);
        assert_eq!(MemoryLayout::MaxReuseOverlapped.mu(4), 0);
        assert_eq!(MemoryLayout::ToledoThirds.mu(2), 0);
        assert_eq!(MemoryPlan::derive(MemoryLayout::MaxReuse, 2).mu, 0);
    }

    #[test]
    fn plan_slack_is_consistent() {
        let plan = MemoryPlan::derive(MemoryLayout::MaxReuseOverlapped, 100);
        // µ = 8 (64 + 32 = 96 ≤ 100).
        assert_eq!(plan.mu, 8);
        assert_eq!(plan.slack(), 4);
    }

    proptest! {
        #[test]
        fn prop_mu_maximal(m in 0usize..100_000) {
            for layout in [
                MemoryLayout::MaxReuse,
                MemoryLayout::MaxReuseOverlapped,
                MemoryLayout::MaxReuseNoPrefetch,
                MemoryLayout::ToledoThirds,
                MemoryLayout::ToledoFifths,
            ] {
                let mu = layout.mu(m);
                if mu > 0 {
                    prop_assert!(layout.buffers_used(mu) <= m);
                }
                prop_assert!(layout.buffers_used(mu + 1) > m);
            }
        }
    }
}
