//! Tiling the `C` matrix into per-worker chunks.
//!
//! Every algorithm in the suite assigns workers rectangular *chunks* of `C`
//! blocks (`µ × µ` in the interior; clamped at the bottom/right edges when
//! `r` or `s` is not divisible by `µ`). The paper assumes divisibility "for
//! the sake of simplicity"; we handle ragged edges so arbitrary problem
//! sizes run.

use mwp_blockmat::Partition;

/// One rectangular chunk of `C` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First block row.
    pub i0: usize,
    /// First block column.
    pub j0: usize,
    /// Height in blocks (`≤ µ`).
    pub height: usize,
    /// Width in blocks (`≤ µ`).
    pub width: usize,
}

impl Chunk {
    /// Number of C blocks in the chunk.
    pub fn blocks(&self) -> u64 {
        (self.height * self.width) as u64
    }

    /// Number of block updates needed to fully compute the chunk for a
    /// shared dimension of `t`.
    pub fn updates(&self, t: usize) -> u64 {
        self.blocks() * t as u64
    }

    /// Block rows covered (`i0 .. i0 + height`).
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.i0..self.i0 + self.height
    }

    /// Block columns covered.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.j0..self.j0 + self.width
    }
}

/// Tile an `r × s` C grid into chunks of side ≤ `mu`, in the paper's
/// traversal order: by column groups first (`j'` outer), then down the
/// rows (`i'` inner) — Algorithm 1 allocates "µ block columns of C to each
/// processor" and walks down them.
pub fn tile(problem: &Partition, mu: usize) -> Vec<Chunk> {
    assert!(mu > 0, "µ must be positive (worker memory too small?)");
    let mut out = Vec::new();
    let mut j0 = 0;
    while j0 < problem.s {
        let width = mu.min(problem.s - j0);
        let mut i0 = 0;
        while i0 < problem.r {
            let height = mu.min(problem.r - i0);
            out.push(Chunk { i0, j0, height, width });
            i0 += height;
        }
        j0 += width;
    }
    out
}

/// Algorithm 1's chunk order for `enrolled` workers: the [`tile`] chunks
/// regrouped into column bands of `enrolled` consecutive column-chunks,
/// walked row by row — so each round of `enrolled` chunks shares one
/// chunk row (its A columns) across the band. The one definition
/// [`crate::schedule::Schedule::algorithm1`] (the runtime, and the
/// simulator's HoLM and ORROML) and the simulator's demand-driven
/// algorithms both dispatch from.
pub fn algorithm1_order(problem: &Partition, mu: usize, enrolled: usize) -> Vec<Chunk> {
    let mut tiles = tile(problem, mu);
    let band = (mu * enrolled).max(1);
    tiles.sort_by_key(|c| (c.j0 / band, c.i0, c.j0));
    tiles
}

/// Tile with row-major order instead (used by the Toledo baselines, which
/// the paper describes without a specific order; row-major matches the
/// usual out-of-core presentation).
pub fn tile_row_major(problem: &Partition, mu: usize) -> Vec<Chunk> {
    assert!(mu > 0, "µ must be positive");
    let mut out = Vec::new();
    let mut i0 = 0;
    while i0 < problem.r {
        let height = mu.min(problem.r - i0);
        let mut j0 = 0;
        while j0 < problem.s {
            let width = mu.min(problem.s - j0);
            out.push(Chunk { i0, j0, height, width });
            j0 += width;
        }
        i0 += height;
    }
    out
}

/// Check that a set of chunks exactly covers the `r × s` grid with no
/// overlap (test/diagnostic helper).
pub fn covers_exactly(problem: &Partition, chunks: &[Chunk]) -> bool {
    let mut seen = vec![false; problem.r * problem.s];
    for ch in chunks {
        for i in ch.rows() {
            for j in ch.cols() {
                if i >= problem.r || j >= problem.s {
                    return false;
                }
                let idx = i * problem.s + j;
                if seen[idx] {
                    return false;
                }
                seen[idx] = true;
            }
        }
    }
    seen.into_iter().all(|b| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn problem(r: usize, s: usize) -> Partition {
        Partition::from_blocks(r, s, 7, 80)
    }

    #[test]
    fn exact_tiling_when_divisible() {
        let p = problem(6, 9);
        let chunks = tile(&p, 3);
        assert_eq!(chunks.len(), 6); // (6/3) * (9/3)
        assert!(chunks.iter().all(|c| c.height == 3 && c.width == 3));
        assert!(covers_exactly(&p, &chunks));
        // Column-group order: first chunk column j0=0 with i0=0 then 3.
        assert_eq!(chunks[0], Chunk { i0: 0, j0: 0, height: 3, width: 3 });
        assert_eq!(chunks[1], Chunk { i0: 3, j0: 0, height: 3, width: 3 });
        assert_eq!(chunks[2], Chunk { i0: 0, j0: 3, height: 3, width: 3 });
    }

    #[test]
    fn ragged_edges_clamped() {
        let p = problem(5, 7);
        let chunks = tile(&p, 3);
        assert!(covers_exactly(&p, &chunks));
        assert!(chunks.iter().any(|c| c.height == 2)); // bottom edge
        assert!(chunks.iter().any(|c| c.width == 1)); // right edge
    }

    #[test]
    fn row_major_differs_in_order_only() {
        let p = problem(4, 6);
        let a = tile(&p, 2);
        let mut b = tile_row_major(&p, 2);
        assert!(covers_exactly(&p, &b));
        assert_eq!(a.len(), b.len());
        // Same chunk set, different order.
        b.sort_by_key(|c| (c.j0, c.i0));
        let mut a2 = a.clone();
        a2.sort_by_key(|c| (c.j0, c.i0));
        assert_eq!(a2, b);
        assert_ne!(a, tile_row_major(&p, 2));
    }

    #[test]
    fn updates_account_t() {
        let c = Chunk { i0: 0, j0: 0, height: 2, width: 3 };
        assert_eq!(c.blocks(), 6);
        assert_eq!(c.updates(10), 60);
    }

    #[test]
    fn mu_larger_than_grid_yields_one_chunk() {
        let p = problem(3, 2);
        let chunks = tile(&p, 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], Chunk { i0: 0, j0: 0, height: 3, width: 2 });
    }

    proptest! {
        #[test]
        fn prop_tiling_covers(r in 1usize..20, s in 1usize..20, mu in 1usize..8) {
            let p = problem(r, s);
            prop_assert!(covers_exactly(&p, &tile(&p, mu)));
            prop_assert!(covers_exactly(&p, &tile_row_major(&p, mu)));
        }

        #[test]
        fn prop_update_totals(r in 1usize..15, s in 1usize..15, mu in 1usize..6) {
            let p = problem(r, s);
            let total: u64 = tile(&p, mu).iter().map(|c| c.updates(p.t)).sum();
            prop_assert_eq!(total, p.total_updates());
        }
    }
}
