//! Seeded random fills for test and benchmark matrices.

use crate::block::Block;
use crate::matrix::BlockMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fill a fresh `rows × cols` block matrix with uniform coefficients in
/// `[-1, 1]`, deterministically from `seed`.
pub fn random_matrix(rows: usize, cols: usize, q: usize, seed: u64) -> BlockMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    BlockMatrix::from_fn(rows, cols, q, |_, _| random_block_with(&mut rng, q))
}

/// One random block in `[-1, 1]` from an existing RNG.
pub fn random_block_with(rng: &mut StdRng, q: usize) -> Block {
    Block::from_vec(q, (0..q * q).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

/// One random block in `[-1, 1]` from a seed.
pub fn random_block(q: usize, seed: u64) -> Block {
    let mut rng = StdRng::seed_from_u64(seed);
    random_block_with(&mut rng, q)
}

/// A diagonally dominant random square block matrix of `n × n` blocks —
/// guaranteed to admit LU factorization without pivoting (every leading
/// principal minor is nonsingular), which matches the paper's Section 7
/// kernel (it never discusses pivoting across workers).
pub fn random_diagonally_dominant(n: usize, q: usize, seed: u64) -> BlockMatrix {
    let mut m = random_matrix(n, n, q, seed);
    let dim = n * q;
    // Row sums are bounded by `dim` in absolute value; adding `dim + 1` on
    // the diagonal makes the matrix strictly diagonally dominant.
    let boost = dim as f64 + 1.0;
    for d in 0..dim {
        let v = m.get(d, d);
        m.set(d, d, v + boost);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The seed stream `perf/src/workloads.rs` draws matrix seeds from
    /// (SplitMix64 over `--seed`), so the checks below see the matrices
    /// the benchmark multiplies and factors.
    struct PerfSeeds(u64);

    impl PerfSeeds {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// perf's default `--seed`, and the one the A/B tables in CHANGES.md use.
    const PERF_SEEDS: [u64; 2] = [2007, 1];

    /// Coefficient bit patterns in the order the generator drew them.
    fn stream(m: &BlockMatrix) -> Vec<u64> {
        m.iter_blocks().flat_map(|(_, _, b)| b.as_slice()).map(|x| x.to_bits()).collect()
    }

    /// The shortest `p < len` with `xs[i] == xs[i + p]` throughout, if any.
    fn period(xs: &[u64]) -> Option<usize> {
        (1..xs.len()).find(|&p| xs[p] == xs[0] && xs[..xs.len() - p] == xs[p..])
    }

    fn assert_no_equal_rows_or_columns(m: &BlockMatrix, what: &str) {
        let (rows, cols) = (m.rows() * m.q(), m.cols() * m.q());
        let row_bits: HashSet<Vec<u64>> =
            (0..rows).map(|i| (0..cols).map(|j| m.get(i, j).to_bits()).collect()).collect();
        assert_eq!(row_bits.len(), rows, "{what}: two bit-equal rows");
        let col_bits: HashSet<Vec<u64>> =
            (0..cols).map(|j| (0..rows).map(|i| m.get(i, j).to_bits()).collect()).collect();
        assert_eq!(col_bits.len(), cols, "{what}: two bit-equal columns");
    }

    /// The failure Dongarra & Langou document for the Linpack generator
    /// (PAPERS.md): a stream period shorter than the matrix repeats
    /// columns, and the "random" benchmark input is singular or trivially
    /// structured. Checked at the sizes `perf` runs.
    #[test]
    fn benchmark_sized_matrices_repeat_no_row_column_or_stream_period() {
        assert_eq!(period(&[7, 8, 9, 7, 8]), Some(3));
        assert_eq!(period(&[7, 8, 9, 7, 9]), None);
        for seed in PERF_SEEDS {
            // holm_q320_chan: A, B, C of 4 × 4 blocks of q = 320.
            let mut seeds = PerfSeeds(seed);
            for name in ["A", "B", "C"] {
                let m = random_matrix(4, 4, 320, seeds.next());
                let what = format!("seed {seed}, 1280² {name}");
                assert_eq!(period(&stream(&m)), None, "{what}: stream repeats inside the matrix");
                assert_no_equal_rows_or_columns(&m, &what);
            }
            // lu_q80_tcp: 12 × 12 blocks of q = 80; the dominant diagonal
            // is added to the same stream.
            let lu_seed = PerfSeeds(seed).next();
            let what = format!("seed {seed}, 960² LU input");
            assert_eq!(period(&stream(&random_matrix(12, 12, 80, lu_seed))), None, "{what}");
            assert_no_equal_rows_or_columns(&random_diagonally_dominant(12, 80, lu_seed), &what);
        }
    }

    /// serve_mix_tcp's pool: 64 jobs of three matrices each, three jobs
    /// of one q = 20 block per job of 4 × 4 blocks of q = 40. Two equal
    /// matrices would let a result delivered to the wrong job pass the
    /// benchmark's bit-identity check.
    #[test]
    fn serving_pool_matrices_are_pairwise_distinct() {
        for seed in PERF_SEEDS {
            let mut seeds = PerfSeeds(seed);
            let pool: Vec<Vec<u64>> = (0..64 * 3)
                .map(|i| {
                    let (n, q) = if (i / 3) % 4 == 3 { (4, 40) } else { (1, 20) };
                    stream(&random_matrix(n, n, q, seeds.next()))
                })
                .collect();
            let distinct: HashSet<&Vec<u64>> = pool.iter().collect();
            assert_eq!(distinct.len(), pool.len(), "seed {seed}: two pool matrices are bit-equal");
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = random_matrix(3, 2, 8, 99);
        let b = random_matrix(3, 2, 8, 99);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c = random_matrix(3, 2, 8, 100);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn coefficients_in_range() {
        let m = random_matrix(2, 2, 16, 1);
        assert!(m.max_abs() <= 1.0);
    }

    #[test]
    fn diagonally_dominant_really_is() {
        let n = 2;
        let q = 6;
        let m = random_diagonally_dominant(n, q, 5);
        let dim = n * q;
        for i in 0..dim {
            let diag = m.get(i, i).abs();
            let off: f64 = (0..dim).filter(|&j| j != i).map(|j| m.get(i, j).abs()).sum();
            assert!(diag > off, "row {i} not dominant: {diag} <= {off}");
        }
    }
}
