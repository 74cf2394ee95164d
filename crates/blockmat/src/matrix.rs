//! A matrix stored as a grid of `q × q` blocks — the master's repository
//! view of `A`, `B` and `C`.

use crate::block::Block;
use std::fmt;

/// An `rows × cols` grid of [`Block`]s, all with the same side `q`.
///
/// Block `(i, j)` covers element rows `i·q .. (i+1)·q` and columns
/// `j·q .. (j+1)·q` of the underlying dense matrix.
#[derive(Clone, PartialEq)]
pub struct BlockMatrix {
    rows: usize,
    cols: usize,
    q: usize,
    blocks: Vec<Block>,
}

impl BlockMatrix {
    /// Zero matrix of `rows × cols` blocks of side `q`.
    pub fn zeros(rows: usize, cols: usize, q: usize) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        BlockMatrix {
            rows,
            cols,
            q,
            blocks: vec![Block::zeros(q); rows * cols],
        }
    }

    /// Block-identity matrix (identity blocks on the diagonal) — this is the
    /// true dense identity when the matrix is square.
    pub fn identity(n: usize, q: usize) -> Self {
        let mut m = BlockMatrix::zeros(n, n, q);
        for i in 0..n {
            *m.block_mut(i, i) = Block::identity(q);
        }
        m
    }

    /// Build from a closure producing each block.
    pub fn from_fn(rows: usize, cols: usize, q: usize, mut f: impl FnMut(usize, usize) -> Block) -> Self {
        let mut blocks = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let b = f(i, j);
                assert_eq!(b.q(), q, "block ({i},{j}) has wrong side");
                blocks.push(b);
            }
        }
        BlockMatrix { rows, cols, q, blocks }
    }

    /// Number of block rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of block columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block side `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Element dimensions `(rows·q, cols·q)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows * self.q, self.cols * self.q)
    }

    /// Shared reference to block `(i, j)`.
    #[inline]
    pub fn block(&self, i: usize, j: usize) -> &Block {
        assert!(i < self.rows && j < self.cols, "block index out of range");
        &self.blocks[i * self.cols + j]
    }

    /// Mutable reference to block `(i, j)`.
    #[inline]
    pub fn block_mut(&mut self, i: usize, j: usize) -> &mut Block {
        assert!(i < self.rows && j < self.cols, "block index out of range");
        &mut self.blocks[i * self.cols + j]
    }

    /// Read a single element by global `(row, col)` coordinates.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let b = self.block(row / self.q, col / self.q);
        b[(row % self.q, col % self.q)]
    }

    /// Write a single element by global `(row, col)` coordinates.
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        let q = self.q;
        let b = self.block_mut(row / q, col / q);
        b[(row % q, col % q)] = v;
    }

    /// Iterate blocks in row-major `(i, j, &block)` order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(move |(k, b)| (k / self.cols, k % self.cols, b))
    }

    /// Maximum absolute difference over all coefficients against `other`.
    pub fn max_abs_diff(&self, other: &BlockMatrix) -> f64 {
        assert_eq!((self.rows, self.cols, self.q), (other.rows, other.cols, other.q));
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .fold(0.0_f64, |m, (a, b)| m.max(a.max_abs_diff(b)))
    }

    /// Maximum absolute coefficient.
    pub fn max_abs(&self) -> f64 {
        self.blocks.iter().fold(0.0_f64, |m, b| m.max(b.max_abs()))
    }

    /// Total payload bytes of the whole matrix.
    pub fn byte_len(&self) -> usize {
        self.blocks.len() * self.q * self.q * 8
    }
}

impl fmt::Debug for BlockMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BlockMatrix({}x{} blocks of q={}, |x|max={:.3e})",
            self.rows,
            self.cols,
            self.q,
            self.max_abs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_addressing_crosses_block_boundaries() {
        let mut m = BlockMatrix::zeros(2, 3, 4);
        m.set(5, 11, 42.0); // block (1, 2), offset (1, 3)
        assert_eq!(m.get(5, 11), 42.0);
        assert_eq!(m.block(1, 2)[(1, 3)], 42.0);
        assert_eq!(m.dims(), (8, 12));
    }

    #[test]
    fn identity_blocks_on_diagonal() {
        let m = BlockMatrix::identity(3, 5);
        for i in 0..15 {
            for j in 0..15 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_eq!(m.get(i, j), expected, "({i},{j})");
            }
        }
    }

    #[test]
    fn from_fn_constructs_in_row_major_order() {
        let m = BlockMatrix::from_fn(2, 2, 1, |i, j| Block::from_vec(1, vec![(i * 10 + j) as f64]));
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 10.0);
        let collected: Vec<(usize, usize)> = m.iter_blocks().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(collected, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = BlockMatrix::identity(2, 3);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(4, 4, 3.0);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn byte_len_counts_all_blocks() {
        let m = BlockMatrix::zeros(3, 4, 10);
        assert_eq!(m.byte_len(), 3 * 4 * 100 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_index_bounds_checked() {
        let m = BlockMatrix::zeros(2, 2, 2);
        let _ = m.block(2, 0);
    }
}
