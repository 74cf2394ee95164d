//! Zero-copy block payloads: serialize a matrix once, fan blocks out as
//! reference-counted slices.
//!
//! The master-worker runtimes repeatedly send the *same* `A`/`B` blocks to
//! several workers (the paper's schedules re-send each `B` row block to
//! every enrolled worker). Serializing per send made every one of those a
//! fresh ~`8q²`-byte allocation plus copy. [`SharedPayloads`] instead
//! serializes the whole matrix into **one** contiguous buffer up front;
//! [`SharedPayloads::get`] returns a [`Bytes`] slice into that buffer, so
//! a fan-out to `k` workers costs `k` refcount bumps and zero copies —
//! every frame carrying block `(i, j)` shares the same backing storage.
//!
//! Runs of adjacent blocks are also single slices: with the default
//! row-major layout a stretch of one block row ([`SharedPayloads::row_run`])
//! is contiguous, and with [`SharedPayloads::new_col_major`] a stretch of
//! one block column ([`SharedPayloads::col_run`]) is. The runtimes use
//! this to ship a whole `B` row or `A` column as **one** zero-copy frame.
//! A grid that arrived serialized ([`SharedPayloads::from_bytes`]) is
//! re-sent the same way, without being copied at all.

use crate::matrix::BlockMatrix;
use bytes::Bytes;

/// Storage order of serialized blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOrder {
    /// Block `(i, j)` at index `i·cols + j` — block rows are contiguous.
    RowMajor,
    /// Block `(i, j)` at index `j·rows + i` — block columns are contiguous.
    ColMajor,
}

impl BlockOrder {
    /// The block coordinates of a `rows × cols` grid, in this order.
    pub fn coords(self, rows: usize, cols: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..rows * cols).map(move |x| match self {
            BlockOrder::RowMajor => (x / cols, x % cols),
            BlockOrder::ColMajor => (x % rows, x / rows),
        })
    }
}

/// Immutable per-block wire payloads of a matrix, backed by one shared
/// buffer.
///
/// Build once per runtime execution for each input matrix; `get` as often
/// as the schedule demands.
#[derive(Clone)]
pub struct SharedPayloads {
    data: Bytes,
    rows: usize,
    cols: usize,
    block_bytes: usize,
    order: BlockOrder,
}

impl SharedPayloads {
    /// Serialize every block of `m` in row-major block order (block rows
    /// contiguous) into a single shared buffer.
    pub fn new(m: &BlockMatrix) -> Self {
        Self::build(m, BlockOrder::RowMajor)
    }

    /// Serialize in column-major block order (block columns contiguous) —
    /// the layout that makes `A`-column streaming a single slice.
    pub fn new_col_major(m: &BlockMatrix) -> Self {
        Self::build(m, BlockOrder::ColMajor)
    }

    fn build(m: &BlockMatrix, order: BlockOrder) -> Self {
        let lines = match order {
            BlockOrder::RowMajor => m.rows(),
            BlockOrder::ColMajor => m.cols(),
        };
        let mut buf = Vec::with_capacity(m.byte_len());
        m.write_block_bytes(order, 0..lines, &mut buf);
        Self::from_bytes(Bytes::from(buf), m.rows(), m.cols(), m.q(), order)
    }

    /// The payloads of a `rows × cols` grid of side-`q` blocks already
    /// serialized in `order` — `data` itself, not a copy of it. A runtime
    /// that keeps its own buffers writes `m`'s image into one with
    /// [`BlockMatrix::write_block_bytes`] and wraps it here.
    ///
    /// # Panics
    /// If `data` is not exactly that many blocks long.
    pub fn from_bytes(data: Bytes, rows: usize, cols: usize, q: usize, order: BlockOrder) -> Self {
        let block_bytes = q * q * 8;
        assert_eq!(data.len(), rows * cols * block_bytes, "not a {rows} × {cols} grid of q = {q} blocks");
        SharedPayloads { data, rows, cols, block_bytes, order }
    }

    fn offset(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "block index out of range");
        let idx = match self.order {
            BlockOrder::RowMajor => i * self.cols + j,
            BlockOrder::ColMajor => j * self.rows + i,
        };
        idx * self.block_bytes
    }

    /// The wire payload of block `(i, j)` — a refcount bump, never a copy.
    pub fn get(&self, i: usize, j: usize) -> Bytes {
        let start = self.offset(i, j);
        self.data.slice(start..start + self.block_bytes)
    }

    /// The payload of `n` adjacent blocks `(i, j0) .. (i, j0 + n)` of one
    /// block row as a single zero-copy slice (row-major layouts only).
    pub fn row_run(&self, i: usize, j0: usize, n: usize) -> Bytes {
        assert_eq!(self.order, BlockOrder::RowMajor, "row runs need the row-major layout");
        assert!(n >= 1 && j0 + n <= self.cols, "run exceeds the block row");
        let start = self.offset(i, j0);
        self.data.slice(start..start + n * self.block_bytes)
    }

    /// The payload of `n` adjacent blocks `(i0, j) .. (i0 + n, j)` of one
    /// block column as a single zero-copy slice (col-major layouts only).
    pub fn col_run(&self, i0: usize, j: usize, n: usize) -> Bytes {
        assert_eq!(self.order, BlockOrder::ColMajor, "column runs need the col-major layout");
        assert!(n >= 1 && i0 + n <= self.rows, "run exceeds the block column");
        let start = self.offset(i0, j);
        self.data.slice(start..start + n * self.block_bytes)
    }

    /// Block rows and block columns of the grid.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Payload size of one block in bytes (`8q²`).
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::fill::random_matrix;

    #[test]
    fn payloads_match_per_block_serialization() {
        let m = random_matrix(3, 4, 8, 7);
        for p in [SharedPayloads::new(&m), SharedPayloads::new_col_major(&m)] {
            for (i, j, b) in m.iter_blocks() {
                assert_eq!(&*p.get(i, j), b.to_bytes().as_slice(), "block ({i},{j})");
            }
        }
    }

    #[test]
    fn repeated_gets_share_one_buffer() {
        let m = random_matrix(2, 2, 16, 1);
        let p = SharedPayloads::new(&m);
        let a = p.get(1, 0);
        let b = p.get(1, 0);
        assert_eq!(a.as_ptr(), b.as_ptr(), "fan-out must not copy");
        // Different blocks also live in the same backing buffer.
        let c = p.get(0, 0);
        let gap = a.as_ptr() as usize - c.as_ptr() as usize;
        assert_eq!(gap, 2 * p.block_bytes());
    }

    #[test]
    fn row_run_is_one_slice_of_blockwise_content() {
        let m = random_matrix(3, 5, 4, 9);
        let p = SharedPayloads::new(&m);
        let run = p.row_run(2, 1, 3);
        assert_eq!(run.len(), 3 * p.block_bytes());
        assert_eq!(run.as_ptr(), p.get(2, 1).as_ptr(), "run starts at first block, zero-copy");
        for (w, j) in (1..4).enumerate() {
            let bb = p.block_bytes();
            assert_eq!(&run[w * bb..(w + 1) * bb], &*p.get(2, j), "block (2,{j})");
        }
    }

    #[test]
    fn col_run_is_one_slice_of_blockwise_content() {
        let m = random_matrix(5, 3, 4, 11);
        let p = SharedPayloads::new_col_major(&m);
        let run = p.col_run(1, 2, 4);
        assert_eq!(run.len(), 4 * p.block_bytes());
        assert_eq!(run.as_ptr(), p.get(1, 2).as_ptr());
        for (w, i) in (1..5).enumerate() {
            let bb = p.block_bytes();
            assert_eq!(&run[w * bb..(w + 1) * bb], &*p.get(i, 2), "block ({i},2)");
        }
    }

    #[test]
    fn a_serialized_grid_is_reused_not_copied() {
        let m = random_matrix(3, 2, 4, 13);
        let built = SharedPayloads::new_col_major(&m);
        let again = SharedPayloads::from_bytes(built.data.clone(), 3, 2, 4, BlockOrder::ColMajor);
        assert_eq!(again.col_run(1, 1, 2).as_ptr(), built.col_run(1, 1, 2).as_ptr());
        for (i, j, b) in m.iter_blocks() {
            assert_eq!(&*again.get(i, j), b.to_bytes().as_slice(), "block ({i},{j})");
        }
    }

    #[test]
    fn roundtrip_through_block() {
        let m = random_matrix(2, 3, 5, 3);
        let p = SharedPayloads::new(&m);
        let back = Block::from_bytes(5, &p.get(1, 2));
        assert_eq!(&back, m.block(1, 2));
    }

    #[test]
    #[should_panic(expected = "row runs need the row-major layout")]
    fn row_run_rejected_on_col_major() {
        let m = random_matrix(2, 2, 4, 1);
        let _ = SharedPayloads::new_col_major(&m).row_run(0, 0, 2);
    }
}
