//! # mwp-lu — LU factorization on master-worker platforms (Section 7)
//!
//! The paper extends its matrix-product techniques to right-looking
//! blocked LU factorization: the matrix is `r × r` blocks of side `q`,
//! with a second-level blocking of size `µ` (largest with `µ² + 4µ ≤ m`).
//! Step `k` factors a `µ × µ`-block pivot, updates the vertical and
//! horizontal panels, and performs a rank-µ update of the core matrix —
//! the latter being the dominant, parallelizable part.
//!
//! * [`cost`] — the per-step communication/computation cost model and the
//!   closed-form totals (including the paper's algebra slip: its stated
//!   communication total does not equal the sum of its own per-step
//!   terms; we provide both and use the exact sum),
//! * [`single`] — the single-worker schedule of Section 7.1, numerically
//!   verified against [`mwp_blockmat::lu`],
//! * [`schedule`] — the Section 7.2 algorithm as plain data: one
//!   processor owns the pivot/panel work, and each core update is a
//!   product the enrolled workers share through the product's own chunk
//!   exchanges; the ordered port operations of a factorization, their
//!   recovery rule and their one lowering to simulator frames,
//! * [`runtime`] — that schedule walked on a product fleet
//!   (`mwp_core::session::RuntimeSession`) by its master executor, with
//!   real arithmetic,
//! * [`homogeneous`] — the paper's worker count `P = ceil(µw/3c)` and the
//!   same schedule replayed on [`mwp_sim`],
//! * [`heterogeneous`] — the Section 7.3 machinery: per-worker chunk-shape
//!   choice (square chunk iff `µ_i ≤ µ/2`), memory virtualization for
//!   over-provisioned workers, and the exhaustive search over µ.

pub mod cost;
pub mod heterogeneous;
pub mod homogeneous;
pub mod runtime;
pub mod schedule;
pub mod single;

pub use cost::{LuCost, LuProblem};
pub use heterogeneous::{best_pivot_size, chunk_shape, ChunkShape};
pub use homogeneous::{ideal_lu_workers, simulate_homogeneous_lu};
pub use runtime::{factor, run_lu, LuRunOutcome};
