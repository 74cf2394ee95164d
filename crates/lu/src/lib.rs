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
//! * [`schedule`] — the Section 7.2 algorithm as plain data, on one of
//!   two paths by the fleet's memory: each worker owns a fixed share of
//!   the rows for the whole run, factors the pivots it owns and solves
//!   its own rows' panels; or one processor owns the pivot/panel work and
//!   each core update is a product the enrolled workers share through the
//!   product's own chunk exchanges. The ordered port operations of a
//!   factorization, their recovery rule (lost rows rebuilt from the stored
//!   factors), their one lowering to simulator frames and its replay,
//! * [`runtime`] — that schedule walked on a product fleet
//!   (`mwp_core::session::RuntimeSession`) by its master executor, with
//!   real arithmetic,
//! * [`homogeneous`] — the paper's worker count `P = ceil(µw/3c)` and the
//!   same schedule replayed on [`mwp_sim`],
//! * [`heterogeneous`] — Section 7.3: the per-worker chunk-shape rule
//!   (square chunk iff `µ_i ≤ µ/2`) and the exhaustive search over µ, each
//!   candidate priced by the replay of the schedule [`runtime`] runs —
//!   one cost model, the simulator's, for every LU question.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

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
