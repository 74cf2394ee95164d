//! # mwp-blockmat — block-oriented dense matrix substrate
//!
//! The paper manipulates matrices as square `q × q` blocks ("the atomic
//! elements that we manipulate are not matrix coefficients but instead
//! square blocks of size q × q … to harness the power of Level 3 BLAS
//! routines", Section 2.1). This crate is the numerical substrate:
//!
//! * [`Block`] — one `q × q` block of `f64` coefficients stored contiguously
//!   row-major, whose `gemm_acc` runs the dispatched [`kernel`],
//! * [`kernel`] — the block-update kernel family: a register-blocked
//!   AVX2/FMA microkernel and the portable cache-tiled scalar loop behind
//!   a `OnceLock`-cached runtime dispatch (`MWP_KERNEL` to force one),
//! * [`BlockMatrix`] — an `rows × cols` grid of blocks (the master's view of
//!   `A`, `B`, and `C`),
//! * [`Partition`] — the `(r, s, t)` stripe decomposition from matrix
//!   dimensions and block size,
//! * [`gemm`] — whole-matrix multiplication used as ground truth by runtime
//!   verification,
//! * [`payload`] — zero-copy wire payloads: a matrix serialized once into
//!   a shared buffer, blocks handed out as refcounted slices,
//! * [`lu`] — the dense kernels for the Section 7 LU extension (pivot
//!   factorization and triangular panel solves, blocked onto the gemm
//!   micro-kernel; rank-µ update).
//!
//! Everything here is deliberately dependency-light: the scheduling layers
//! above know nothing about coefficients, only about block counts.

pub mod block;
pub mod fill;
pub mod gemm;
pub mod kernel;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod partition;
pub mod payload;

pub use block::Block;
pub use matrix::BlockMatrix;
pub use partition::Partition;
pub use payload::SharedPayloads;
