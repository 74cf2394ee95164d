//! # master-worker-matrix
//!
//! A reproduction of *"Revisiting Matrix Product on Master-Worker
//! Platforms"* (Dongarra, Pineau, Robert, Shi, Vivien — IPDPS 2007 /
//! INRIA RR-6053) as a Rust workspace.
//!
//! The paper asks: how should a master holding all matrix data organize a
//! large `C ← C + A·B` (or an LU factorization) across heterogeneous
//! workers with **limited memory**, when the master's network port can
//! carry only **one message at a time**? Its answers — the maximum
//! re-use memory layout, a tighter Loomis–Whitney communication lower
//! bound, closed-form resource selection for homogeneous platforms and
//! incremental selection for heterogeneous ones — are all implemented
//! here, together with every substrate needed to evaluate them.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`platform`] | star platform model `(c_i, w_i, m_i)`, cost calibration, generators |
//! | [`blockmat`] | `q × q` block matrices, GEMM + LU kernels (real arithmetic) |
//! | [`sim`] | deterministic one-port discrete-event simulator |
//! | [`msg`] | threaded message layer with a one-port arbiter (the MPI substitute) |
//! | [`core`] | layouts, bounds, resource selection, the 7-algorithm suite, runtime |
//! | [`lu`] | the Section 7 LU extension |
//!
//! ## Quickstart
//!
//! ```
//! use master_worker_matrix::prelude::*;
//!
//! // Eight identical workers behind Fast-Ethernet-class links.
//! let platform = Platform::homogeneous(8, 4.0e-3, 3.1e-4, 2_703).unwrap();
//! let problem = Partition::from_dims(8_000, 8_000, 64_000, 80);
//!
//! // Simulate the paper's homogeneous algorithm (resource selection +
//! // round-robin maximum re-use schedule).
//! let report = simulate(AlgorithmKind::HoLM, &platform, &problem).unwrap();
//! println!("makespan {:.0}s with {} workers",
//!          report.makespan.value(), report.workers_used());
//! assert!(report.workers_used() < 8); // comm-bound: selection pays off
//! ```

pub use mwp_blockmat as blockmat;
pub use mwp_core as core;
pub use mwp_lu as lu;
pub use mwp_msg as msg;
pub use mwp_platform as platform;
pub use mwp_sim as sim;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mwp_blockmat::{Block, BlockMatrix, Partition};
    pub use mwp_core::algorithms::{simulate, simulate_traced, AlgorithmKind};
    pub use mwp_core::bounds;
    pub use mwp_core::layout::{MemoryLayout, MemoryPlan};
    pub use mwp_core::runtime::{run_all_workers, run_heterogeneous, run_holm};
    pub use mwp_core::session::RuntimeSession;
    pub use mwp_lu::runtime::{factor, run_lu, LuSession};
    pub use mwp_core::selection::bandwidth_centric::steady_state;
    pub use mwp_core::selection::homogeneous::select_homogeneous;
    pub use mwp_core::selection::incremental::{run_selection, SelectionRule};
    pub use mwp_platform::{CostModel, HardwareProfile, Platform, WorkerId, WorkerParams};
    pub use mwp_sim::{SimReport, SimTime, Simulator};
}
