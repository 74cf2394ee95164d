//! # mwp-platform — star-shaped master-worker platform model
//!
//! This crate models the target platform of *"Revisiting Matrix Product on
//! Master-Worker Platforms"* (Dongarra, Pineau, Robert, Shi, Vivien): a star
//! network `S = {P0, P1, …, Pp}` composed of a master `P0` and `p` workers,
//! where
//!
//! * it takes `X · w_i` time units to execute a task of size `X` on worker
//!   `P_i` (linear computation cost, no start-up overhead),
//! * it takes `X · c_i` time units for the master to send a message of size
//!   `X` to `P_i` **or** to receive a message of size `X` from `P_i`
//!   (linear communication cost), and
//! * worker `P_i` can store at most `m_i` square `q × q` matrix blocks.
//!
//! Communications obey the **one-port model**: the master can be engaged in
//! at most one communication (send *or* receive) at any time step, and a
//! worker cannot start computing before fully receiving its input message,
//! nor start sending results before finishing its computation.
//!
//! The unit of work throughout the workspace is one *block operation*: a
//! `q × q` block transfer (cost `c_i`) or one block update
//! `C_ij += A_ik · B_kj` (cost `w_i`).
//!
//! The crate provides:
//!
//! * [`WorkerParams`] — the `(c_i, w_i, m_i)` triple for one worker,
//! * [`Platform`] — a validated collection of workers with helper queries,
//! * [`CostModel`] — the calibration layer mapping hardware characteristics
//!   (flop rate, link bandwidth, block size `q`) to `(c, w)`, in plain `f64`
//!   seconds like every cost in the workspace,
//! * [`generator`] — reproducible homogeneous and heterogeneous platform
//!   generators used by the experiment harness.

pub mod cost;
pub mod error;
pub mod generator;
pub mod platform;
pub mod textfmt;
pub mod worker;

pub use cost::{CostModel, HardwareProfile};
pub use error::PlatformError;
pub use generator::{HeterogeneityProfile, PlatformGenerator};
pub use platform::Platform;
pub use worker::{WorkerId, WorkerParams};
