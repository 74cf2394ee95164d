//! # mwp-core — matrix product on master-worker platforms
//!
//! The primary contribution of *"Revisiting Matrix Product on Master-Worker
//! Platforms"* (Dongarra, Pineau, Robert, Shi, Vivien, IPDPS 2007 /
//! RR-6053), implemented as a library:
//!
//! * [`layout`] — the **maximum re-use memory layout**: how to split a
//!   worker's `m` block buffers among `A`, `B` and `C` (`1 + µ + µ²` for
//!   the analysis of Section 4, `µ² + 4µ` with communication/computation
//!   overlap in Section 5, plus the Toledo thirds/fifths layouts used by
//!   the BMM/OBMM baselines),
//! * [`bounds`] — communication-to-computation ratios and lower bounds,
//!   including the paper's new Loomis–Whitney bound `sqrt(27/(8m))`,
//! * [`toy`] — the simplified problem of Section 3 (t = 1, homogeneous, no
//!   memory limit): the alternating greedy algorithm (optimal for one
//!   worker), Thrifty and Min-min (both non-optimal, Figure 4),
//! * [`selection`] — resource selection: the homogeneous closed form
//!   `P = min(p, ceil(µw/2c))` and small-matrix `(ν, Q)` fallback (C as
//!   one chunk when that enrolls a single worker whose `µ` spans the
//!   grid), the bandwidth-centric steady-state LP of Section 6.1 (with
//!   its memory infeasibility check, Table 1), and the incremental
//!   global / local / lookahead selection of Section 6.2 (Algorithm 3),
//! * [`schedule`] — a run as plain data: the ordered port operations of
//!   the master, from two pure generators (Algorithm 1's rounds, the
//!   two-phase heterogeneous scheme), with [`schedule::Replay`] to run
//!   one through the simulator,
//! * [`algorithms`] — the seven-algorithm suite of Section 8 (HoLM,
//!   ORROML, OMMOML, ODDOML, DDOML, BMM, OBMM) and the two-phase scheme
//!   in the simulator: `Replay` of those schedules, plus one online
//!   dispatch rule over the same chunk exchange,
//! * [`runtime`] — the threaded executor of those schedules over
//!   [`mwp_msg`] with real `q × q` block arithmetic, verified against the
//!   serial product, and the one worker program, which also serves
//!   `mwp_lu`'s factorizations,
//! * [`chunks`] — the tiling of the `C` matrix into per-worker `µ × µ`
//!   chunks shared by all of the above,
//! * [`serving`] — the multi-job serving tier: a
//!   [`serving::MatrixServer`] queues independent product jobs from many
//!   caller threads and interleaves them as concurrent run generations
//!   on one shared fleet, with cost-model admission control and a
//!   small-`q` batching tier that fuses compatible queued jobs into one
//!   composite run.
//!
//! ## Quickstart
//!
//! ```
//! use mwp_platform::Platform;
//! use mwp_core::algorithms::{AlgorithmKind, simulate};
//! use mwp_blockmat::Partition;
//!
//! // 8 identical workers on Fast-Ethernet-like links.
//! let platform = Platform::homogeneous(8, 4.0, 1.0, 132).unwrap();
//! let problem = Partition::from_blocks(20, 40, 20, 80);
//! let report = simulate(AlgorithmKind::HoLM, &platform, &problem).unwrap();
//! assert!(report.makespan.value() > 0.0);
//! ```

pub mod algorithms;
pub mod bounds;
pub mod chunks;
pub mod layout;
pub mod remote;
pub mod runtime;
pub mod schedule;
pub mod selection;
pub mod serving;
pub mod session;
pub mod toy;

pub use layout::{MemoryLayout, MemoryPlan};
