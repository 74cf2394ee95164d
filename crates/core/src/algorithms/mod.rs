//! The Section 8 algorithm suite.
//!
//! Seven algorithms, two families:
//!
//! **Optimized memory layout** (the paper's contribution — µ² resident C
//! blocks, A/B streamed):
//!
//! | name | selection | dispatch | layout |
//! |---|---|---|---|
//! | `HoLM`   | `P = min(p, ceil(µw/2c))` | Algorithm 1's rounds (static) | `µ² + 4µ` |
//! | `ORROML` | all `p` workers | Algorithm 1's rounds (static) | `µ² + 4µ` |
//! | `OMMOML` | emergent (first available) | lowest-index eligible | `µ² + 4µ` |
//! | `ODDOML` | all `p` | demand-driven (most starved) | `µ² + 4µ` |
//! | `DDOML`  | all `p` | demand-driven, no overlap | `µ² + 2µ` |
//!
//! **Toledo layout** (the out-of-core baseline, the paper's ref. \[38\]):
//!
//! | name | memory split | overlap |
//! |---|---|---|
//! | `BMM`  | equal thirds (`3µ²`) | none — worker idles during transfers |
//! | `OBMM` | equal fifths (`5µ²`) | one prefetched square pair |
//!
//! All seven, and the heterogeneous two-phase execution of Section 6.2
//! ([`heterogeneous`]), are orders of the one chunk exchange the runtime
//! executes ([`crate::schedule`]), put through the simulator by the one
//! lowering `replay_diff` checks against a real run: the static orders
//! (HoLM, ORROML, two-phase) as [`crate::schedule::Replay`] of the very
//! `Schedule` the runtime walks, the five demand-driven ones by the
//! dispatch rule in `suite`, which picks online whose exchange
//! advances next. The Toledo rows differ only in the step's depth: a
//! `µ`-deep square of A and of B per step instead of one column and one
//! row.

pub mod heterogeneous;
mod suite;

pub use heterogeneous::HeterogeneousPolicy;

use mwp_blockmat::Partition;
use mwp_platform::Platform;
use mwp_sim::{SimReport, Simulator};

/// The seven algorithms compared in the paper's Section 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Homogeneous algorithm with resource selection (the paper's own).
    HoLM,
    /// Overlapped Round-Robin, Optimized Memory Layout.
    ORROML,
    /// Overlapped Min-Min, Optimized Memory Layout.
    OMMOML,
    /// Overlapped Demand-Driven, Optimized Memory Layout.
    ODDOML,
    /// Demand-Driven, Optimized Memory Layout (no overlap buffers).
    DDOML,
    /// Toledo's Block Matrix Multiply.
    BMM,
    /// Overlapped Block Matrix Multiply.
    OBMM,
}

impl AlgorithmKind {
    /// All seven, in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 7] = [
        AlgorithmKind::HoLM,
        AlgorithmKind::ORROML,
        AlgorithmKind::OMMOML,
        AlgorithmKind::ODDOML,
        AlgorithmKind::DDOML,
        AlgorithmKind::BMM,
        AlgorithmKind::OBMM,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::HoLM => "HoLM",
            AlgorithmKind::ORROML => "ORROML",
            AlgorithmKind::OMMOML => "OMMOML",
            AlgorithmKind::ODDOML => "ODDOML",
            AlgorithmKind::DDOML => "DDOML",
            AlgorithmKind::BMM => "BMM",
            AlgorithmKind::OBMM => "OBMM",
        }
    }

    /// True for the algorithms using the paper's optimized memory layout.
    pub fn uses_optimized_layout(self) -> bool {
        !matches!(self, AlgorithmKind::BMM | AlgorithmKind::OBMM)
    }
}

/// Errors configuring or running a suite algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoError {
    /// The Section 8 suite is defined on homogeneous platforms.
    HeterogeneousPlatform,
    /// Worker memory cannot host even `µ = 1` under the required layout.
    MemoryTooSmall {
        /// The memory size that was rejected.
        m: usize,
    },
    /// The simulation engine rejected the schedule (a policy bug).
    Sim(mwp_sim::SimError),
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::HeterogeneousPlatform => {
                write!(f, "the Section 8 suite requires a homogeneous platform")
            }
            AlgoError::MemoryTooSmall { m } => {
                write!(f, "worker memory of {m} blocks is too small for this layout")
            }
            AlgoError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for AlgoError {}

impl From<mwp_sim::SimError> for AlgoError {
    fn from(e: mwp_sim::SimError) -> Self {
        AlgoError::Sim(e)
    }
}

/// The one body of the three `simulate*` entry points: `kind`'s policy
/// through `engine`.
fn run(
    kind: AlgorithmKind,
    platform: &Platform,
    problem: &Partition,
    engine: Simulator,
) -> Result<SimReport, AlgoError> {
    Ok(engine.run(suite::policy(kind, platform, problem)?.as_mut())?)
}

/// Simulate `kind` on a homogeneous `platform` computing `problem`.
pub fn simulate(
    kind: AlgorithmKind,
    platform: &Platform,
    problem: &Partition,
) -> Result<SimReport, AlgoError> {
    run(kind, platform, problem, Simulator::new(platform.clone()).without_trace())
}

/// Simulate with full trace recording (for Gantt rendering).
pub fn simulate_traced(
    kind: AlgorithmKind,
    platform: &Platform,
    problem: &Partition,
) -> Result<SimReport, AlgoError> {
    run(kind, platform, problem, Simulator::new(platform.clone()))
}

/// Simulate under the **two-port** flavor of the model (simultaneous send
/// and receive at the master) — the ablation of Section 2.2's modeling
/// choice. The schedule itself is unchanged; only the port contention
/// rule differs.
pub fn simulate_two_port(
    kind: AlgorithmKind,
    platform: &Platform,
    problem: &Partition,
) -> Result<SimReport, AlgoError> {
    run(kind, platform, problem, Simulator::new(platform.clone()).without_trace().two_port())
}
