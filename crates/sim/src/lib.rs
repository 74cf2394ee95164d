//! # mwp-sim — deterministic discrete-event simulator of one-port
//! master-worker platforms
//!
//! The paper's platform model (Section 2.2) makes the master's network port
//! the single contended resource:
//!
//! * the master can be engaged in **at most one** communication — send *or*
//!   receive — at any time (true one-port model),
//! * a worker cannot start computing before its input message has fully
//!   arrived, and cannot return results before its computation finishes,
//! * costs are linear: a message of `X` blocks to/from worker `P_i` holds
//!   the port for `X·c_i`; `X` block updates hold worker `P_i` for `X·w_i`.
//!
//! Under this model workers are *passive FIFO servers*: their entire future
//! is determined the moment work is enqueued on them. The simulation
//! therefore needs no global event queue — virtual time advances along the
//! master's port operations, and a pluggable [`MasterPolicy`] decides each
//! next operation online (which is how the demand-driven algorithms of
//! Section 8 and the incremental selection of Section 6.2 make decisions).
//!
//! The engine verifies the memory invariant `held ≤ m_i` on every worker at
//! every step, produces a complete [`Trace`] (renderable as an ASCII
//! Gantt chart like the paper's Figures 7 and 8), and returns a
//! [`report::SimReport`] with makespan, utilization and communication
//! statistics.
//!
//! The timestamp and span types live in `mwp-trace` — one vocabulary
//! shared with the live runtime recorder, so predicted and measured
//! timelines can be diffed span for span (see the `replay_diff` bench
//! bin). The engine emits only the occupancy kinds
//! (`Send`/`Recv`/`Compute`); the extra runtime kinds (`Wait`, `Pack`,
//! `Kernel`, `Run`) appear in measured traces.

pub mod engine;
pub mod gantt;
pub mod report;

pub use engine::{Decision, Label, MasterPolicy, SimError, Simulator, WorkerView};
pub use report::SimReport;
pub use mwp_trace::{Activity, ActivityKind, Resource, SimTime, Trace};
