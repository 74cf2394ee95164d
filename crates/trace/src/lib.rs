//! # mwp-trace — one span schema for simulated and measured timelines
//!
//! The paper's contribution is a *predictive cost model*; validating it
//! requires putting the simulator's predicted timeline and the real
//! runtime's measured timeline side by side. This crate is the shared
//! vocabulary that makes that comparison possible:
//!
//! * [`time::SimTime`] — totally-ordered timestamps (virtual seconds in the
//!   simulator, wall-clock seconds since process trace epoch at runtime);
//! * [`schema`] — [`Resource`]/[`ActivityKind`]/[`Activity`]/[`Trace`], the
//!   span taxonomy both `mwp-sim`'s engine and `mwp-msg`'s live recorder
//!   emit, so a simulated HoLM run and a measured one produce traces with
//!   identical shape;
//! * [`chrome`] — the Chrome trace event (loadable in Perfetto /
//!   `chrome://tracing`) that the `MWP_TRACE=json:` sink streams, one line
//!   per span, exact `f64` seconds in its `args`;
//! * [`record`] — the process-global runtime recorder behind the
//!   `MWP_TRACE` switch (`off` by default and free when off), plus an
//!   in-process capture API used by tests and the `replay_diff` harness.
//!
//! `mwp-sim` re-exports [`time`] and [`schema`] so existing
//! `mwp_sim::{SimTime, Trace, ...}` paths keep working unchanged.

pub mod chrome;
pub mod record;
pub mod schema;
pub mod time;

pub use schema::{Activity, ActivityKind, Resource, Trace};
pub use time::SimTime;
