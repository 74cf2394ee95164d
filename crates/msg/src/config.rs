//! The one place this crate reads the process environment.
//!
//! Every `MWP_*` variable the message layer honors is read here, through
//! a strict parser that lives beside it: a typo'd value is an error
//! naming the valid forms, never a silent fallback — a CI leg that sets a
//! variable must not silently test the default. Nothing on the data path
//! calls into this module: sessions and worker endpoints resolve what
//! they need once, at construction, and pass the values down.
//!
//! | variable | reader | when |
//! |---|---|---|
//! | `MWP_TRANSPORT` | [`transport_mode`] | once per process |
//! | `MWP_HEARTBEAT_MS`, `MWP_DEADLINE_MS` | [`liveness`] | once per session / worker endpoint |
//! | `MWP_RUN_DEADLINE_MS` | [`run_deadline`] | once per run |
//! | `MWP_FLEET_SECRET` | [`fleet_secret`] | once per session / enrollment |
//! | `MWP_FAULT` | [`fault_spec_from_env`] | once per worker session |

use crate::transport::{FaultAction, FaultSpec, TransportMode};
use std::sync::OnceLock;
use std::time::Duration;

/// Read `name` and run it through its strict parser; a value the parser
/// refuses panics with the variable's name. `None` when unset.
fn read<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let value = std::env::var(name).ok()?;
    Some(parse(&value).unwrap_or_else(|e| panic!("{name}: {e}")))
}

/// Parse an `MWP_TRANSPORT` value. Empty means "no override" (channel).
/// Unknown values are an error listing the valid names — the same
/// contract as `MWP_KERNEL`: a typo must never silently fall back, or a
/// CI matrix leg that sets the variable would silently test the wrong
/// backend.
pub fn parse_transport_mode(value: &str) -> Result<TransportMode, String> {
    match value {
        "" | "channel" => Ok(TransportMode::Channel),
        "tcp" => Ok(TransportMode::Tcp),
        "uds" => Ok(TransportMode::Uds),
        other => Err(format!(
            "unknown transport '{other}' (valid: {})",
            TransportMode::NAMES.join(", ")
        )),
    }
}

/// The process-wide transport mode: `MWP_TRANSPORT` override if set, else
/// [`TransportMode::Channel`]. Resolved once per process, like the kernel
/// dispatcher's `MWP_KERNEL`.
pub fn transport_mode() -> TransportMode {
    static MODE: OnceLock<TransportMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        read("MWP_TRANSPORT", parse_transport_mode).unwrap_or(TransportMode::Channel)
    })
}

/// Default heartbeat period on idle socket links (`MWP_HEARTBEAT_MS`).
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;
/// Default silence budget before a socket peer is declared dead
/// (`MWP_DEADLINE_MS`). Must exceed the heartbeat period — a healthy
/// peer proves liveness several times per deadline window.
pub const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Parse a `MWP_*_MS` millisecond value: empty means "no override"
/// (`None`), anything else must be a whole number of milliseconds.
pub fn parse_millis(value: &str) -> Result<Option<u64>, String> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("'{value}' is not a whole number of milliseconds"))
}

/// The liveness layer's configuration: `Some((heartbeat, deadline))`
/// when enabled, `None` when either `MWP_HEARTBEAT_MS=0` or
/// `MWP_DEADLINE_MS=0` switched it off.
///
/// When enabled, socket links carry [`crate::Frame::heartbeat`] probes
/// whenever a direction is idle for a heartbeat period, every socket read
/// runs under the deadline, and the failure-aware schedulers treat a
/// worker silent past the deadline as dead. The environment is re-read on
/// each call so tests can stage different detection bounds within one
/// process — which is why the callers are constructors only: a
/// [`crate::Session`] and a remote [`crate::WorkerEndpoint`] each capture
/// the value once and every link, pump and receive below them uses that.
pub fn liveness() -> Option<(Duration, Duration)> {
    let get = |name: &str, default: u64| read(name, parse_millis).flatten().unwrap_or(default);
    let heartbeat = get("MWP_HEARTBEAT_MS", DEFAULT_HEARTBEAT_MS);
    let deadline = get("MWP_DEADLINE_MS", DEFAULT_DEADLINE_MS);
    if heartbeat == 0 || deadline == 0 {
        return None;
    }
    assert!(
        deadline > heartbeat,
        "MWP_DEADLINE_MS ({deadline}) must exceed MWP_HEARTBEAT_MS ({heartbeat}): \
         a peer must get several heartbeats per deadline window or healthy \
         links would be declared dead"
    );
    Some((Duration::from_millis(heartbeat), Duration::from_millis(deadline)))
}

/// The whole-run wall-clock budget (`MWP_RUN_DEADLINE_MS`): `Some` when
/// the variable is set to a nonzero number of milliseconds, `None` when
/// unset or `0` (no budget — runs may take as long as they take). When a
/// run's master loop observes the budget exhausted it broadcasts
/// [`crate::lifecycle::RUN_ABORT`] and returns an abort error instead of
/// a result; the session itself stays serviceable. Re-read per call —
/// the runtimes call it once at the top of each run — so a deadline can
/// be staged for one run and cleared for the next within a single
/// process.
pub fn run_deadline() -> Option<Duration> {
    read("MWP_RUN_DEADLINE_MS", parse_millis)
        .flatten()
        .filter(|&ms| ms != 0)
        .map(Duration::from_millis)
}

/// The fleet's shared enrollment secret: `MWP_FLEET_SECRET`, re-read on
/// every call (a session captures it once, at construction). Unset or
/// empty means **no secret**: the handshake still runs its MACs (the
/// wire format is uniform) but keys them with the empty string, which
/// any peer can compute — set a secret on every fleet member before
/// exposing a listener beyond loopback.
pub fn fleet_secret() -> Vec<u8> {
    std::env::var("MWP_FLEET_SECRET").map(String::into_bytes).unwrap_or_default()
}

/// Parse an `MWP_FAULT` value: empty means "no fault" (`None`);
/// otherwise `kill:<n>`, `drop:<n>`, `delay:<n>:<ms>`, `truncate:<n>`,
/// `corrupt:<n>`, or `stale:<n>`, where `<n>` is the number of outbound
/// data frames that pass before the fault fires — or a bare `badhello` /
/// `badauth` handshake fault, which fires at enrollment (there is no
/// frame count to wait for: the handshake is the first exchange).
/// Strict: anything else is an error naming the valid forms.
pub fn parse_fault_spec(value: &str) -> Result<Option<FaultSpec>, String> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    let bad = || {
        format!(
            "unknown fault '{value}' (valid: kill:<n>, drop:<n>, delay:<n>:<ms>, truncate:<n>, \
             corrupt:<n>, stale:<n>, badhello, badauth)"
        )
    };
    match v {
        "badhello" => return Ok(Some(FaultSpec { action: FaultAction::BadHello, after: 0 })),
        "badauth" => return Ok(Some(FaultSpec { action: FaultAction::BadAuth, after: 0 })),
        _ => {}
    }
    let mut parts = v.split(':');
    let action = parts.next().unwrap_or("");
    let after: u64 = parts.next().and_then(|n| n.parse().ok()).ok_or_else(bad)?;
    let spec = match (action, parts.next()) {
        ("kill", None) => FaultSpec { action: FaultAction::Kill, after },
        ("drop", None) => FaultSpec { action: FaultAction::Drop, after },
        ("truncate", None) => FaultSpec { action: FaultAction::Truncate, after },
        ("corrupt", None) => FaultSpec { action: FaultAction::Corrupt, after },
        ("stale", None) => FaultSpec { action: FaultAction::Stale, after },
        ("delay", Some(ms)) => {
            let ms: u64 = ms.parse().map_err(|_| bad())?;
            FaultSpec { action: FaultAction::Delay(Duration::from_millis(ms)), after }
        }
        _ => return Err(bad()),
    };
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(Some(spec))
}

/// The `MWP_FAULT` environment spec, strictly parsed (a typo panics —
/// a chaos leg that silently ran without its fault would be a green CI
/// lying about coverage).
pub fn fault_spec_from_env() -> Option<FaultSpec> {
    read("MWP_FAULT", parse_fault_spec).flatten()
}
