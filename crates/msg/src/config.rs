//! The message layer's configuration, as a value.
//!
//! A deployment's settings are one [`Config`], built once and handed in
//! at the two places they matter: the master's door
//! ([`crate::Session::accept_remote`], which keeps it for the session's
//! life) and the worker's dial ([`crate::transport::enroll_with_retry`]).
//! A binary builds it with [`Config::from_env`] — the **only** function
//! in this crate that reads the process environment — and a test or an
//! embedding program writes a literal. The in-process constructors
//! (`Session::spawn`, `StarNetwork::build`, …) take [`Config::default`].
//!
//! Every variable goes through a strict parser that lives beside it: a
//! typo'd value is an error naming the valid forms, never a silent
//! fallback — a CI leg that sets a variable must not silently test the
//! default.
//!
//! | variable | field |
//! |---|---|
//! | `MWP_DEADLINE_MS` | [`Config::liveness`] |
//! | `MWP_RUN_DEADLINE_MS` | [`Config::run_deadline`] |
//! | `MWP_FLEET_SECRET` | [`Config::fleet_secret`] |

use crate::transport::TransportMode;
use std::time::Duration;

/// What a fleet member is told about its deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The liveness deadline, `None` when liveness is off.
    ///
    /// When on, socket links carry [`crate::Frame::heartbeat`] frames,
    /// and the master owns them: it probes a link it has had nothing else
    /// to send on for one [`Config::probe_period`], a tenth of the
    /// deadline. A worker sends none on its own: it answers each probe
    /// it reads, and before it hands its program a data frame it writes
    /// one if it has written nothing for a probe period, so a worker that
    /// only receives still shows traffic. Every socket read runs under
    /// the deadline, and a run's receives wait no longer for a reply, so
    /// a worker silent past it — one whose step computes longer than
    /// the deadline included — is dead. Zero is refused
    /// ([`Config::check`]).
    pub liveness: Option<Duration>,
    /// The master's whole-run wall-clock budget, `None` for no budget.
    /// When a run's master loop observes the budget exhausted it
    /// broadcasts [`crate::lifecycle::RUN_ABORT`] and returns an abort
    /// error instead of a result; the session itself stays serviceable.
    /// [`crate::Session::set_run_deadline`] changes it between runs.
    pub run_deadline: Option<Duration>,
    /// The fleet's shared enrollment secret. Empty means **no secret**:
    /// the handshake still runs its MACs (the wire format is uniform)
    /// but keys them with the empty string, which any peer can compute —
    /// set a secret on every fleet member before exposing a listener
    /// beyond loopback.
    pub fleet_secret: Vec<u8>,
}

impl Default for Config {
    /// A peer declared dead after ten seconds of silence (probed every
    /// second), no run budget, no secret.
    fn default() -> Self {
        Config {
            liveness: Some(Duration::from_millis(10_000)),
            run_deadline: None,
            fleet_secret: Vec::new(),
        }
    }
}

impl Config {
    /// The configuration the process environment describes: each unset
    /// variable leaves its field at the default, `MWP_DEADLINE_MS=0`
    /// switches liveness off, `MWP_RUN_DEADLINE_MS=0` means no budget. A
    /// value its parser refuses is an error naming the variable.
    pub fn from_env() -> Result<Config, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Config::from_env`] over any `name → value` lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Config, String> {
        let millis = |name: &str| {
            var(name).map_or(Ok(None), |v| parse_millis(&v)).map_err(|e| format!("{name}: {e}"))
        };
        let ms = Duration::from_millis;
        let liveness = match millis("MWP_DEADLINE_MS")? {
            None => Config::default().liveness,
            Some(deadline) => (deadline != 0).then(|| ms(deadline)),
        };
        Ok(Config {
            liveness,
            run_deadline: millis("MWP_RUN_DEADLINE_MS")?.filter(|&budget| budget != 0).map(ms),
            fleet_secret: var("MWP_FLEET_SECRET").map(String::into_bytes).unwrap_or_default(),
        })
    }

    /// How long a link may idle before the master probes it: a tenth of
    /// the liveness deadline, so a healthy idle peer answers several times
    /// per deadline window. `None` when liveness is off.
    pub fn probe_period(&self) -> Option<Duration> {
        self.liveness.map(|deadline| deadline / 10)
    }

    /// Refuse a zero liveness deadline: its probe period would be zero,
    /// and an idle link would be probed without pause. The master's door
    /// and the worker's dial apply it to whatever value they are handed;
    /// the environment cannot spell it, since `MWP_DEADLINE_MS=0` means
    /// off.
    pub fn check(&self) -> Result<(), String> {
        if self.probe_period().is_some_and(|period| period.is_zero()) {
            return Err("the liveness deadline leaves no probe period (a tenth of it): switch \
                        liveness off with no deadline instead"
                .into());
        }
        Ok(())
    }
}

/// Parse a transport name (`replay_diff --transport`). Unknown values are
/// an error listing the valid names — a typo must never silently fall
/// back, or a CI step that names a backend would silently test another.
pub fn parse_transport_mode(value: &str) -> Result<TransportMode, String> {
    match value {
        "channel" => Ok(TransportMode::Channel),
        "tcp" => Ok(TransportMode::Tcp),
        "uds" => Ok(TransportMode::Uds),
        other => Err(format!("unknown transport '{other}' (valid: channel, tcp, uds)")),
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// `from_env` over a literal environment.
    fn from(vars: &[(&str, &str)]) -> Result<Config, String> {
        Config::from_vars(|name| vars.iter().find(|(n, _)| *n == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn every_variable_lands_in_its_field_and_unset_is_the_default() {
        assert_eq!(from(&[]), Ok(Config::default()));
        // Set-but-empty is "no override", as a CI matrix leaves variables.
        let empty = ["MWP_DEADLINE_MS", "MWP_RUN_DEADLINE_MS"];
        assert_eq!(from(&empty.map(|name| (name, ""))), Ok(Config::default()));
        let ms = Duration::from_millis;
        let config = from(&[
            ("MWP_DEADLINE_MS", " 600 "),
            ("MWP_RUN_DEADLINE_MS", "5"),
            ("MWP_FLEET_SECRET", "s3cret"),
        ]);
        let expected = Config {
            liveness: Some(ms(600)),
            run_deadline: Some(ms(5)),
            fleet_secret: b"s3cret".to_vec(),
        };
        assert_eq!(config, Ok(expected));
        assert_eq!(config.unwrap().probe_period(), Some(ms(60)), "a tenth of the deadline");
        // Zero switches liveness, and the run budget, off.
        assert_eq!(from(&[("MWP_DEADLINE_MS", "0")]).unwrap().liveness, None);
        assert_eq!(from(&[("MWP_RUN_DEADLINE_MS", "0")]).unwrap().run_deadline, None);
    }

    #[test]
    fn a_refused_value_is_an_error_naming_its_variable() {
        for name in ["MWP_DEADLINE_MS", "MWP_RUN_DEADLINE_MS"] {
            for bad in ["1.5", "-1", "1s", "fast", "1_000"] {
                let err = from(&[(name, bad)]).expect_err("must be rejected, not defaulted");
                assert!(err.starts_with(name), "{name}={bad}: {err}");
            }
        }
    }

    #[test]
    fn a_zero_deadline_is_refused_at_both_doors() {
        let literal = Config { liveness: Some(Duration::ZERO), ..Config::default() };
        assert!(literal.check().is_err());
        let listener = crate::TransportListener::bind_tcp("127.0.0.1:0").unwrap();
        let platform = mwp_platform::Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let door = crate::Session::accept_remote(&platform, 0.0, &listener, &literal);
        assert_eq!(door.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
        let wait = Duration::from_secs(5);
        let dial =
            crate::transport::enroll_with_retry(&listener.endpoint(), wait, b"", &literal);
        assert_eq!(dial.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    }
}
