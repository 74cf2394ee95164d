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
//! | `MWP_HEARTBEAT_MS`, `MWP_DEADLINE_MS` | [`Config::liveness`] |
//! | `MWP_RUN_DEADLINE_MS` | [`Config::run_deadline`] |
//! | `MWP_FLEET_SECRET` | [`Config::fleet_secret`] |

use crate::transport::TransportMode;
use std::time::Duration;

/// What a fleet member is told about its deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The liveness layer's `(heartbeat, deadline)`, `None` when off.
    ///
    /// When on, socket links carry [`crate::Frame::heartbeat`] probes:
    /// the master sends one on a link it has had nothing else to send on
    /// for a heartbeat period, while a worker sends one every period
    /// whatever else it sends, so that a worker deep in a long kernel call
    /// still shows traffic. Every socket read runs under the deadline, and
    /// the failure-aware schedulers treat a worker silent past the
    /// deadline as dead. The deadline must exceed the heartbeat
    /// ([`Config::check`]).
    pub liveness: Option<(Duration, Duration)>,
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
    /// A heartbeat every second and a peer declared dead after ten of
    /// silence, no run budget, no secret.
    fn default() -> Self {
        Config {
            liveness: Some((Duration::from_millis(1000), Duration::from_millis(10_000))),
            run_deadline: None,
            fleet_secret: Vec::new(),
        }
    }
}

impl Config {
    /// The configuration the process environment describes: each unset
    /// variable leaves its field at the default, `MWP_HEARTBEAT_MS=0` or
    /// `MWP_DEADLINE_MS=0` switches liveness off, `MWP_RUN_DEADLINE_MS=0`
    /// means no budget. A value its parser refuses, or a deadline that
    /// does not exceed the heartbeat, is an error naming the variable.
    pub fn from_env() -> Result<Config, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Config::from_env`] over any `name → value` lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Config, String> {
        let millis = |name: &str| {
            var(name).map_or(Ok(None), |v| parse_millis(&v)).map_err(|e| format!("{name}: {e}"))
        };
        let ms = Duration::from_millis;
        let (heartbeat, deadline) = Config::default().liveness.expect("on by default");
        let heartbeat = millis("MWP_HEARTBEAT_MS")?.map_or(heartbeat, ms);
        let deadline = millis("MWP_DEADLINE_MS")?.map_or(deadline, ms);
        let on = !heartbeat.is_zero() && !deadline.is_zero();
        let config = Config {
            liveness: on.then_some((heartbeat, deadline)),
            run_deadline: millis("MWP_RUN_DEADLINE_MS")?.filter(|&budget| budget != 0).map(ms),
            fleet_secret: var("MWP_FLEET_SECRET").map(String::into_bytes).unwrap_or_default(),
        };
        config.check()?;
        Ok(config)
    }

    /// Refuse a liveness deadline that does not exceed the heartbeat.
    /// [`Config::from_env`] applies it to the environment, the master's
    /// door and the worker's dial to whatever value they are handed.
    pub fn check(&self) -> Result<(), String> {
        match self.liveness {
            Some((heartbeat, deadline)) if deadline <= heartbeat => Err(format!(
                "the liveness deadline ({deadline:?}, MWP_DEADLINE_MS) must exceed the heartbeat \
                 ({heartbeat:?}, MWP_HEARTBEAT_MS): a peer must get several heartbeats per \
                 deadline window or healthy links would be declared dead"
            )),
            _ => Ok(()),
        }
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
        let empty = ["MWP_HEARTBEAT_MS", "MWP_DEADLINE_MS", "MWP_RUN_DEADLINE_MS"];
        assert_eq!(from(&empty.map(|name| (name, ""))), Ok(Config::default()));
        let ms = Duration::from_millis;
        let config = from(&[
            ("MWP_HEARTBEAT_MS", "100"),
            ("MWP_DEADLINE_MS", " 600 "),
            ("MWP_RUN_DEADLINE_MS", "5"),
            ("MWP_FLEET_SECRET", "s3cret"),
        ]);
        let expected = Config {
            liveness: Some((ms(100), ms(600))),
            run_deadline: Some(ms(5)),
            fleet_secret: b"s3cret".to_vec(),
        };
        assert_eq!(config, Ok(expected));
        // Zero switches liveness, and the run budget, off.
        for off in ["MWP_HEARTBEAT_MS", "MWP_DEADLINE_MS"] {
            assert_eq!(from(&[(off, "0")]).unwrap().liveness, None, "{off}=0");
        }
        assert_eq!(from(&[("MWP_RUN_DEADLINE_MS", "0")]).unwrap().run_deadline, None);
    }

    #[test]
    fn a_refused_value_is_an_error_naming_its_variable() {
        for name in ["MWP_HEARTBEAT_MS", "MWP_DEADLINE_MS", "MWP_RUN_DEADLINE_MS"] {
            for bad in ["1.5", "-1", "1s", "fast", "1_000"] {
                let err = from(&[(name, bad)]).expect_err("must be rejected, not defaulted");
                assert!(err.starts_with(name), "{name}={bad}: {err}");
            }
        }
    }

    #[test]
    fn a_deadline_within_the_heartbeat_is_refused_literal_or_env() {
        let ms = Duration::from_millis;
        let from_env = from(&[("MWP_HEARTBEAT_MS", "500"), ("MWP_DEADLINE_MS", "500")]);
        let literal = Config { liveness: Some((ms(500), ms(500))), ..Config::default() };
        assert_eq!(from_env.unwrap_err(), literal.check().unwrap_err());
        // The default deadline counts too: a heartbeat beyond it needs a
        // deadline set with it.
        assert!(from(&[("MWP_HEARTBEAT_MS", "20000")]).is_err());
        // Both doors refuse the literal.
        let listener = crate::TransportListener::bind(TransportMode::Tcp).unwrap();
        let platform = mwp_platform::Platform::homogeneous(1, 1.0, 1.0, 8).unwrap();
        let door = crate::Session::accept_remote(&platform, 0.0, &listener, &literal);
        assert_eq!(door.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
        let wait = Duration::from_secs(5);
        let dial =
            crate::transport::enroll_with_retry(&listener.endpoint(), wait, None, b"", &literal);
        assert_eq!(dial.err().map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    }
}
