//! What the out-of-process suites share: one fleet secret handed to both
//! sides — the masters as a literal [`Config`], the `mwp-worker`
//! processes as their environment — and the spawn/reap helpers. Nothing
//! here (or in the suites) touches this process's environment.
#![allow(dead_code)] // each suite uses its own subset

use mwp_msg::config::Config;
use std::process::{Child, Command, Stdio};

/// The fleet secret of every suite.
pub const SECRET: &str = "worker-e2e-secret";

/// What every master accepts its fleet under.
pub fn fleet() -> Config {
    Config { fleet_secret: SECRET.into(), ..Config::default() }
}

/// One worker process dialing `endpoint` as a member of [`fleet`], with
/// `MWP_FAULT` set to `fault` if non-empty.
pub fn worker_command(endpoint: &str, fault: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mwp-worker"));
    cmd.args(["--connect", endpoint, "--wait-ms", "10000"])
        .env("MWP_FLEET_SECRET", SECRET)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if !fault.is_empty() {
        cmd.env("MWP_FAULT", fault);
    }
    cmd
}

/// Launch [`worker_command`].
pub fn spawn_worker(endpoint: &str, fault: &str) -> Child {
    worker_command(endpoint, fault).spawn().expect("spawn mwp-worker")
}

/// Every worker process must have exited successfully (status 0 — an
/// orderly shutdown, not a crash or an enrollment failure).
pub fn reap(children: Vec<Child>) {
    for mut child in children {
        let status = child.wait().expect("wait for mwp-worker");
        assert!(status.success(), "mwp-worker exited with {status}");
    }
}

/// A faulty or rejected worker must have exited non-zero — anything else
/// means its fault never fired (or the master's door opened for it) and
/// the test proved nothing.
pub fn reap_failed(mut child: Child, what: &str) {
    let status = child.wait().expect("wait for the failing mwp-worker");
    assert!(!status.success(), "{what}: the worker exited cleanly");
}
