//! `mwp-worker` — an out-of-process worker for the master-worker
//! runtimes.
//!
//! Dials a master's transport listener, enrolls (sending a fingerprint
//! naming this binary's version and its dispatched compute kernel), and
//! serves `RUN_BEGIN`/`RUN_END`-delimited session runs over the socket
//! until the master shuts the session down. Which program it runs is the
//! master's choice, carried in the enrollment welcome's service id:
//! the matrix-product block server (`SERVICE_MATRIX`) or the LU op
//! server (`SERVICE_LU`).
//!
//! ```text
//! mwp-worker --connect tcp://192.168.0.10:4455
//! mwp-worker --connect uds:/tmp/mwp-master.sock --wait-ms 10000
//! mwp-worker --connect tcp://127.0.0.1:4455 --reconnect
//! ```
//!
//! The process exits 0 after an orderly shutdown (shutdown frame or the
//! master closing the connection), and non-zero on connect/enroll
//! failures or an unknown service id. With `--reconnect` the worker
//! re-dials the listener after each orderly session close — an elastic
//! fleet member that enrolls into whatever session is accepting next —
//! and exits 0 once the listener stays unreachable for the `--wait-ms`
//! window (the master is gone for good).
//!
//! Enrollment is authenticated: the worker answers the master's
//! challenge with an HMAC over the shared fleet secret
//! (`MWP_FLEET_SECRET` — must match the master's). An authentication,
//! protocol-version, or membership-epoch rejection fails fast with a
//! non-zero exit instead of retrying against a door that will never
//! open.
//!
//! Setting `MWP_FAULT` (e.g. `kill:40`, `drop:25`, `delay:10:500`,
//! `truncate:12`) puts the deterministic fault trigger on the socket's
//! send path — how the chaos tests make *this* worker the one that dies.
//! The data-plane faults `corrupt:<n>` (flip one bit of the nth outbound
//! frame, caught by the CRC32C trailer) and `stale:<n>` (replay a
//! captured previous-generation frame, rejected by the run-generation
//! tag) exercise the integrity layer; the handshake-stage faults
//! `badhello` / `badauth` corrupt the enrollment itself, exercising the
//! master's rejection path.
//!
//! Setting `MWP_TRACE=json:<path>` turns on the span recorder in *this*
//! process: the worker's compute, kernel, and pack spans stream to the
//! given Chrome-trace file (flushed at every run close and at shutdown),
//! giving the measured half of the sim-vs-real replay harness even when
//! workers live in separate processes. Point each worker at its own
//! path — the recorder appends, it does not merge writers.

use mwp_msg::config::Config;
use mwp_msg::transport::{self, SERVICE_LU, SERVICE_MATRIX};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    endpoint: String,
    wait_ms: u64,
    reconnect: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mwp-worker --connect <tcp://host:port | uds:/path> [--wait-ms <ms>] [--reconnect]\n\
         \n\
         Dials the master's listener, enrolls, and serves session runs\n\
         until the master shuts the session down. --wait-ms (default\n\
         5000) bounds how long to retry while the master is not yet\n\
         listening. --reconnect re-dials after an orderly session close\n\
         (exit 0 when the listener stays gone for the --wait-ms window)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut endpoint = None;
    let mut wait_ms = 5000u64;
    let mut reconnect = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => endpoint = args.next(),
            "--wait-ms" => {
                wait_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--reconnect" => reconnect = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    match endpoint {
        Some(endpoint) => Args { endpoint, wait_ms, reconnect },
        None => usage(),
    }
}

/// Dial, enroll, and serve one full session. `Ok(())` is an orderly
/// close; `Err` is a connect/enroll/service failure worth a non-zero
/// exit (unless a `--reconnect` worker has already served a session and
/// the master is simply gone).
fn serve_one_session(args: &Args, fingerprint: &str, config: &Config) -> Result<(), String> {
    // One retry loop covers dial + handshake: transient failures (the
    // listener not up yet, churn mid-accept) back off and retry, while
    // an authentication/version/epoch rejection fails fast — it will
    // not change on retry.
    let (ep, welcome) = transport::enroll_with_retry(
        &args.endpoint,
        Duration::from_millis(args.wait_ms),
        None,
        fingerprint.as_bytes(),
        config,
    )
    .map_err(|e| format!("enrollment at {} failed: {e}", args.endpoint))?;
    eprintln!(
        "mwp-worker: enrolled as worker {} (c = {}, w = {}, m = {}, service = {}, epoch = {})",
        welcome.worker.index(),
        welcome.c,
        welcome.w,
        welcome.m,
        welcome.service,
        welcome.epoch,
    );
    match welcome.service {
        SERVICE_MATRIX => mwp_core::remote::serve(ep, welcome.m as usize),
        SERVICE_LU => mwp_lu::runtime::serve_remote(ep),
        other => return Err(format!("master asked for unknown service id {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    // The deployment's settings, read from the environment once: the
    // fleet secret, the liveness terms and (chaos tests) the fault.
    let config = Config::from_env().unwrap_or_else(|msg| {
        eprintln!("mwp-worker: {msg}");
        std::process::exit(2)
    });
    // The fingerprint the master records for this connection: binary
    // version plus the dispatched kernel, so a master log can spot a
    // worker that would compute with different arithmetic.
    let fingerprint = format!(
        "mwp-worker/{} kernel={}",
        env!("CARGO_PKG_VERSION"),
        mwp_blockmat::kernel::active().name()
    );
    let mut sessions_served = 0u64;
    loop {
        match serve_one_session(&args, &fingerprint, &config) {
            Ok(()) => {
                sessions_served += 1;
                if !args.reconnect {
                    eprintln!("mwp-worker: session closed, exiting");
                    return ExitCode::SUCCESS;
                }
                eprintln!("mwp-worker: session closed, re-dialing {}", args.endpoint);
            }
            Err(msg) => {
                // A --reconnect worker that has already served at least
                // one session treats an unreachable master as the end of
                // its useful life, not an error.
                if args.reconnect && sessions_served > 0 {
                    eprintln!("mwp-worker: {msg}; served {sessions_served} session(s), exiting");
                    return ExitCode::SUCCESS;
                }
                eprintln!("mwp-worker: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
}
