//! The threads a held session runs, counted by name from
//! `/proc/self/task/*/comm`: a 2-worker session is a worker thread per
//! worker and, over TCP, an in-pump and an out-pump per link — and
//! nothing else. Liveness is the master's (its out pumps probe idle
//! links and the workers answer inline), so no worker runs a thread for
//! it. A binary of its own, with one test: the census is process-wide.

use mwp_blockmat::fill::random_matrix;
use mwp_core::session::RuntimeSession;
use mwp_msg::TransportMode;
use mwp_platform::Platform;
use std::collections::BTreeSet;
use std::fs;

/// The names of this process's `mwp-*` threads.
fn mwp_threads() -> BTreeSet<String> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("mwp-"))
        .collect()
}

fn names(all: &[&str]) -> BTreeSet<String> {
    all.iter().map(|name| name.to_string()).collect()
}

#[test]
fn a_held_session_runs_its_workers_and_pumps_and_nothing_else() {
    let platform = Platform::homogeneous(2, 4.0, 1.0, 20).unwrap();
    let (a, b, c) = (random_matrix(3, 4, 4, 1), random_matrix(4, 5, 4, 2), random_matrix(3, 5, 4, 3));
    let expected = [
        (TransportMode::Tcp, names(&["mwp-pump-in-0", "mwp-pump-in-1", "mwp-pump-out-0", "mwp-pump-out-1", "mwp-worker-0", "mwp-worker-1"])),
        (TransportMode::Channel, names(&["mwp-worker-0", "mwp-worker-1"])),
    ];
    for (mode, want) in expected {
        let session = RuntimeSession::with_transport(&platform, 0.0, mode);
        session.run_all_workers(&a, &b, c.clone()).expect("the session serves");
        assert_eq!(mwp_threads(), want, "{mode:?}");
        session.shutdown();
    }
}
