//! The `experiments` binary's argument contract: `quick` and experiment
//! names select what runs; anything else is a usage error, not a silent
//! full-fidelity run or an empty report. And the tables themselves: the
//! simulator is deterministic, so `docs/experiments.txt` is the binary's
//! full-fidelity stdout, byte for byte.

use mwp_bench::experiments::ALL;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

/// Titles of the tables a successful run printed.
fn tables(out: &Output) -> Vec<String> {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(str::to_owned)
        .collect()
}

#[test]
fn quick_runs_the_whole_list() {
    let out = experiments(&["quick"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("Quick fidelity"));
    assert_eq!(tables(&out).len(), ALL.len());
}

#[test]
fn a_name_runs_that_experiment_alone() {
    let titles = tables(&experiments(&["quick", "e8"]));
    assert_eq!(titles.len(), 1, "{titles:?}");
    assert!(titles[0].starts_with("E8 "), "{titles:?}");
}

#[test]
fn unknown_arguments_exit_2_naming_the_valid_ones() {
    for bad in ["bogus", "e99"] {
        let out = experiments(&[bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(
            out.stdout.is_empty(),
            "{bad}: nothing may run before the rejection"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            ALL.iter().all(|(name, _)| stderr.contains(name)),
            "{bad}: {stderr}"
        );
    }
}

/// Any change to the model shows up as a `git diff` of the committed
/// tables. Refresh them with
/// `cargo run --release -p mwp-bench --bin experiments > docs/experiments.txt`.
#[test]
fn committed_tables_are_what_a_full_run_prints() {
    let out = experiments(&[]);
    assert!(out.status.success());
    let fresh = String::from_utf8(out.stdout).expect("tables are UTF-8");
    let committed = include_str!("../../../docs/experiments.txt");
    for (n, (fresh, committed)) in fresh.lines().zip(committed.lines()).enumerate() {
        assert_eq!(fresh, committed, "docs/experiments.txt is stale at line {}", n + 1);
    }
    assert_eq!(fresh.lines().count(), committed.lines().count(), "docs/experiments.txt is stale");
}
