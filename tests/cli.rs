//! `mwp-run`'s exit status is its contract with scripts: 0 on success,
//! 1 when `--execute` did not produce a verified product or the
//! `--platform-file` simulation could not run, 2 on a usage error — never a panic (101) and never a silent 0 after a failure.

use std::process::{Command, Output};

/// Scratch directory the runs start in, so a platform file is named by
/// a relative path.
const DIR: &str = env!("CARGO_TARGET_TMPDIR");

/// Run `mwp-run` with the whitespace-separated `args` and assert its
/// exit status.
fn assert_exit(args: &str, code: i32) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_mwp-run"))
        .args(args.split_whitespace())
        .current_dir(DIR)
        .output()
        .expect("spawn mwp-run");
    assert_eq!(
        out.status.code(),
        Some(code),
        "mwp-run {args}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn zero_dimensions_are_usage_errors() {
    assert_exit("--q 0", 2);
    for blocks in ["0x2x2", "2x0x2", "2x2x0"] {
        assert_exit(&format!("--blocks {blocks}"), 2);
    }
}

#[test]
fn a_real_run_that_fails_or_is_refused_exits_1() {
    // m = 3 holds no µ ≥ 1: simulation and real run both report it.
    let out = assert_exit("--workers 2 --blocks 2x2x2 --q 4 --mem 3 --execute", 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("real execution failed"));

    // 41·40·40 = 65 600 block updates, over the 64 000 a real run accepts.
    let out = assert_exit("--blocks 41x40x40 --q 4 --execute", 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--execute skipped"));
}

#[test]
fn a_verified_real_run_exits_0() {
    let out = assert_exit(
        "--workers 2 --blocks 3x4x5 --q 8 --mem 60 --c 4.0 --w 1.0 --execute",
        0,
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified"));
}

#[test]
fn platform_file_rejects_the_flags_it_would_ignore() {
    let file = "cli_het_platform.txt";
    std::fs::write(
        std::path::Path::new(DIR).join(file),
        "2.0 2.0 60\n3.0 3.0 396\n5.0 1.0 140\n",
    )
    .unwrap();
    let base = format!("--platform-file {file} --blocks 8x4x10 --q 8");
    assert_exit(&base, 0);
    for ignored in ["--execute", "--gantt", "--two-port", "--algorithm HoLM"] {
        assert_exit(&format!("{base} {ignored}"), 2);
    }
}

#[test]
fn a_fleet_with_no_usable_memory_exits_1() {
    // m = 4 and 3 hold no µ_i ≥ 1: reported like the homogeneous case,
    // not the selection's assertion (exit 101).
    let file = "cli_tiny_platform.txt";
    std::fs::write(std::path::Path::new(DIR).join(file), "1.0 1.0 4\n2.0 1.0 3\n").unwrap();
    let out = assert_exit(&format!("--platform-file {file} --blocks 4x4x4 --q 8"), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulation failed"));
}
