//! The `samr-dlb-run` binary's argument checks, run as a user would run it.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_samr-dlb-run"))
        .args(args)
        .output()
        .expect("run samr-dlb-run")
}

/// A γ that makes the gate meaningless is a usage error (exit 2) naming
/// the flag: a negative one admits every imbalance with positive gain, NaN
/// admits none.
#[test]
fn gamma_below_zero_or_nan_is_a_usage_error() {
    for bad in ["-1", "nan"] {
        let out = run(&["--gamma", bad]);
        assert_eq!(out.status.code(), Some(2), "--gamma {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--gamma"), "--gamma {bad}: {stderr}");
    }
}

/// An empty domain (`--n0` below 1) or an empty hierarchy (`--levels 0`)
/// is a usage error naming the flag, not a panic in `Driver::new`.
#[test]
fn empty_domain_or_hierarchy_is_a_usage_error() {
    for (flag, bad) in [("--levels", "0"), ("--n0", "0"), ("--n0", "-4")] {
        let out = run(&[flag, bad]);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {bad}: {stderr}");
    }
}

/// `--procs 0` is a usage error naming the flag, not a silent run of a
/// one-processor-per-site system.
#[test]
fn zero_procs_is_a_usage_error() {
    let out = run(&["--procs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--procs"), "{stderr}");
}

/// A value that does not parse as a number is a usage error whose message
/// names its flag and the value.
#[test]
fn unparsable_numbers_name_their_flag() {
    for (flag, bad) in [
        ("--seed", "-1"),
        ("--steps", "x"),
        ("--procs", "two"),
        ("--n0", "1.5"),
        ("--levels", "-"),
        ("--gamma", "fast"),
    ] {
        let out = run(&[flag, bad]);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(bad),
            "{flag} {bad}: {stderr}"
        );
    }
}

/// `inf` is Ablation A's "never redistribute" and stays accepted.
#[test]
fn gamma_inf_runs() {
    let out = run(&[
        "--gamma", "inf", "--n0", "8", "--steps", "1", "--levels", "2", "--procs", "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
