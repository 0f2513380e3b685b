//! A bad command line ends in a typed error and exit code 2, never in a
//! panic: `run_all` (like every experiment binary, through
//! `ExpOpts::from_args`), its self-exec fabric worker and `difftest` name
//! the flag at fault and print their usage line before they do any work.
//! A `--serve-addr` with no daemon behind it fails the same way, with
//! exit code 1.

use bvl_experiments::SERVE_WORKER_SENTINEL;
use std::net::TcpListener;
use std::process::Command;

#[test]
fn a_bad_flag_exits_2_naming_the_flag() {
    for (args, want) in [
        (
            &["--scale", "huge"][..],
            "error: --scale: unknown scale `huge`",
        ),
        (&["--jobs"][..], "error: --jobs: needs a value"),
        (
            &["--jobs", "two"][..],
            "error: --jobs: needs a positive integer",
        ),
        (&["--bogus"][..], "error: --bogus: unknown argument"),
        (
            &["--secret-file", "s"][..],
            "error: --secret-file: unknown argument",
        ),
        (&["--no-cache"][..], "error: --no-cache: unknown argument"),
        (
            &["--priority", "low"][..],
            "error: --priority: unknown argument",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .output()
            .expect("run run_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: run_all [--scale"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_self_exec_worker_s_bad_flag_exits_2_naming_the_flag() {
    for (args, want) in [
        (&["--bogus"][..], "error: --bogus: unknown argument"),
        (
            &["--connect", "127.0.0.1:9", "--token", "x", "--store", "d"][..],
            "error: --token: needs a non-negative integer, got `x`",
        ),
        (
            &["--token", "1", "--store", "d"][..],
            "error: --connect: is required",
        ),
        (
            &["--connect", "127.0.0.1:9"][..],
            "error: --store: is required",
        ),
        (&["--store"][..], "error: --store: needs a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .arg(SERVE_WORKER_SENTINEL)
            .args(args)
            .output()
            .expect("run run_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: run_all __bvl-serve-worker --connect"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn difftest_names_the_flag_at_fault() {
    for (args, want) in [
        (&["--runs"][..], "error: --runs: needs a value"),
        (
            &["--runs", "many"][..],
            "error: --runs: needs a non-negative integer, got `many`",
        ),
        (&["--seed"][..], "error: --seed: needs a value"),
        (
            &["--seed", "0x1"][..],
            "error: --seed: needs a non-negative integer, got `0x1`",
        ),
        (&["--jobs"][..], "error: --jobs: needs a value"),
        (
            &["--jobs", "-2"][..],
            "error: --jobs: needs a non-negative integer, got `-2`",
        ),
        (&["--bogus"][..], "error: --bogus: unknown argument"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_difftest"))
            .args(args)
            .output()
            .expect("run difftest");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: difftest [--runs"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_serve_addr_with_no_daemon_exits_1_naming_the_address() {
    // A loopback port that was just free refuses connections.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind a loopback port")
        .to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--scale", "tiny", "--jobs", "1", "--serve-addr", &addr])
        .output()
        .expect("run run_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("error: --serve-addr: {addr}: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
