//! A bad command line ends in a typed error and exit code 2, never in a
//! panic: `run_all` (like every experiment binary, through
//! `ExpOpts::from_args`) names the flag at fault and prints its usage
//! line before it does any work.

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
