//! A bad command line ends in a named error and exit code 2, never in a
//! panic or a bare usage line: `bvl-serve` and `bvl-client` name the flag
//! at fault and print their usage line before they bind, connect or run
//! anything.

use std::process::Command;

fn assert_rejected(program: &str, bin: &str, cases: &[(&[&str], &str)]) {
    for &(args, want) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {program} ")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn bvl_serve_names_the_flag_at_fault() {
    assert_rejected(
        "bvl-serve",
        env!("CARGO_BIN_EXE_bvl-serve"),
        &[
            (
                &["--store", "d", "--secret-file", "s"],
                "error: --secret-file: unknown argument",
            ),
            (&["--store"], "error: --store: needs a value"),
            (
                &["--store", "d", "--threads", "two"],
                "error: --threads: needs a non-negative integer, got `two`",
            ),
            (
                &["--store", "d", "--stats-interval", "-1"],
                "error: --stats-interval: needs a number of seconds, got `-1`",
            ),
            (&["--threads", "1"], "error: --store: is required"),
            (
                &["--worker", "--store", "d"],
                "error: --connect: is required with --worker",
            ),
        ],
    );
}

#[test]
fn bvl_client_names_the_flag_at_fault() {
    let addr = "127.0.0.1:9";
    assert_rejected(
        "bvl-client",
        env!("CARGO_BIN_EXE_bvl-client"),
        &[
            (
                &[addr, "--stats", "--secret-file", "s"],
                "error: --secret-file: unknown argument",
            ),
            (&["--stats"], "error: ADDR: "),
            (
                &[addr, "--system", "2b"],
                "error: --system: unknown system `2b`",
            ),
            (
                &[addr, "--scale", "huge"],
                "error: --scale: unknown scale `huge`",
            ),
            (
                &[addr, "--stats", "--priority", "urgent"],
                "error: --priority: needs high, normal or low, got `urgent`",
            ),
            (
                &[addr, "--gather-locality", "x"],
                "error: --gather-locality: needs a non-negative integer, got `x`",
            ),
            (&[addr, "--workload"], "error: --workload: needs a value"),
            (
                &[addr, "--workload", "vvadd"],
                "error: --system: is required to submit a point",
            ),
        ],
    );
}
