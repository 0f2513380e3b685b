//! Smoke test: every workload, untraced and traced, in `--smoke` mode
//! (tiny inputs, one round, ten points; not for measurement). The runs
//! must pass their checks and report exactly the metrics `BENCHMARK.json`
//! names, with its units.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(doc: &'a Value, section: &str) -> Vec<&'a Value> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bvl-bench"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("bvl-bench runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn smoke_runs_report_every_metric_and_pass_their_checks() {
    let start = Instant::now();
    let doc = benchmark_json();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-smoke");
    let out = out.to_str().expect("utf-8 path");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = names(&doc, section);
        for w in names(&doc, "workloads") {
            let w = w
                .get("name")
                .and_then(Value::as_str)
                .expect("workload name");
            let args = [
                "run",
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
                "--out",
                out,
            ];
            let (ok, stdout) = run(&args);
            let last = stdout.lines().last().unwrap_or_default();
            let line: Value = serde_json::from_str(last)
                .unwrap_or_else(|e| panic!("{w} trace {trace}: last line `{last}`: {e}"));
            assert!(ok, "{w} trace {trace} exited non-zero: {last}");
            assert_eq!(
                line.get("correct").and_then(Value::as_bool),
                Some(true),
                "{last}"
            );
            assert_eq!(
                line.get("failed").and_then(Value::as_u64),
                Some(0),
                "{last}"
            );
            assert!(
                line.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{last}"
            );
            let Some(Value::Map(metrics)) = line.get("metrics") else {
                panic!("{w} trace {trace}: no metrics in {last}");
            };
            let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let named: Vec<&str> = expected
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("metric name"))
                .collect();
            assert_eq!(reported, named, "{w} trace {trace}");
            for (m, spec) in metrics.iter().map(|(_, m)| m).zip(&expected) {
                assert_eq!(m.get("unit"), spec.get("unit"), "{w}: unit of {spec:?}");
                let v = m.get("value").and_then(Value::as_f64);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{w}: value of {spec:?} is {v:?}"
                );
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "smoke runs took {:?}",
        start.elapsed()
    );
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["run", "--workload", "no-such-workload"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "soon"],
        &["compare", "only-one.jsonl"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}
