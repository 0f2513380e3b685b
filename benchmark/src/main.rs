//! # bvl-bench — end-to-end and per-layer benchmark of the reproduction
//!
//! One seeded command measures what a user of the reproduction waits
//! for: regenerating an artifact's points exactly, in `--sampled` mode
//! (and how far those estimates land from the exact values), and through
//! the sweep fabric. `--trace 1` re-runs the same points through each
//! layer with a span around every call and reports per-layer metrics.
//! Workloads, metrics, the layer-to-end-to-end map, measured spread and
//! how to compare two commits are in `README.md` next to this package's
//! manifest.

mod compare;
mod matrix;
mod measure;
mod stats;
mod traced;

use measure::{Metric, RunArgs, Tally};
use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bvl-bench run [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
  bvl-bench compare A.jsonl B.jsonl [--bounds BENCHMARK.json]";

fn main() -> ExitCode {
    // The served pass's daemon spawns its worker processes by re-executing
    // this binary behind the sentinel; `from_args` runs the worker loop
    // and exits without returning.
    if std::env::args().nth(1).as_deref() == Some(bvl_experiments::SERVE_WORKER_SENTINEL) {
        bvl_experiments::ExpOpts::from_args();
        unreachable!("the fabric worker loop exits the process");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|cli| cli_run(&cli)),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(String::new()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("bvl-bench: {e}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunCli {
    workloads: Vec<&'static matrix::WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunCli, String> {
    let mut cli = RunCli {
        workloads: Vec::new(),
        seed: matrix::DEFAULT_SEED,
        seconds: 45.0,
        trace: false,
        out: PathBuf::from(".bench_build/bvl-bench"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let def = matrix::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = matrix::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?;
                cli.workloads.push(def);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed needs an unsigned integer: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, not `{v}`")),
                };
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = matrix::WORKLOADS.iter().collect();
    }
    Ok(cli)
}

fn cli_run(cli: &RunCli) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("create {}: {e}", cli.out.display()))?;
    if let [def] = cli.workloads[..] {
        return Ok(run_one(cli, def));
    }
    // Several workloads: each runs in a child process of its own, so peak
    // memory and set-up are per workload.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut combined = Vec::new();
    for def in &cli.workloads {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", def.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&cli.out);
        if cli.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        all_ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        combined.push((
            def.name.to_string(),
            serde_json::from_str(last).unwrap_or(Value::Null),
        ));
    }
    let sum = |key: &str| {
        combined
            .iter()
            .map(|(_, v)| v.get(key).and_then(Value::as_u64).unwrap_or(0))
            .sum::<u64>()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let metrics: Vec<(String, Value)> = combined
        .iter()
        .flat_map(|(w, v)| match v.get("metrics") {
            Some(Value::Map(ms)) => ms
                .iter()
                .map(|(k, m)| (format!("{w}.{k}"), m.clone()))
                .collect(),
            _ => Vec::new(),
        })
        .collect();
    print_last_line(all_ok, attempted, failed, Value::Map(metrics));
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one(cli: &RunCli, def: &'static matrix::WorkloadDef) -> ExitCode {
    let args = RunArgs {
        def,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out: cli.out.clone(),
        smoke: cli.smoke,
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced::run(&args, &mut tally)
    } else {
        measure::run(&args, &mut tally)
    };
    let correct = tally.correct();
    for m in tally.mismatches.iter().take(20) {
        eprintln!("CHECK FAILED: {m}");
    }
    if tally.mismatches.len() > 20 {
        eprintln!("... and {} more failed checks", tally.mismatches.len() - 20);
    }
    eprintln!(
        "\n{} seed {} ({}): {} attempted, {} failed, checks {}",
        def.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed,
        if correct { "passed" } else { "FAILED" }
    );
    eprintln!("{:<28} {:>14} {:<9} {:>5}", "metric", "value", "unit", "n");
    for m in &metrics {
        eprintln!(
            "{:<28} {:>14.6} {:<9} {:>5}",
            m.name,
            m.value,
            m.unit,
            m.samples.len()
        );
    }
    if let Err(e) = append_record(&args, &tally, &metrics) {
        eprintln!("bvl-bench: {e}");
    }
    let metrics_json = Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    print_last_line(correct, tally.attempted, tally.failed, metrics_json);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_last_line(correct: bool, attempted: u64, failed: u64, metrics: Value) {
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", serde_json::to_string(&line).expect("JSON rendering"));
}

/// Appends the run's full record — every sample behind every metric —
/// to `<out>/runs.jsonl`, the ledger `bvl-bench compare` reads.
fn append_record(args: &RunArgs, tally: &Tally, metrics: &[Metric]) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rounds = if args.trace {
        1
    } else {
        args.def.rounds(args.seconds)
    };
    let record = Value::Map(vec![
        ("workload".into(), Value::Str(args.def.name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("rounds".into(), Value::U64(rounds as u64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("jobs".into(), Value::U64(measure::JOBS as u64)),
        ("correct".into(), Value::Bool(tally.correct())),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        (
            "checks_failed".into(),
            Value::Seq(
                tally
                    .mismatches
                    .iter()
                    .map(|m| Value::Str(m.clone()))
                    .collect(),
            ),
        ),
        (
            "metrics".into(),
            Value::Map(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::Map(vec![
                                ("value".into(), Value::F64(m.value)),
                                ("unit".into(), Value::Str(m.unit.into())),
                                ("n".into(), Value::U64(m.samples.len() as u64)),
                                (
                                    "samples".into(),
                                    Value::Seq(m.samples.iter().map(|&s| Value::F64(s)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join("runs.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(
        f,
        "{}",
        serde_json::to_string(&record).expect("JSON rendering")
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}
