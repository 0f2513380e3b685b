//! Command-line fabric client: submit one point, print the result.
//!
//! ```text
//! bvl-client ADDR --system KEY --workload NAME --scale NAME
//!            [--gather-locality N] [--sampled] [--no-skip]
//! bvl-client ADDR --stats
//! bvl-client ADDR --shutdown
//! ```
//!
//! The result prints as a JSON object of its `wall_ns`, its `stats` as
//! `[path, value]` pairs and its `sampling` (`null` for an exact run), so
//! `bvl-client | jq` composes with the sweep's artifacts. `--stats`
//! prints the daemon's utilization line. A bad flag prints `error:
//! <flag>: <reason>` and the usage line, and exits 2.

use bvl_serve::{Client, PointSpec, WorkloadSpec};
use bvl_sim::{RunResult, SamplingParams, SimParams, SystemKind};
use bvl_workloads::Scale;
use serde_json::Value;
use std::process::ExitCode;

const USAGE: &str = "usage: bvl-client ADDR --system KEY --workload NAME --scale NAME
                  [--gather-locality N] [--sampled] [--no-skip]
       bvl-client ADDR --stats
       bvl-client ADDR --shutdown";

/// Prints `error: <flag>: <reason>` and the usage line, then exits 2.
fn fail(flag: &str, reason: &str) -> ! {
    eprintln!("error: {flag}: {reason}\n{USAGE}");
    std::process::exit(2)
}

/// `r` as the JSON object this client prints.
fn result_json(r: &RunResult) -> Value {
    let map = |fields: Vec<(&str, Value)>| {
        Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let stats = r
        .stats
        .iter()
        .map(|(path, v)| Value::Seq(vec![Value::Str(path.to_string()), Value::U64(v)]))
        .collect();
    let sampling = r.sampling.as_ref().map_or(Value::Null, |s| {
        map(vec![
            ("period_instrs", Value::U64(s.period_instrs)),
            ("window_instrs", Value::U64(s.window_instrs)),
            ("total_instrs", Value::U64(s.total_instrs)),
            ("windows_measured", Value::U64(s.windows_measured)),
            ("windows_truncated", Value::U64(s.windows_truncated)),
            ("ci_halfwidth_ns", Value::F64(s.ci_halfwidth_ns)),
            ("exact_fallback", Value::Bool(s.exact_fallback)),
        ])
    });
    map(vec![
        ("wall_ns", Value::F64(r.wall_ns)),
        ("stats", Value::Seq(stats)),
        ("sampling", sampling),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = match args.first() {
        Some(a) if !a.starts_with("--") => a.clone(),
        _ => fail("ADDR", "the daemon's address comes first"),
    };
    let mut system: Option<SystemKind> = None;
    let mut workload: Option<String> = None;
    let mut scale_name = "default".to_string();
    let mut scale = Scale::default_eval();
    let mut gather_locality: Option<u64> = None;
    let mut sampled = false;
    let mut no_skip = false;
    let mut shutdown = false;
    let mut stats = false;

    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut val = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(flag, "needs a value"))
        };
        match flag {
            "--system" => {
                let v = val();
                let kind = SystemKind::ALL.into_iter().find(|k| k.label() == v);
                system = Some(kind.unwrap_or_else(|| {
                    fail(
                        flag,
                        &format!(
                            "unknown system `{v}` (one of: 1L 1b 1bIV 1b-4L 1bIV-4L 1bDV 1b-4VL)"
                        ),
                    )
                }));
            }
            "--workload" => workload = Some(val()),
            "--scale" => {
                scale_name = val();
                scale = Scale::by_name(&scale_name).unwrap_or_else(|| {
                    fail(
                        flag,
                        &format!("unknown scale `{scale_name}` (use tiny, default or large)"),
                    )
                });
            }
            "--gather-locality" => {
                let v = val();
                let n = v.parse().unwrap_or_else(|_| {
                    fail(flag, &format!("needs a non-negative integer, got `{v}`"))
                });
                gather_locality = Some(n);
            }
            "--sampled" => sampled = true,
            "--no-skip" => no_skip = true,
            "--shutdown" => shutdown = true,
            "--stats" => stats = true,
            _ => fail(flag, "unknown argument"),
        }
    }

    // A point needs a system and a workload; `--stats` and `--shutdown`
    // do not.
    let spec = (!stats && !shutdown).then(|| {
        let Some(kind) = system else {
            fail("--system", "is required to submit a point")
        };
        let Some(workload) = workload else {
            fail("--workload", "is required to submit a point")
        };
        let (spec_workload, workload_key) = match gather_locality {
            Some(locality) => (
                WorkloadSpec::Gather { locality, scale },
                format!("gather-loc{locality}@{scale_name}"),
            ),
            None => (
                WorkloadSpec::Named {
                    name: workload.clone(),
                    scale,
                },
                format!("{workload}@{scale_name}"),
            ),
        };
        let params = SimParams {
            no_skip,
            sampling: sampled.then(SamplingParams::default),
            ..SimParams::default()
        };
        PointSpec {
            system: kind,
            workload_key,
            workload: spec_workload,
            params,
        }
    });

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bvl-client: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if stats {
        return match client.stats() {
            Ok(report) => {
                println!("{}", report.utilization_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bvl-client: stats: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if shutdown {
        return match client.shutdown() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bvl-client: shutdown: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let spec = spec.expect("built unless --stats or --shutdown");
    match client.run_points(std::slice::from_ref(&spec)) {
        Ok(results) => {
            let r = &results[0];
            let text =
                serde_json::to_string_pretty(&result_json(&r.result)).expect("encode result");
            println!("{text}");
            eprintln!(
                "cache_hit={} resumed={} host_secs={:.3}",
                r.cache_hit, r.resumed, r.host_secs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bvl-client: {e}");
            ExitCode::FAILURE
        }
    }
}
