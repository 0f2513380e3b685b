//! Differential-fuzzing campaign driver.
//!
//! Generates `--runs` random RVV programs (seeded by `--seed`, so a
//! campaign is exactly reproducible), fans them across `--jobs` worker
//! threads with [`bvl_experiments::sweep::run_parallel`], and checks each
//! against the architectural oracle on every system via
//! [`bvl_difftest::check_program`]. On the first divergence the program
//! is delta-debugged to a 1-minimal reproducer and printed in the
//! corpus `.s` format, ready to commit under `crates/difftest/corpus/`.
//!
//! Flags:
//!
//! - `--runs N` — number of programs to test (default 100)
//! - `--seed S` — campaign seed (default 0)
//! - `--jobs J` — worker threads (default: available parallelism)
//! - `--emit DIR` — also write every generated program to `DIR` as
//!   `seed_<seed>.s` (corpus curation)
//!
//! Exit status: 0 = all passed, 1 = divergence found, 2 = a generated
//! program was invalid (generator bug) or a bad flag, which prints
//! `error: <flag>: <reason>` and the usage line.

use bvl_difftest::{
    check_program, generate, mix_seed, replay_divergence_tail, shrink, DiffResult, ReplayCache,
};
use bvl_experiments::sweep::{default_jobs, run_parallel};
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: difftest [--runs N] [--seed S] [--jobs J] [--emit DIR]";

/// Prints `error: <flag>: <reason>` and the usage line, then exits 2.
fn fail(flag: &str, reason: &str) -> ! {
    eprintln!("error: {flag}: {reason}\n{USAGE}");
    std::process::exit(2)
}

fn number<T: FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| fail(flag, &format!("needs a non-negative integer, got `{v}`")))
}

fn main() -> ExitCode {
    let mut runs: u64 = 100;
    let mut seed: u64 = 0;
    let mut jobs = default_jobs();
    let mut emit: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || args.next().unwrap_or_else(|| fail(flag, "needs a value"));
        match flag {
            "--runs" => runs = number(flag, &value()),
            "--seed" => seed = number(flag, &value()),
            "--jobs" => jobs = number(flag, &value()),
            "--emit" => emit = Some(PathBuf::from(value())),
            _ => fail(flag, "unknown argument"),
        }
    }

    if let Some(dir) = &emit {
        std::fs::create_dir_all(dir).expect("create --emit dir");
    }

    let indices: Vec<u64> = (0..runs).collect();
    let results = run_parallel(&indices, jobs, |&i| {
        let s = mix_seed(seed, i);
        let prog = generate(s);
        if let Some(dir) = &emit {
            std::fs::write(dir.join(format!("seed_{s:016x}.s")), prog.render())
                .expect("write emitted program");
        }
        (s, check_program(&prog))
    });

    let mut passed = 0u64;
    for (s, result) in &results {
        match result {
            DiffResult::Pass => passed += 1,
            DiffResult::Invalid(why) => {
                eprintln!("seed {s:#018x}: INVALID program ({why})");
                eprintln!("the generator emitted an untestable program — this is a bug");
                return ExitCode::from(2);
            }
            DiffResult::Diverged(d) => {
                eprintln!("seed {s:#018x}: DIVERGENCE on {d}");
                eprintln!("shrinking to a minimal reproducer...");
                let full = generate(*s);
                // `shrink` takes a `&dyn Fn` predicate, so the memo
                // cache rides along in a RefCell.
                let cache = RefCell::new(ReplayCache::new());
                let minimal = shrink(&full, &|p| cache.borrow_mut().still_diverges(p));
                let cache = cache.into_inner();
                let outcome = check_program(&minimal);
                eprintln!(
                    "minimal reproducer ({} of {} lines, {outcome:?}; \
                     {} candidate checks memoized, {} simulated):",
                    minimal.lines.len(),
                    full.lines.len(),
                    cache.hits,
                    cache.misses
                );
                eprintln!("{}", minimal.render());
                if let DiffResult::Diverged(min_d) = &outcome {
                    match replay_divergence_tail(&minimal, min_d.system) {
                        Ok(tr) => eprintln!(
                            "tail replay: checkpoint at cycle {} replays the final {} of \
                             {} cycles byte-identically ({} byte blob)",
                            tr.checkpoint.uncore_cycle(),
                            tr.replayed_cycles,
                            tr.total_cycles,
                            tr.checkpoint.to_bytes().len()
                        ),
                        Err(why) => eprintln!("tail replay unavailable: {why}"),
                    }
                }
                eprintln!("commit it under crates/difftest/corpus/ once fixed");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "difftest: {passed}/{runs} programs passed on all 7 systems (seed {seed}, jobs {jobs})"
    );
    ExitCode::SUCCESS
}
