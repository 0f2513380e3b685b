//! Standalone sweep-fabric daemon.
//!
//! ```text
//! bvl-serve --store DIR [--bind HOST:PORT]
//!           [--threads N] [--procs N] [--checkpoint-every N]
//!           [--max-queue N] [--stats-interval SECS]
//!           [--no-persist] [--kill-daemon-on-progress N]
//! bvl-serve --worker --connect HOST:PORT --token N --store DIR
//! ```
//!
//! With `--worker` the binary runs the worker loop instead (this is what
//! the daemon spawns when `--procs` > 0: itself — and what joins a
//! running daemon by hand on the same host); `--threads N` runs the same
//! loop on N threads inside the daemon. The daemon prints `listening on
//! <addr>` and runs until a client sends a shutdown request (`bvl-client
//! ADDR --shutdown`). It binds loopback only: a `--bind` address that
//! is not loopback is refused. A bad flag prints `error: <flag>:
//! <reason>` and the usage line, and exits 2.
//!
//! The daemon keeps no queue on disk. After it crashes, start it again on
//! the same store and resubmit (`run_all --serve --resume`, or the same
//! `--serve-addr` sweep): finished points are served from the store and
//! a point that was in flight resumes from its checkpoint blob.

use bvl_serve::{worker_main, Daemon, DaemonConfig, FaultPlan, WorkerCmd};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "usage: bvl-serve --store DIR [--bind HOST:PORT]
                 [--threads N] [--procs N] [--checkpoint-every N]
                 [--max-queue N] [--stats-interval SECS]
                 [--no-persist] [--kill-daemon-on-progress N]
       bvl-serve --worker --connect HOST:PORT --token N --store DIR";

/// Prints `error: <flag>: <reason>` and the usage line, then exits 2.
fn fail(flag: &str, reason: &str) -> ! {
    eprintln!("error: {flag}: {reason}\n{USAGE}");
    std::process::exit(2)
}

fn number<T: FromStr>(flag: &str, v: &str, what: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| fail(flag, &format!("needs {what}, got `{v}`")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut procs = 0usize;
    let mut checkpoint_every = 4096u64;
    let mut persist = true;
    let mut worker = false;
    let mut connect: Option<String> = None;
    let mut token = 0u64;
    let mut bind = "127.0.0.1:0".to_string();
    let mut max_queue = 0usize;
    let mut stats_interval: Option<Duration> = None;
    let mut kill_daemon_on_progress: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut val = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(flag, "needs a value"))
        };
        let count = "a non-negative integer";
        match flag {
            "--store" => store = Some(val()),
            "--threads" => threads = Some(number(flag, &val(), count)),
            "--procs" => procs = number(flag, &val(), count),
            "--checkpoint-every" => checkpoint_every = number(flag, &val(), count),
            "--no-persist" => persist = false,
            "--worker" => worker = true,
            "--connect" => connect = Some(val()),
            "--token" => token = number(flag, &val(), count),
            "--bind" => bind = val(),
            "--max-queue" => max_queue = number(flag, &val(), count),
            "--stats-interval" => {
                let v = val();
                let secs = v
                    .parse()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok());
                stats_interval = Some(secs.unwrap_or_else(|| {
                    fail(flag, &format!("needs a number of seconds, got `{v}`"))
                }));
            }
            "--kill-daemon-on-progress" => {
                kill_daemon_on_progress = Some(number(flag, &val(), count));
            }
            _ => fail(flag, "unknown argument"),
        }
    }
    let Some(store) = store else {
        fail("--store", "is required")
    };

    if worker {
        let Some(addr) = connect else {
            fail("--connect", "is required with --worker")
        };
        return match worker_main(&addr, token, &store) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bvl-serve worker: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Default to in-process workers only when neither kind was requested
    // explicitly — `--threads 0 --procs 0` means "no workers of its own"
    // (a daemon fed only by `--worker` processes started by hand).
    let threads = match threads {
        Some(n) => n,
        None if procs == 0 => std::thread::available_parallelism().map_or(2, |n| n.get()),
        None => 0,
    };
    let worker_cmd = (procs > 0).then(|| WorkerCmd {
        program: std::env::current_exe().expect("current_exe"),
        args: vec!["--worker".into()],
    });
    let daemon = match Daemon::start(DaemonConfig {
        threads,
        procs,
        worker_cmd,
        store_dir: PathBuf::from(&store),
        persist,
        checkpoint_every,
        fault_plan: FaultPlan {
            kill_daemon_on_progress,
            ..FaultPlan::default()
        },
        bind,
        max_queue,
        stats_interval,
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bvl-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", daemon.addr());
    // Tests parse this line from a piped stdout; make sure it is not
    // stuck in a block-buffered pipe.
    std::io::stdout().flush().ok();
    daemon.wait();
    ExitCode::SUCCESS
}
