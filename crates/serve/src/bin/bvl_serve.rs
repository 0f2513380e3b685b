//! Standalone sweep-fabric daemon.
//!
//! ```text
//! bvl-serve --store DIR [--bind HOST:PORT] [--secret-file F]
//!           [--threads N] [--procs N] [--checkpoint-every N]
//!           [--max-queue N] [--stats-interval SECS]
//!           [--no-persist] [--kill-daemon-on-progress N]
//! bvl-serve --worker --connect HOST:PORT --token N --store DIR
//!           [--secret-file F]
//! ```
//!
//! With `--worker` the binary runs the worker loop instead (this is what
//! the daemon spawns when `--procs` > 0: itself — and what another host
//! runs to join the fabric remotely, with the same `--secret-file` the
//! daemon was started with); `--threads N` runs the same loop on N
//! threads inside the daemon. The daemon prints `listening on <addr>`
//! and runs until a client sends a shutdown request (`bvl-client ADDR
//! --shutdown`). Binding a non-loopback address requires
//! `--secret-file`.
//!
//! The daemon keeps no queue on disk. After it crashes, start it again on
//! the same store and resubmit (`run_all --serve --resume`, or the same
//! `--serve-addr` sweep): finished points are served from the store and
//! a point that was in flight resumes from its checkpoint blob.

use bvl_serve::{auth, worker_main, Daemon, DaemonConfig, FaultPlan, WorkerCmd};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: bvl-serve --store DIR [--bind HOST:PORT] [--secret-file F]\n\
         \x20                [--threads N] [--procs N] [--checkpoint-every N]\n\
         \x20                [--max-queue N] [--stats-interval SECS]\n\
         \x20                [--no-persist] [--kill-daemon-on-progress N]\n\
         \x20      bvl-serve --worker --connect HOST:PORT --token N --store DIR\n\
         \x20                [--secret-file F]"
    );
    std::process::exit(2);
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
    let mut secret_file: Option<PathBuf> = None;
    let mut max_queue = 0usize;
    let mut stats_interval: Option<Duration> = None;
    let mut kill_daemon_on_progress: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--store" => store = Some(val()),
            "--threads" => threads = Some(val().parse().unwrap_or_else(|_| usage())),
            "--procs" => procs = val().parse().unwrap_or_else(|_| usage()),
            "--checkpoint-every" => checkpoint_every = val().parse().unwrap_or_else(|_| usage()),
            "--no-persist" => persist = false,
            "--worker" => worker = true,
            "--connect" => connect = Some(val()),
            "--token" => token = val().parse().unwrap_or_else(|_| usage()),
            "--bind" => bind = val(),
            "--secret-file" => secret_file = Some(PathBuf::from(val())),
            "--max-queue" => max_queue = val().parse().unwrap_or_else(|_| usage()),
            "--stats-interval" => {
                let secs: f64 = val().parse().unwrap_or_else(|_| usage());
                stats_interval = Some(Duration::from_secs_f64(secs));
            }
            "--kill-daemon-on-progress" => {
                kill_daemon_on_progress = Some(val().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    let Some(store) = store else { usage() };

    if worker {
        let Some(addr) = connect else { usage() };
        let secret = match &secret_file {
            Some(path) => match auth::read_secret_file(path) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("bvl-serve worker: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        return match worker_main(&addr, token, &store, secret.as_deref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bvl-serve worker: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Default to in-process workers only when neither kind was requested
    // explicitly — `--threads 0 --procs 0` means "no local workers"
    // (a daemon fed exclusively by remote `--worker` processes).
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
        secret_file,
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
