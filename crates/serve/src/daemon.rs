//! The sweep-fabric daemon: a loopback listener, workers and fault
//! injection around the scheduler core.
//!
//! One [`Daemon`] owns a listener and the [`crate::sched::Sched`] that
//! makes every scheduling decision (see that module). It turns socket
//! traffic into calls on the core, under one mutex, and sends the
//! replies the core returns; a submission without a checkpoint cadence
//! gets the daemon's before it reaches the core.
//!
//! The daemon serves one host: it binds loopback only. Every worker
//! speaks the [`crate::proto`] protocol over one connection: the
//! daemon's own in-process workers ([`worker_main`] on a thread), the
//! worker processes it spawns, and `bvl-serve --worker` processes
//! started by hand. One dispatcher thread per worker feeds it
//! assignments. Nothing preempts a running point, and the daemon
//! **survives worker death**: a dead worker loses at most one
//! checkpoint interval — the point is requeued and resumed from its last
//! persisted blob, and (for daemon-spawned processes only) a replacement
//! is spawned. Other workers that vanish are simply deregistered.
//!
//! A [`FaultPlan`] makes that deterministic under test: kill a specific
//! worker — or abort the daemon itself — on the *n*-th progress report.

use crate::proto::{self, Msg, ProtoError};
use crate::sched::{FabricReport, FabricStats, Replies, Sched};
use crate::spec::PointSpec;
use crate::worker::worker_main;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a fresh connection gets to send its first frame before the
/// daemon gives up on it: an idle or hostile peer must not pin a routing
/// thread forever.
const FIRST_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// How to launch one worker process: a program plus leading arguments.
/// The daemon appends `--connect <addr> --token <n> --store <dir>`.
#[derive(Debug, Clone)]
pub struct WorkerCmd {
    /// Program to execute (typically `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments placed before the daemon-supplied ones (e.g. a
    /// self-exec sentinel like `__bvl-serve-worker`).
    pub args: Vec<String>,
}

/// Deterministic fault injection, keyed by worker token. Tokens are
/// assigned sequentially from 1, to the in-process workers first and
/// then to each spawned process; respawned replacements get fresh
/// tokens, so a consumed fault never re-fires.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(token, nth)`: SIGKILL worker process `token` when its `nth`
    /// progress report (1-based) arrives. Fires once.
    pub kill_on_progress: Vec<(u64, u64)>,
    /// Abort the whole daemon process (no cleanup — the moral
    /// equivalent of SIGKILL) when the `nth` progress report, counted
    /// globally across all workers, arrives. The daemon-crash recovery
    /// suite then starts a second daemon on the same store and
    /// resubmits.
    pub kill_daemon_on_progress: Option<u64>,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// In-process workers: threads running [`worker_main`] against this
    /// daemon's own listener.
    pub threads: usize,
    /// Worker processes to spawn; requires `worker_cmd`.
    pub procs: usize,
    /// How to launch a worker process.
    pub worker_cmd: Option<WorkerCmd>,
    /// Result/checkpoint store directory (the PR-1 disk-cache layout).
    pub store_dir: PathBuf,
    /// Serve results from / persist results to the disk store. Even
    /// when off, checkpoint blobs go through the store — they are the
    /// recovery primitive, not a cache.
    pub persist: bool,
    /// Checkpoint cadence (uncore cycles) overlaid onto points that
    /// don't request their own. 0 disables overlay (such points then
    /// cannot survive worker death mid-run).
    pub checkpoint_every: u64,
    /// Deterministic fault injection (tests only; empty in production).
    pub fault_plan: FaultPlan,
    /// Listen address. It must resolve to loopback addresses only: the
    /// fabric serves one host, and the daemon refuses to expose its
    /// scheduler to the network.
    pub bind: String,
    /// Admission-queue bound. A fresh admission past this many queued
    /// (not yet dispatched) points is answered with [`Msg::Busy`];
    /// 0 means unbounded. Dedupe/memo/disk hits and requeues are
    /// exempt — they add no queue memory.
    pub max_queue: usize,
    /// Log a [`FabricReport::utilization_line`] to stderr this often.
    pub stats_interval: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            threads: 0,
            procs: 0,
            worker_cmd: None,
            store_dir: PathBuf::new(),
            persist: true,
            checkpoint_every: 4096,
            fault_plan: FaultPlan::default(),
            bind: "127.0.0.1:0".into(),
            max_queue: 0,
            stats_interval: None,
        }
    }
}

impl DaemonConfig {
    /// A daemon with `threads` in-process workers and no worker
    /// processes over `store_dir` — the common test configuration.
    pub fn threads_only(threads: usize, store_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            threads,
            store_dir: store_dir.into(),
            ..DaemonConfig::default()
        }
    }
}

/// Where a client's replies go.
type Reply = Arc<Mutex<TcpStream>>;

/// Everything the daemon's threads share, behind its one mutex.
struct State {
    sched: Sched<Reply>,
    next_token: u64,
    shutdown: bool,
}

struct Shared {
    cfg: DaemonConfig,
    addr: SocketAddr,
    state: Mutex<State>,
    cv: Condvar,
    children: Mutex<HashMap<u64, Child>>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
    /// Global progress-report counter across all workers, for
    /// [`FaultPlan::kill_daemon_on_progress`].
    progress: AtomicU64,
}

/// A running sweep-fabric daemon. Dropping it without calling
/// [`Daemon::shutdown`] leaks worker threads/processes until process
/// exit; tests and binaries should shut down explicitly.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    threads: Vec<JoinHandle<()>>,
    stats_logger: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the configured listener, starts the in-process workers and
    /// spawns the worker processes, and returns the running daemon.
    ///
    /// # Errors
    ///
    /// Socket binding or worker-process spawn failures, and an
    /// `InvalidInput` error naming the address when `bind` resolves to
    /// anything but loopback: the scheduler is never open on the
    /// network.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let addrs: Vec<SocketAddr> = cfg.bind.to_socket_addrs()?.collect();
        if let Some(open) = addrs.iter().find(|a| !a.ip().is_loopback()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("refusing to bind {open}: the fabric serves loopback only"),
            ));
        }
        let listener = TcpListener::bind(&addrs[..])?;
        let addr = listener.local_addr()?;
        let state = State {
            sched: Sched::new(&cfg),
            next_token: 1,
            shutdown: false,
        };
        let shared = Arc::new(Shared {
            cfg,
            addr,
            state: Mutex::new(state),
            cv: Condvar::new(),
            children: Mutex::new(HashMap::new()),
            dispatchers: Mutex::new(Vec::new()),
            progress: AtomicU64::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let threads = (0..shared.cfg.threads)
            .map(|_| shared.spawn_thread_worker())
            .collect();
        for _ in 0..shared.cfg.procs {
            shared.spawn_worker()?;
        }
        let stats_logger = shared.cfg.stats_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || stats_logger(&shared, interval))
        });
        Ok(Daemon {
            shared,
            accept: Some(accept),
            threads,
            stats_logger,
        })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the scheduler counters.
    pub fn stats(&self) -> FabricStats {
        self.report().stats
    }

    /// A full utilization snapshot (counters + queue/worker occupancy).
    pub fn report(&self) -> FabricReport {
        self.shared.state().sched.report()
    }

    /// Blocks until a client's `Shutdown` request arrives, then joins
    /// everything. Used by the standalone `bvl-serve` binary.
    pub fn wait(mut self) {
        {
            let mut s = self.shared.state();
            while !s.shutdown {
                s = self.shared.wait(s);
            }
        }
        self.finish();
    }

    /// Initiates and completes an orderly shutdown: drains the queue,
    /// tells workers to exit, joins all threads and reaps all worker
    /// processes.
    pub fn shutdown(mut self) {
        self.shared.update(|s| s.shutdown = true);
        self.finish();
    }

    fn finish(&mut self) {
        // A throwaway connection unblocks the accept loop so it can
        // observe the shutdown flag.
        drop(TcpStream::connect(self.shared.addr));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.stats_logger.take() {
            let _ = h.join();
        }
        let dispatchers = std::mem::take(&mut *self.shared.dispatchers.lock().unwrap());
        for h in dispatchers {
            let _ = h.join();
        }
        let children = std::mem::take(&mut *self.shared.children.lock().unwrap());
        for (_, mut child) in children {
            let _ = child.wait();
        }
    }
}

impl Shared {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a daemon thread panicked holding the scheduler lock")
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv
            .wait(guard)
            .expect("a daemon thread panicked holding the scheduler lock")
    }

    /// Applies one event to the shared state and wakes every thread
    /// waiting on it (dispatchers for work, `wait` for shutdown).
    fn update<T>(&self, event: impl FnOnce(&mut State) -> T) -> T {
        let out = event(&mut self.state());
        self.cv.notify_all();
        out
    }

    fn next_token(&self) -> u64 {
        self.update(|s| {
            s.next_token += 1;
            s.next_token - 1
        })
    }

    /// Starts an in-process worker: [`worker_main`] on a thread, joining
    /// through this daemon's own listener like any worker process.
    fn spawn_thread_worker(&self) -> JoinHandle<()> {
        let token = self.next_token();
        let addr = self.addr.to_string();
        let store_dir = self.cfg.store_dir.clone();
        std::thread::spawn(move || {
            if let Err(e) = worker_main(&addr, token, store_dir) {
                eprintln!("bvl-serve: worker {token}: {e}");
            }
        })
    }

    fn spawn_worker(&self) -> io::Result<()> {
        let cmd = self.cfg.worker_cmd.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "procs > 0 but no worker_cmd")
        })?;
        let token = self.next_token();
        let child = Command::new(&cmd.program)
            .args(&cmd.args)
            .arg("--connect")
            .arg(self.addr.to_string())
            .arg("--token")
            .arg(token.to_string())
            .arg("--store")
            .arg(&self.cfg.store_dir)
            .stdin(Stdio::null())
            .spawn()?;
        self.children.lock().unwrap().insert(token, child);
        Ok(())
    }

    /// Blocks until a point is available for worker `token` (returning
    /// its key and spec) or shutdown is ordered with an empty queue
    /// (returning `None`).
    fn next_job(&self, token: u64) -> Option<(String, PointSpec)> {
        let mut s = self.state();
        loop {
            if let Some(job) = s.sched.dispatch(token) {
                return Some(job);
            }
            if s.shutdown {
                return None;
            }
            s = self.wait(s);
        }
    }

    fn on_worker_death(&self, token: u64, key: &str) {
        let shutdown = self.update(|s| {
            s.sched.worker_died(key);
            s.shutdown
        });
        // Only daemon-spawned processes are reaped and replaced; any
        // other worker that vanished is simply deregistered — whoever
        // started it owns its lifecycle.
        let child = self
            .children
            .lock()
            .expect("a daemon thread panicked holding the worker-process table")
            .remove(&token);
        let Some(mut child) = child else {
            return;
        };
        let _ = child.kill();
        let _ = child.wait();
        if !shutdown {
            if let Err(e) = self.spawn_worker() {
                eprintln!("bvl-serve: failed to respawn worker: {e}");
            }
        }
    }

    /// Kills worker process `token` with SIGKILL (fault injection). The
    /// dispatcher observes the death through its broken connection.
    fn kill_worker(&self, token: u64) {
        if let Some(child) = self.children.lock().unwrap().get_mut(&token) {
            let _ = child.kill();
        }
    }

    /// One progress report arrived. Fires the kill-the-daemon fault
    /// when the global count reaches the plan's threshold — `abort()`,
    /// the in-process stand-in for SIGKILL: no destructors, nothing
    /// orderly.
    fn on_progress(&self) {
        let n = self.progress.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cfg.fault_plan.kill_daemon_on_progress == Some(n) {
            eprintln!("bvl-serve: fault plan: aborting daemon at progress report {n}");
            std::process::abort();
        }
    }
}

fn send(to: &Reply, msg: &Msg) {
    let mut stream = to
        .lock()
        .expect("a daemon thread panicked writing to this client");
    let _ = proto::write_msg(&mut *stream, msg);
}

fn send_all(replies: Replies<Reply>) {
    for (to, msg) in replies {
        send(&to, &msg);
    }
}

/// Periodic utilization logging: an `Instant`-based deadline loop (a
/// plain `wait_timeout` would reset on every scheduler notify and could
/// starve under churn).
fn stats_logger(shared: &Shared, interval: Duration) {
    let mut next = Instant::now() + interval;
    loop {
        let mut s = shared.state();
        loop {
            if s.shutdown {
                return;
            }
            let now = Instant::now();
            if now >= next {
                break;
            }
            let (guard, _) = shared.cv.wait_timeout(s, next - now).unwrap();
            s = guard;
        }
        let report = s.sched.report();
        drop(s);
        eprintln!("{}", report.utilization_line());
        next += interval;
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.state().shutdown {
            return;
        }
        let Ok(stream) = conn else { continue };
        stream.set_nodelay(true).ok();
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || route_connection(&shared, stream));
        // Dispatcher/client threads are joined via the dispatchers list
        // only when they are worker dispatchers; route_connection moves
        // client handlers to detached completion.
        drop(handle);
    }
}

/// Classifies a fresh connection by its first frame: a worker or a
/// client. A connection whose first frame does not arrive in time or
/// does not decode is closed.
fn route_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_read_timeout(Some(FIRST_FRAME_TIMEOUT)).ok();
    let Ok(first) = proto::read_msg(&mut stream) else {
        return; // hostile, or the shutdown-unblock throwaway
    };
    // After its first frame, a client may sit idle between submissions.
    stream.set_read_timeout(None).ok();
    match first {
        Msg::WorkerHello { token } => {
            let handle = {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || dispatcher(&shared, token, stream))
            };
            shared.dispatchers.lock().unwrap().push(handle);
        }
        other => client_loop(shared, stream, other),
    }
}

fn client_loop(shared: &Shared, stream: TcpStream, first: Msg) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // Each connection is one client for fair-share purposes.
    let client = shared.update(|s| s.sched.connect());
    let writer = Arc::new(Mutex::new(stream));
    let mut msg = first;
    loop {
        match msg {
            Msg::Submit { id, mut spec } => {
                if spec.params.checkpoint_every == 0 {
                    // Result-neutral and out of the cache key: a point
                    // without a cadence gets the daemon's, to survive its
                    // worker.
                    spec.params.checkpoint_every = shared.cfg.checkpoint_every;
                }
                let (to, key) = (Arc::clone(&writer), spec.key());
                send_all(shared.update(|s| s.sched.submit(client, to, id, key, spec)));
            }
            Msg::QueryStats => {
                let report = shared.state().sched.report();
                send(&writer, &Msg::Stats { report });
            }
            Msg::Shutdown => {
                // Ack *before* flipping the shutdown flag: client
                // handlers are detached threads, and in the standalone
                // binary the main thread exits the process as soon as
                // the flag is up — an ack written after that is lost.
                send(&writer, &Msg::ShutdownAck);
                shared.update(|s| s.shutdown = true);
                return;
            }
            other => {
                eprintln!("bvl-serve: unexpected client message {other:?}");
                return;
            }
        }
        msg = match proto::read_msg(&mut reader) {
            Ok(m) => m,
            Err(_) => return, // client hung up (clean or not)
        };
    }
}

/// One thread per worker, in-process or not: feeds it assignments and
/// interprets its progress/completion stream. Worker death (connection
/// loss) requeues the in-flight point and — for daemon-spawned
/// processes — spawns a replacement.
fn dispatcher(shared: &Arc<Shared>, token: u64, mut conn: TcpStream) {
    shared.update(|s| s.sched.join());
    // One-shot: a consumed fault is disarmed, so a requeued point does
    // not re-trigger it when the same worker picks the point up again.
    let mut kill_at = plan_lookup(&shared.cfg.fault_plan.kill_on_progress, token);

    while let Some((key, spec)) = shared.next_job(token) {
        if proto::write_msg(&mut conn, &Msg::Assign { spec }).is_err() {
            shared.on_worker_death(token, &key);
            return;
        }
        let mut progress = 0u64;
        loop {
            match proto::read_msg(&mut conn) {
                Ok(Msg::Progress { cycle: _ }) => {
                    shared.on_progress();
                    progress += 1;
                    if kill_at == Some(progress) {
                        kill_at = None;
                        shared.kill_worker(token);
                    }
                }
                Ok(Msg::WorkerDone { served }) => {
                    send_all(shared.update(|s| s.sched.complete(&key, served)));
                    break;
                }
                Ok(Msg::WorkerFailed { error }) => {
                    send_all(shared.update(|s| s.sched.fail(&key, &error)));
                    break;
                }
                Err(ProtoError::Io(_) | ProtoError::Truncated) => {
                    shared.on_worker_death(token, &key);
                    return;
                }
                other => {
                    eprintln!("bvl-serve: worker {token}: unexpected {other:?}");
                    shared.on_worker_death(token, &key);
                    return;
                }
            }
        }
    }
    // Orderly shutdown: tell the worker to exit and reap it.
    let _ = proto::write_msg(&mut conn, &Msg::Shutdown);
    if let Some(mut child) = shared.children.lock().unwrap().remove(&token) {
        let _ = child.wait();
    }
}

fn plan_lookup(plan: &[(u64, u64)], token: u64) -> Option<u64> {
    plan.iter().find(|(t, _)| *t == token).map(|(_, n)| *n)
}
