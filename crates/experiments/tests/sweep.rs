//! Integration tests for the parallel sweep harness: simulation
//! determinism, parallel-vs-serial equivalence, cache behaviour, and the
//! headline acceptance check — `fig04_speedup --scale tiny` produces
//! byte-identical JSON at `--jobs 1` and `--jobs 8`.

use bvl_experiments::sweep::{run_sweep, SweepJob};
use bvl_experiments::{figs, ExpOpts};
use bvl_serve::ResultStore;
use bvl_sim::{simulate, SimParams, SystemKind};
use bvl_workloads::kernels::{saxpy, vvadd};
use bvl_workloads::{Scale, Workload};
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// A unique scratch directory; removed by `Scratch::drop`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bvl-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tiny_opts(out_dir: PathBuf, jobs: usize) -> ExpOpts {
    ExpOpts::for_scale("tiny", out_dir).with_jobs(jobs)
}

/// Points the memo of `opts`'s scheduler core holds: each one it ran or
/// loaded from disk.
fn memoized(opts: &ExpOpts) -> u64 {
    let stats = opts.sched.report().stats;
    stats.executed + stats.disk_hits
}

/// A small but non-trivial matrix: two kernels across four systems.
fn small_matrix() -> Vec<SweepJob> {
    let workloads: Vec<Arc<Workload>> = vec![
        Arc::new(vvadd::build(Scale::tiny())),
        Arc::new(saxpy::build(Scale::tiny())),
    ];
    let systems = [
        SystemKind::L1,
        SystemKind::B1,
        SystemKind::BDv,
        SystemKind::B4Vl,
    ];
    workloads
        .iter()
        .flat_map(|w| {
            systems
                .into_iter()
                .map(|kind| SweepJob::new(kind, w, "tiny", SimParams::default()))
        })
        .collect()
}

#[test]
fn simulate_is_deterministic() {
    let w = vvadd::build(Scale::tiny());
    let params = SimParams::default();
    for kind in [SystemKind::L1, SystemKind::B4Vl] {
        let a = simulate(kind, &w, &params).expect("first run");
        let b = simulate(kind, &w, &params).expect("second run");
        assert_eq!(a, b, "two identical simulate calls diverged on {kind}");
    }
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    let scratch = Scratch::new("eq");
    let jobs = small_matrix();
    let serial = run_sweep(&jobs, &tiny_opts(scratch.path(), 1));
    let parallel = run_sweep(&jobs, &tiny_opts(scratch.path(), 8));
    assert_eq!(serial.len(), jobs.len());
    assert_eq!(
        serial, parallel,
        "--jobs 1 and --jobs 8 measurements differ"
    );
}

#[test]
fn sweep_memoizes_repeated_points() {
    let scratch = Scratch::new("memo");
    let opts = tiny_opts(scratch.path(), 2);
    let jobs = small_matrix();
    let first = run_sweep(&jobs, &opts);
    assert_eq!(memoized(&opts), jobs.len() as u64);

    // Same matrix again through the same opts: served entirely from the
    // memo (the cache does not grow) and identical.
    let second = run_sweep(&jobs, &opts);
    assert_eq!(memoized(&opts), jobs.len() as u64);
    assert_eq!(opts.sched.report().stats.memo_hits, jobs.len() as u64);
    assert_eq!(first, second);

    // A matrix with internal duplicates memoizes to its unique points.
    let w = Arc::new(vvadd::build(Scale::tiny()));
    let dup: Vec<SweepJob> = (0..5)
        .map(|_| SweepJob::new(SystemKind::B1, &w, "tiny-dup", SimParams::default()))
        .collect();
    let results = run_sweep(&dup, &opts);
    assert_eq!(memoized(&opts), jobs.len() as u64 + 1);
    assert_eq!(opts.sched.report().stats.coalesced, 4);
    assert!(results.windows(2).all(|p| p[0] == p[1]));
}

#[test]
fn no_cache_forces_cold_runs() {
    let scratch = Scratch::new("cold");
    let mut opts = tiny_opts(scratch.path(), 2);
    opts.use_cache = false;
    let jobs = small_matrix();
    let first = run_sweep(&jobs, &opts);
    assert_eq!(memoized(&opts), 0, "--no-cache must not populate the memo");
    assert_eq!(first, run_sweep(&jobs, &opts));
    assert_eq!(
        opts.throughput.snapshot().runs,
        2 * jobs.len() as u64,
        "--no-cache must simulate every point of every sweep"
    );
    assert!(!opts.cache_dir.exists(), "--no-cache wrote a disk cache");
}

#[test]
fn persisted_cache_round_trips_across_invocations() {
    let scratch = Scratch::new("disk");
    let mut opts = tiny_opts(scratch.path(), 2);
    opts.persist_cache = true;
    let jobs = small_matrix();
    let first = run_sweep(&jobs, &opts);
    let files = fs::read_dir(&opts.cache_dir).expect("cache dir").count();
    assert_eq!(files, jobs.len(), "one cache file per unique point");

    // One entry is damaged, by a single flipped bit in its stats: the
    // frame's checksum makes it a miss, not another result.
    let store = ResultStore::new(&opts.cache_dir);
    let damaged = store.result_path(&jobs[3].cache_key());
    let mut bytes = fs::read(&damaged).expect("read an entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&damaged, bytes).expect("damage the entry");

    // A fresh ExpOpts (empty memo) with the same cache dir reloads every
    // other point from disk, simulates the damaged one again, and does
    // not grow the file set.
    let mut cold = tiny_opts(scratch.path(), 2);
    cold.persist_cache = true;
    assert_eq!(memoized(&cold), 0);
    let second = run_sweep(&jobs, &cold);
    assert_eq!(
        first, second,
        "disk-cached results differ from computed ones"
    );
    assert_eq!(memoized(&cold), jobs.len() as u64);
    let stats = cold.sched.report().stats;
    assert_eq!(
        (stats.disk_hits, stats.executed),
        (jobs.len() as u64 - 1, 1)
    );
    assert_eq!(store.load(&jobs[3].cache_key()).as_ref(), Some(&first[3]));
    let files = fs::read_dir(&opts.cache_dir).expect("cache dir").count();
    assert_eq!(files, jobs.len());
}

#[test]
fn fig04_tiny_json_is_byte_identical_across_job_counts() {
    let serial_dir = Scratch::new("fig04-serial");
    let parallel_dir = Scratch::new("fig04-parallel");
    figs::fig04_speedup::run(&tiny_opts(serial_dir.path(), 1));
    figs::fig04_speedup::run(&tiny_opts(parallel_dir.path(), 8));
    let serial = fs::read(serial_dir.path().join("fig04_speedup.tiny.json")).expect("serial JSON");
    let parallel =
        fs::read(parallel_dir.path().join("fig04_speedup.tiny.json")).expect("parallel JSON");
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "fig04 JSON differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn sweep_cache_is_shared_across_clones() {
    let scratch = Scratch::new("share");
    let opts = tiny_opts(scratch.path(), 1);
    let clone = opts.clone();
    let w = Arc::new(vvadd::build(Scale::tiny()));
    let jobs = vec![SweepJob::new(
        SystemKind::B1,
        &w,
        "tiny",
        SimParams::default(),
    )];
    run_sweep(&jobs, &clone);
    assert_eq!(memoized(&opts), 1, "clones must share one scheduler core");
    run_sweep(&jobs, &opts);
    assert_eq!(
        opts.sched.report().stats.memo_hits,
        1,
        "a clone's result must answer the original's sweep"
    );
}

/// One point runs out of its cycle budget: the other two still finish and
/// are stored as they complete, and the sweep then panics once, naming
/// the failed key and its error.
#[test]
fn a_failing_point_fails_alone_and_the_others_are_stored() {
    let scratch = Scratch::new("fail");
    let mut opts = tiny_opts(scratch.path(), 2);
    opts.persist_cache = true;
    let vvadd = Arc::new(vvadd::build(Scale::tiny()));
    let saxpy = Arc::new(saxpy::build(Scale::tiny()));
    let budget = SimParams {
        max_uncore_cycles: 1100,
        ..SimParams::default()
    };
    let jobs = [
        SweepJob::new(SystemKind::B1, &saxpy, "tiny", SimParams::default()),
        SweepJob::new(SystemKind::B4Vl, &vvadd, "tiny", budget),
        SweepJob::new(SystemKind::L1, &vvadd, "tiny", SimParams::default()),
    ];
    let keys: Vec<String> = jobs.iter().map(SweepJob::cache_key).collect();
    let payload = panic::catch_unwind(AssertUnwindSafe(|| run_sweep(&jobs, &opts)))
        .expect_err("a sweep with a failing point panics");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains(&keys[1]) && message.contains("exceeded"),
        "the panic must name the failed key and its error: {message}"
    );
    let store = ResultStore::new(&opts.cache_dir);
    for key in [&keys[0], &keys[2]] {
        assert!(store.result_path(key).exists(), "{key} was not stored");
    }
    assert!(!store.result_path(&keys[1]).exists());
}

/// A worker that panics fails only its point, with the panic's message:
/// here a workload whose output check panics, after the exact run or,
/// in sampled mode, after the fast-forward. The sweep does not hang, the
/// other point is stored, and the panic names the failed key.
#[test]
fn a_panicking_point_fails_alone_with_its_message() {
    fn exploding_check(_: &bvl_mem::SimMemory) -> Result<(), String> {
        panic!("checker exploded")
    }
    let mut broken = vvadd::build(Scale::tiny());
    broken.check = Box::new(exploding_check);
    let broken = Arc::new(broken);
    let saxpy = Arc::new(saxpy::build(Scale::tiny()));
    for sampled in [false, true] {
        let scratch = Scratch::new(&format!("panic-{sampled}"));
        let mut opts = tiny_opts(scratch.path(), 2);
        opts.persist_cache = true;
        opts.sampled = sampled;
        let params = SimParams {
            sampling: opts.sampling_params(),
            ..SimParams::default()
        };
        let jobs = [
            SweepJob::keyed(SystemKind::B1, &broken, "vvadd-broken@tiny", params.clone()),
            SweepJob::new(SystemKind::B1, &saxpy, "tiny", params),
        ];
        let payload = panic::catch_unwind(AssertUnwindSafe(|| run_sweep(&jobs, &opts)))
            .expect_err("a sweep with a panicking point panics");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains(&jobs[0].cache_key()) && message.contains("checker exploded"),
            "sampled {sampled}: {message}"
        );
        let store = ResultStore::new(&opts.cache_dir);
        assert!(
            store.result_path(&jobs[1].cache_key()).exists(),
            "sampled {sampled}"
        );
    }
}

/// A daemon that vanished after `ExpOpts::from_args` asked it for its
/// stats: its port refuses the sweep. Each served point fails with that
/// error, by name, in the sweep's one panic, and the point without a
/// wire spec still runs in process and is stored.
#[test]
fn a_vanished_daemon_fails_each_served_point_by_name() {
    let scratch = Scratch::new("vanished");
    let mut opts = tiny_opts(scratch.path(), 2);
    opts.persist_cache = true;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    opts.serve_addr = Some(listener.local_addr().expect("its address").to_string());
    drop(listener);
    let vvadd = Arc::new(vvadd::build(Scale::tiny()));
    let saxpy = Arc::new(saxpy::build(Scale::tiny()));
    let jobs = [
        SweepJob::new(SystemKind::B1, &vvadd, "tiny", SimParams::default()),
        SweepJob::new(SystemKind::L1, &saxpy, "tiny", SimParams::default()),
        SweepJob::keyed(
            SystemKind::B1,
            &saxpy,
            "saxpy-local@tiny",
            SimParams::default(),
        ),
    ];
    let payload = panic::catch_unwind(AssertUnwindSafe(|| run_sweep(&jobs, &opts)))
        .expect_err("a sweep whose daemon is gone panics");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("2 sweep point(s) failed"), "{message}");
    assert!(
        message.contains("--serve: connect to fabric at"),
        "{message}"
    );
    for job in &jobs[..2] {
        assert!(message.contains(&job.cache_key()), "{message}");
    }
    let store = ResultStore::new(&opts.cache_dir);
    assert!(store.result_path(&jobs[2].cache_key()).exists());
}

/// Two sweeps at once through clones of one options value share its core
/// but each gets its own results, in its own matrix order.
#[test]
fn concurrent_sweeps_through_clones_get_their_own_results() {
    let scratch = Scratch::new("concurrent");
    let opts = tiny_opts(scratch.path(), 2);
    let jobs = small_matrix();
    let (front, back) = jobs.split_at(jobs.len() / 2);
    let back_reversed: Vec<SweepJob> = back.iter().rev().cloned().collect();
    let expected = run_sweep(&jobs, &tiny_opts(scratch.path(), 1));
    let (a, b) = std::thread::scope(|s| {
        let (opts_a, opts_b) = (opts.clone(), opts.clone());
        let a = s.spawn(move || run_sweep(front, &opts_a));
        let b = s.spawn(move || run_sweep(&back_reversed, &opts_b));
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });
    assert_eq!(a, expected[..front.len()]);
    let mut b = b;
    b.reverse();
    assert_eq!(b, expected[front.len()..]);
    assert_eq!(opts.sched.report().stats.executed, jobs.len() as u64);
}
