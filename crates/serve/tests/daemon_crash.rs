//! Daemon-crash recovery by resubmission: a SIGKILLed daemon leaves
//! only its store behind, and that is enough.
//!
//! A real `bvl-serve` process is killed mid-sweep via the
//! `--kill-daemon-on-progress` fault (an `abort()` — no destructors,
//! exactly what SIGKILL leaves behind). A second process on the same
//! store, started with no recovery flag, gets the same three points
//! resubmitted by its client and must:
//!
//! * resume the point that was in flight from its last persisted
//!   checkpoint rather than cycle 0 (`resumed`, `restarts_from_zero ==
//!   0` — the never-started points are not "lost intervals"),
//! * produce result artifacts byte-identical to a serverless reference,
//! * and answer a second resubmission of everything from the memo with
//!   zero re-simulation.

use bvl_serve::{run_one_point, Client, PointRun, PointSpec, Priority, ResultStore, WorkloadSpec};
use bvl_sim::{simulate_with, CkptControl, Hooks, RunResult, SimParams, SysState, SystemKind};
use bvl_workloads::Scale;
use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec(name: &str) -> PointSpec {
    PointSpec {
        system: SystemKind::B4Vl,
        workload_key: format!("{name}@tiny"),
        workload: WorkloadSpec::Named {
            name: name.into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    }
}

/// Spawns a real `bvl-serve` daemon over `store` and parses its
/// listening address off stdout.
fn spawn_daemon(store: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bvl-serve"))
        .arg("--store")
        .arg(store)
        .args(["--checkpoint-every", "100"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bvl-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn sigkilled_daemon_recovers_by_resubmission_byte_identically_with_zero_resimulation() {
    let dir = scratch("resubmit");
    let store_dir = dir.join("cache");
    let names = ["mmult", "vvadd", "saxpy"];

    // Precondition for the fault placement below: mmult@tiny must cross
    // enough checkpoint boundaries at cadence 100 that killing the
    // daemon at the 3rd progress report leaves real work outstanding.
    let mmult_workload = spec("mmult").workload.build().expect("build mmult");
    let cadenced = SimParams {
        checkpoint_every: 100,
        ..SimParams::default()
    };
    let mut boundaries = 0u64;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |_: &SysState| {
            boundaries += 1;
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    simulate_with(SystemKind::B4Vl, &mmult_workload, &cadenced, hooks).expect("cadence probe");
    assert!(
        boundaries >= 4,
        "mmult@tiny crosses only {boundaries} checkpoints at cadence 100; \
         lower the cadence in this test"
    );

    // Serverless reference: results + stored artifact files.
    let ref_store = ResultStore::new(dir.join("reference"));
    let mut expected: HashMap<&str, RunResult> = HashMap::new();
    for name in names {
        let s = spec(name);
        match run_one_point(&s, &ref_store, &mut |_| false).expect("reference run") {
            PointRun::Finished(out) => {
                ref_store
                    .store(&s.key(), &out.result)
                    .expect("store reference");
                expected.insert(name, out.result);
            }
            PointRun::Yielded { .. } => unreachable!("nothing orders a yield"),
        }
    }

    // Daemon #1: no workers of its own, armed to abort at the 3rd
    // progress report — i.e. mid-mmult, after its 3rd checkpoint blob
    // hit the disk.
    let (mut child, addr) = spawn_daemon(
        &store_dir,
        &["--threads", "0", "--kill-daemon-on-progress", "3"],
    );
    let mut worker = {
        let mut client = Client::connect(&addr).expect("connect");
        // mmult at High so the single worker picks it first; the other
        // two queue behind it and die with the daemon.
        client.set_priority(Priority::High);
        client.submit(&spec("mmult")).expect("submit mmult");
        client.set_priority(Priority::Normal);
        client.submit(&spec("vvadd")).expect("submit vvadd");
        client.submit(&spec("saxpy")).expect("submit saxpy");
        let report = client.stats().expect("admission barrier");
        assert_eq!(report.queue_depth, 3, "{report:?}");
        // The one worker, a `bvl-serve --worker` process, joins now.
        let worker = Command::new(env!("CARGO_BIN_EXE_bvl-serve"))
            .args(["--worker", "--connect", &addr, "--token", "1", "--store"])
            .arg(&store_dir)
            .spawn()
            .expect("spawn bvl-serve --worker");
        // The daemon aborts mid-mmult; the connection dies with it.
        loop {
            if client.recv().is_err() {
                break;
            }
        }
        worker
    };
    let status = child.wait().expect("wait for aborted daemon");
    assert!(!status.success(), "the fault plan must abort the daemon");
    worker.wait().expect("the worker exits with its daemon");

    // Daemon #2: same store, no recovery flag. The client resubmits the
    // three points, as `run_all --serve --resume` would.
    let (mut child2, addr2) = spawn_daemon(&store_dir, &["--threads", "1"]);
    let mut client = Client::connect(&addr2).expect("connect restarted daemon");
    let recovered = client
        .run_points(&names.map(spec))
        .expect("resubmitted sweep");
    for (name, r) in names.iter().zip(&recovered) {
        assert_eq!(
            &r.result, &expected[name],
            "{name}: recovered result diverged"
        );
        assert_eq!(r.resumed, *name == "mmult", "{name}: {r:?}");
    }
    let s = client.stats().expect("stats").stats;
    assert_eq!(s.executed, 3, "{s:?}");
    assert_eq!(
        s.resumed, 1,
        "the in-flight mmult must resume from its checkpoint: {s:?}"
    );
    assert_eq!(
        s.restarts_from_zero, 0,
        "never-started points are not lost intervals: {s:?}"
    );
    assert_eq!(s.failed, 0, "{s:?}");

    // Byte-identity: the two never-started points restarted from zero
    // and persisted artifacts identical to the serverless reference.
    let store = ResultStore::new(&store_dir);
    for name in ["vvadd", "saxpy"] {
        let key = spec(name).key();
        let served =
            fs::read(store.result_path(&key)).unwrap_or_else(|e| panic!("{name} result file: {e}"));
        let reference = fs::read(ref_store.result_path(&key)).expect("reference file");
        assert_eq!(served, reference, "{name} artifact diverged after recovery");
    }
    // The resumed mmult is PR-5-invariant territory: resumed completions
    // are never persisted (their from-checkpoint stats are not those of
    // a from-zero run), so no result file may exist...
    let mmult_key = spec("mmult").key();
    assert!(
        !store.result_path(&mmult_key).exists(),
        "a resumed completion must not be persisted to the disk store"
    );
    assert!(
        !store.ckpt_path(&mmult_key).exists(),
        "a finished point's checkpoint blob is deleted"
    );

    // ...but the memo serves it, byte-equal to the reference, with zero
    // re-simulation — and the other two replay from memo/disk too.
    let served = client
        .run_points(&[spec("mmult"), spec("vvadd"), spec("saxpy")])
        .expect("resubmission sweep");
    for (name, r) in names.iter().zip(&served) {
        assert!(r.cache_hit, "{name}: resubmission must be a cache hit");
        assert_eq!(
            &r.result, &expected[name],
            "{name}: replayed result diverged"
        );
    }
    let s = client.stats().expect("stats").stats;
    assert_eq!(s.executed, 3, "resubmissions must not re-simulate: {s:?}");

    client.shutdown().expect("shutdown");
    let status = child2.wait().expect("wait for daemon 2");
    assert!(status.success(), "orderly shutdown");
    let _ = fs::remove_dir_all(&dir);
}
