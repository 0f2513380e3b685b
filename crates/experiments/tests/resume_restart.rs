//! Kill-and-restart contract of `run_all --resume`, exercised in-process:
//! a fresh `ExpOpts` per phase is exactly what a new process gets (empty
//! memo cache, zeroed throughput counters), so interrupting a run and
//! restarting the binary is modeled by dropping one options value and
//! building another against the same output directory.
//!
//! Three guarantees are pinned here:
//!
//! 1. Resuming after an interrupt produces final artifact JSONs
//!    byte-identical to an uninterrupted run, and completed artifacts
//!    replay with **0 simulate calls**.
//! 2. A point interrupted mid-run restarts from its last on-disk
//!    checkpoint — simulating only the tail — and its (byte-identical)
//!    result is *not* written to the persisted cache, which records
//!    straight-through runs only.
//! 3. The `--trace-out` re-run never touches the persisted cache
//!    (regression for the cache-pollution class of bugs).

use bvl_experiments::sweep::{run_sweep, SweepJob};
use bvl_experiments::{ExpOpts, ARTIFACTS};
use bvl_sim::{simulate_with, CkptControl, Hooks, SimParams, SysState, SystemKind};
use bvl_workloads::{kernels, Scale};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// Fresh per-test scratch dir (removed on entry so reruns start cold).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir` (recursively), name → bytes. Missing dir = empty.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("read_dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(name, fs::read(&path).expect("read file"));
            }
        }
    }
    out
}

/// A resumable options value against `out`, as `--resume` would build it.
fn resumable_opts(out: &Path) -> ExpOpts {
    let mut opts = ExpOpts::for_scale("tiny", out.to_path_buf());
    opts.persist_cache = true;
    opts.resume = true;
    opts
}

#[test]
fn interrupted_run_all_resumes_byte_identically_with_zero_runs_for_done_artifacts() {
    // fig04 simulates both workload suites on all systems; fig05 reuses a
    // subset of the same points — together they cover both the "all from
    // disk" and the "partially from disk" resume shapes.
    let subset = &ARTIFACTS[..2];
    let interrupted = scratch("runall");
    let baseline = scratch("runall-base");

    // Phase A: the interrupted invocation — completes fig04, then "dies".
    {
        let opts = resumable_opts(&interrupted);
        subset[0].1(&opts);
    }

    // Phase B: `run_all --resume` in a fresh process re-runs the whole
    // artifact list against the same directory.
    {
        let opts = resumable_opts(&interrupted);
        for (i, (name, run)) in subset.iter().enumerate() {
            let before = opts.throughput.snapshot();
            run(&opts);
            let ran = opts.throughput.snapshot().since(&before).runs;
            if i == 0 {
                assert_eq!(
                    ran, 0,
                    "{name} completed before the interrupt, yet the resumed \
                     invocation simulated {ran} points instead of replaying the cache"
                );
            }
        }
    }

    // Phase C: the uninterrupted reference run, no caching involved.
    {
        let opts = ExpOpts::for_scale("tiny", baseline.clone());
        for (_, run) in subset {
            run(&opts);
        }
    }

    for (name, _) in subset {
        let file = format!("{name}.tiny.json");
        let resumed = fs::read(interrupted.join(&file))
            .unwrap_or_else(|e| panic!("resumed artifact {file}: {e}"));
        let straight = fs::read(baseline.join(&file))
            .unwrap_or_else(|e| panic!("baseline artifact {file}: {e}"));
        assert_eq!(
            resumed, straight,
            "{file} differs between the resumed and the uninterrupted run"
        );
    }

    fs::remove_dir_all(&interrupted).expect("cleanup");
    fs::remove_dir_all(&baseline).expect("cleanup");
}

#[test]
fn mid_run_checkpoint_resumes_the_tail_and_is_not_persisted() {
    let out = scratch("midrun");
    let w = Arc::new(kernels::mmult::build(Scale::tiny()));
    let job = || SweepJob::new(SystemKind::B4Vl, &w, "tiny", SimParams::default());
    let key = job().cache_key();

    // Fabricate the interrupt: run the point directly with a checkpoint
    // cadence, keep the last checkpoint, and plant it where `--resume`
    // looks — exactly the state a killed invocation leaves behind.
    let cadenced = SimParams {
        checkpoint_every: 200,
        ..SimParams::default()
    };
    let mut last: Option<SysState> = None;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s| {
            last = Some(s.clone());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    let run = simulate_with(SystemKind::B4Vl, &w, &cadenced, hooks)
        .expect("straight run")
        .finished()
        .expect("the callback never yields");
    let (straight, straight_skip) = (run.result, run.skip);
    let planted = last.expect("run crossed no checkpoint boundary — lower the cadence");
    let ckpt = out.join("cache").join("ckpt").join(format!("{key}.snap"));
    fs::create_dir_all(ckpt.parent().unwrap()).expect("create ckpt dir");
    fs::write(&ckpt, planted.to_bytes()).expect("plant checkpoint");

    let opts = resumable_opts(&out).with_jobs(1);
    let results = run_sweep(&[job()], &opts);
    assert_eq!(results[0], straight, "resumed result diverged");

    // Only the tail simulated: the resumed run's edge total must come in
    // strictly under the straight-through run's.
    let t = opts.throughput.snapshot();
    assert_eq!(t.runs, 1);
    let full_edges = straight_skip.edges_run + straight_skip.edges_skipped;
    assert!(
        t.sim_cycles() < full_edges,
        "resumed run processed {} edges, straight-through {full_edges} — \
         it restarted from cycle 0 instead of the checkpoint at cycle {}",
        t.sim_cycles(),
        planted.uncore_cycle()
    );

    // The consumed checkpoint is gone, and the resumed result was NOT
    // persisted — results/cache records straight-through runs only.
    assert!(!ckpt.exists(), "consumed checkpoint still on disk");
    assert!(
        !opts.cache_dir.join(format!("{key}.json")).exists(),
        "checkpoint-restored run leaked into the persisted memo cache"
    );

    // A later cold invocation finds no checkpoint and no JSON: it
    // simulates straight through and only then persists.
    let opts2 = resumable_opts(&out).with_jobs(1);
    let again = run_sweep(&[job()], &opts2);
    assert_eq!(again[0], straight);
    assert_eq!(opts2.throughput.snapshot().sim_cycles(), full_edges);
    assert!(opts2.cache_dir.join(format!("{key}.json")).exists());

    fs::remove_dir_all(&out).expect("cleanup");
}

#[test]
fn traced_rerun_leaves_the_persisted_cache_untouched() {
    let out = scratch("traceout");
    let w = Arc::new(kernels::vvadd::build(Scale::tiny()));
    let job = || SweepJob::new(SystemKind::BIv, &w, "tiny", SimParams::default());

    // Populate the persisted cache with the point's straight-through run.
    let mut opts = ExpOpts::for_scale("tiny", out.clone()).with_jobs(1);
    opts.persist_cache = true;
    // Arm the checkpoint cadence too: the traced re-run must not write
    // checkpoint blobs either (it has no resume path to consume them).
    opts.checkpoint_every = 200;
    let first = run_sweep(&[job()], &opts);
    let before = dir_contents(&opts.cache_dir);
    assert!(!before.is_empty(), "persist-cache run wrote nothing");

    // Re-sweep the same point with `--trace-out` armed: the point itself
    // is a cache hit, and the traced re-run happens on top.
    let trace_path = out.join("trace.json");
    *opts.trace_out.lock().unwrap() = Some(trace_path.clone());
    let second = run_sweep(&[job()], &opts);
    assert_eq!(first, second);
    assert!(trace_path.exists(), "traced re-run never wrote its trace");
    assert_eq!(
        opts.throughput.snapshot().runs,
        1,
        "the traced re-run must not count as a simulate call"
    );

    let after = dir_contents(&opts.cache_dir);
    assert_eq!(
        before,
        after,
        "the traced re-run modified the persisted cache under {}",
        opts.cache_dir.display()
    );

    fs::remove_dir_all(&out).expect("cleanup");
}
