//! Point execution, shared by every fabric worker and the in-process
//! sweep.
//!
//! [`run_point`] is the single code path that executes one experiment
//! point, exact or sampled, for both. An exact point resumes from a
//! persisted checkpoint when asked, writes a fresh blob at every
//! checkpoint boundary, and can yield mid-run when its caller asks. A
//! sampled point runs whole through [`bvl_sim::simulate_sampled`], which
//! measures each window as the fast-forward reaches it. [`run_one_point`]
//! is what a fabric worker runs: it builds the point's workload and
//! always resumes (that is what makes worker death cheap: whoever picks
//! the point up next continues from the last blob). The in-process sweep
//! calls [`run_point`] on its `--jobs` threads and resumes only under
//! `--resume`.
//!
//! [`worker_main`] is every fabric worker's loop — a daemon's in-process
//! worker thread, a worker process it spawned, or a `bvl-serve --worker`
//! started by hand on the same host: connect to the daemon, say hello,
//! then loop executing [`Msg::Assign`]ments over that one connection
//! until told to shut down (or the daemon goes away). Both it and the
//! in-process sweep run points under [`caught`], so a panicking point
//! fails alone instead of taking its worker down.

use crate::proto::{self, Msg, ProtoError};
use crate::spec::PointSpec;
use crate::store::ResultStore;
use bvl_sim::{
    simulate_sampled, simulate_with, CkptControl, Hooks, RunResult, SimError, SimOutcome,
    SimParams, SysState, SystemKind,
};
use bvl_snap::snap_struct;
use bvl_workloads::Workload;
use std::net::TcpStream;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// What one completed point reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The (checked) simulation result.
    pub result: RunResult,
    /// Clock-domain edges processed cycle-by-cycle in this execution.
    pub edges_run: u64,
    /// Clock-domain edges batch-skipped in this execution.
    pub edges_skipped: u64,
    /// Host seconds spent simulating.
    pub host_secs: f64,
    /// True when the run resumed from a persisted checkpoint.
    pub resumed: bool,
    /// True when a decodable checkpoint blob did not restore (its
    /// fingerprints did not match this run, or its body did not fit the
    /// rebuilt system), so the point restarted from cycle 0. A blob that
    /// does not decode at all is skipped like a missing one and does not
    /// count.
    pub restarted_from_zero: bool,
}

snap_struct!(PointOutcome {
    result,
    edges_run,
    edges_skipped,
    host_secs,
    resumed,
    restarted_from_zero,
});

/// How one [`run_point`] call ended.
#[derive(Debug)]
pub enum PointRun {
    /// Ran to completion.
    Finished(Box<PointOutcome>),
    /// Yielded at a checkpoint because the callback asked (the blob is
    /// persisted in the store); a later run resumes from it.
    Yielded {
        /// Uncore cycle of the yielded checkpoint.
        cycle: u64,
    },
}

/// Builds `spec`'s workload and executes the point against `store`
/// through [`run_point`], always resuming from the newest decodable
/// checkpoint blob of its key's two slots.
///
/// # Errors
///
/// An unknown workload name, and every error of [`run_point`].
pub fn run_one_point(
    spec: &PointSpec,
    store: &ResultStore,
    on_checkpoint: &mut dyn FnMut(u64) -> bool,
) -> Result<PointRun, String> {
    let workload = spec.workload.build()?;
    let key = spec.key();
    run_point(
        spec.system,
        &workload,
        &spec.params,
        &key,
        store,
        true,
        on_checkpoint,
    )
}

/// Executes one point under cache key `key`.
///
/// An exact point writes a checkpoint blob into one of `key`'s two slots
/// in `store` at every boundary of the `params.checkpoint_every` cadence,
/// and resumes from the newest decodable one with `resume`.
/// `on_checkpoint(cycle)` fires after each blob is persisted; returning
/// `true` orders a yield at that very checkpoint. A sampled point (its
/// params carry a sampling config) runs whole through
/// [`bvl_sim::simulate_sampled`], which has no mid-run checkpoint to
/// resume or yield at: a killed worker simply re-runs it.
///
/// # Errors
///
/// Simulation failures (the cycle budget ran out or the output check
/// failed), and an exact point's checkpoint blob that cannot be written.
/// An unusable blob is not an error: the point restarts from cycle 0.
pub fn run_point(
    system: SystemKind,
    workload: &Workload,
    params: &SimParams,
    key: &str,
    store: &ResultStore,
    resume: bool,
    on_checkpoint: &mut dyn FnMut(u64) -> bool,
) -> Result<PointRun, String> {
    if params.sampling.is_none() {
        return run_exact_point(system, workload, params, key, store, resume, on_checkpoint);
    }
    let start = Instant::now();
    let (result, skip) = simulate_sampled(system, workload, params)?;
    Ok(PointRun::Finished(Box::new(PointOutcome {
        result,
        edges_run: skip.edges_run,
        edges_skipped: skip.edges_skipped,
        host_secs: start.elapsed().as_secs_f64(),
        resumed: false,
        restarted_from_zero: false,
    })))
}

/// Executes one exact point under cache key `key`, writing a checkpoint
/// blob into one of `key`'s two slots in `store` at every boundary of the
/// `params.checkpoint_every` cadence and deleting both slots once the
/// point finishes. `on_checkpoint(cycle)` fires after each blob is
/// persisted; returning `true` orders a yield at that very checkpoint.
///
/// With `resume`, the newest decodable blob for `key` is resumed instead
/// of starting at cycle 0, and the run's first checkpoint goes to the
/// other slot. A blob that does not restore (its fingerprints do not
/// match, or its body does not decode) is reported and the point
/// restarts from cycle 0; a resumed run that fails on its own fails like
/// any other run, since starting over would fail the same way. A run
/// from cycle 0 clears both slots before its first checkpoint.
///
/// # Errors
///
/// Simulation failures (the cycle budget ran out or the output check
/// failed), and a checkpoint blob that cannot be written: the run stops
/// at that checkpoint and the error names `key`.
fn run_exact_point(
    system: SystemKind,
    workload: &Workload,
    params: &SimParams,
    key: &str,
    store: &ResultStore,
    resume: bool,
    on_checkpoint: &mut dyn FnMut(u64) -> bool,
) -> Result<PointRun, String> {
    let start = Instant::now();
    let mut write_error = None;
    let mut run_from = |from: Option<&(usize, SysState)>| {
        let mut slots = store.checkpoint_slots(key, from.map(|&(slot, _)| slot));
        let mut save = |state: &SysState| {
            if let Err(e) = slots.write(state) {
                write_error = Some(e);
                return CkptControl::Yield;
            }
            if on_checkpoint(state.uncore_cycle()) {
                CkptControl::Yield
            } else {
                CkptControl::Continue
            }
        };
        let hooks = Hooks {
            resume: from.map(|(_, state)| state),
            on_checkpoint: Some(&mut save),
            want_state: false,
        };
        simulate_with(system, workload, params, hooks)
    };

    let saved = resume.then(|| store.load_checkpoint(key)).flatten();
    let mut restarted_from_zero = false;
    let resumed_out = saved
        .as_ref()
        .and_then(|saved| match run_from(Some(saved)) {
            Err(SimError::Restore(e)) => {
                eprintln!(
                    "{key}: checkpoint at cycle {} not resumable ({e}); \
                 restarting from cycle 0",
                    saved.1.uncore_cycle()
                );
                restarted_from_zero = true;
                None
            }
            out => Some(out),
        });
    let resumed = resumed_out.is_some();
    let out = resumed_out.unwrap_or_else(|| run_from(None));
    if let Some(e) = write_error {
        return Err(format!("{key}: checkpoint not written: {e}"));
    }
    match out.map_err(|e| e.to_string())? {
        SimOutcome::Finished(run) => {
            store.remove_checkpoint(key);
            let tail = run.skip.since(&run.skip_resumed);
            Ok(PointRun::Finished(Box::new(PointOutcome {
                result: run.result,
                edges_run: tail.edges_run,
                edges_skipped: tail.edges_skipped,
                host_secs: start.elapsed().as_secs_f64(),
                resumed,
                restarted_from_zero,
            })))
        }
        SimOutcome::Yielded(state) => Ok(PointRun::Yielded {
            cycle: state.uncore_cycle(),
        }),
    }
}

/// Runs `f`, turning a panic into an error that carries its message: a
/// worker that panics fails its point and goes on to the next.
pub fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {message}"))
    })
}

/// The worker loop: connect to the daemon at `addr`, identify with
/// `token`, and execute assignments against the store at `store_dir`
/// until shut down. Returns when the daemon says [`Msg::Shutdown`] or
/// goes away. A daemon that vanishes mid-point is noticed when a
/// `Progress` write fails, at most two checkpoints later (one write may
/// still succeed after the daemon's socket closed; it draws the reset
/// that fails the next): the worker stops at that checkpoint and keeps
/// its blob, so the next daemon on the same store resumes the point
/// from it. A point that panics fails like one that errs: the worker
/// reports the panic's message and takes its next assignment.
///
/// # Errors
///
/// Connection setup failures; once the loop is running, daemon
/// disappearance is a clean return, not an error.
pub fn worker_main(addr: &str, token: u64, store_dir: impl AsRef<Path>) -> Result<(), String> {
    let store = ResultStore::new(store_dir.as_ref());
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).ok();
    proto::write_msg(&mut conn, &Msg::WorkerHello { token }).map_err(|e| format!("hello: {e}"))?;

    loop {
        let msg = match proto::read_msg(&mut conn) {
            Ok(m) => m,
            Err(e) if e.is_clean_eof() => return Ok(()),
            Err(ProtoError::Io(_)) | Err(ProtoError::Truncated) => return Ok(()),
            Err(e) => return Err(format!("read: {e}")),
        };
        match msg {
            Msg::Assign { spec } => {
                let mut cb =
                    |cycle: u64| proto::write_msg(&mut conn, &Msg::Progress { cycle }).is_err();
                let reply = match caught(|| run_one_point(&spec, &store, &mut cb)) {
                    Ok(PointRun::Finished(outcome)) => Msg::WorkerDone { outcome: *outcome },
                    // Only a vanished daemon stops a point at a checkpoint.
                    Ok(PointRun::Yielded { .. }) => return Ok(()),
                    Err(error) => Msg::WorkerFailed { error },
                };
                if proto::write_msg(&mut conn, &reply).is_err() {
                    return Ok(()); // daemon vanished
                }
            }
            Msg::Shutdown => return Ok(()),
            other => return Err(format!("unexpected message for a worker: {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use bvl_workloads::Scale;
    use std::fs;

    /// `vvadd@tiny` on `1b-4VL`, checkpointed every 200 uncore cycles.
    fn vvadd_point() -> PointSpec {
        PointSpec {
            system: SystemKind::B4Vl,
            workload_key: "vvadd@tiny".into(),
            workload: WorkloadSpec::Named {
                name: "vvadd".into(),
                scale: Scale::tiny(),
            },
            params: SimParams {
                checkpoint_every: 200,
                ..SimParams::default()
            },
        }
    }

    /// The result of a straight run of `spec` and every checkpoint it
    /// takes.
    fn straight_run(spec: &PointSpec) -> (RunResult, Vec<SysState>) {
        let workload = spec.workload.build().expect("build the workload");
        let mut checkpoints = Vec::new();
        let hooks = Hooks {
            on_checkpoint: Some(&mut |s: &SysState| {
                checkpoints.push(s.clone());
                CkptControl::Continue
            }),
            ..Hooks::default()
        };
        let run = simulate_with(spec.system, &workload, &spec.params, hooks)
            .expect("straight run")
            .finished()
            .expect("nothing orders a yield");
        assert!(
            checkpoints.len() > 4,
            "too few checkpoints: lower the cadence"
        );
        (run.result, checkpoints)
    }

    /// A store in a fresh directory named after `tag`.
    fn fresh_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("bvl-slots-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::new(dir)
    }

    /// Runs `spec` through [`run_one_point`], which always resumes, and
    /// returns how it ended and the cycle of every checkpoint it wrote.
    fn run_recorded(spec: &PointSpec, store: &ResultStore) -> (PointOutcome, Vec<u64>) {
        let mut cycles = Vec::new();
        let run = run_one_point(spec, store, &mut |cycle| {
            cycles.push(cycle);
            false
        });
        match run {
            Ok(PointRun::Finished(out)) => (*out, cycles),
            other => panic!("expected a finished point, got {other:?}"),
        }
    }

    /// Writes `checkpoints`, oldest first, as a run from cycle 0 would.
    fn plant(store: &ResultStore, key: &str, checkpoints: &[SysState]) {
        let mut slots = store.checkpoint_slots(key, None);
        for state in checkpoints {
            slots.write(state).expect("plant a checkpoint");
        }
    }

    #[test]
    fn a_panic_is_caught_as_an_error_carrying_its_message() {
        assert_eq!(caught(|| Ok::<_, String>(7)), Ok(7));
        assert_eq!(caught(|| Err::<(), _>("no".into())), Err("no".into()));
        let panics = |f: fn() -> Result<(), String>| caught(f);
        assert_eq!(panics(|| panic!("static")), Err("panicked: static".into()));
        assert_eq!(
            panics(|| panic!("formatted {}", 1)),
            Err("panicked: formatted 1".into())
        );
    }

    #[test]
    fn the_newest_decodable_slot_wins() {
        let spec = vvadd_point();
        let key = spec.key();
        let (_, ckpts) = straight_run(&spec);
        let store = fresh_store("newest");
        plant(&store, &key, &ckpts[..2]);
        assert_eq!(store.load_checkpoint(&key), Some((1, ckpts[1].clone())));

        // A run that resumed slot 1 writes slot 0 next, which then holds
        // the newest blob.
        let mut slots = store.checkpoint_slots(&key, Some(1));
        slots.write(&ckpts[2]).expect("write");
        assert_eq!(store.load_checkpoint(&key), Some((0, ckpts[2].clone())));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Another process may delete both slots while a run still writes
    /// them: a dead daemon's worker that completes the same point, or a
    /// run from cycle 0 that clears them. The run's next checkpoint
    /// lands in a file the store can read again, and so does the whole
    /// `ckpt/` directory when that is gone too.
    #[test]
    fn a_slot_deleted_under_a_running_writer_is_written_again() {
        let spec = vvadd_point();
        let key = spec.key();
        let (_, ckpts) = straight_run(&spec);
        let store = fresh_store("deleted");
        let mut slots = store.checkpoint_slots(&key, None);
        slots.write(&ckpts[0]).expect("write");
        slots.write(&ckpts[1]).expect("write");

        store.remove_checkpoint(&key);
        slots.write(&ckpts[2]).expect("write");
        assert_eq!(store.load_checkpoint(&key), Some((0, ckpts[2].clone())));

        fs::remove_dir_all(store.dir()).expect("remove the store");
        slots.write(&ckpts[3]).expect("write");
        assert_eq!(store.load_checkpoint(&key), Some((1, ckpts[3].clone())));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A writer killed mid-write leaves its slot torn: cut short, or with
    /// bytes that fail the checksum. The point resumes from the older
    /// slot, counts as resumed and not as a restart, finishes with the
    /// straight run's result, and leaves neither slot behind.
    #[test]
    fn a_torn_newest_slot_falls_back_to_the_older_one() {
        let spec = vvadd_point();
        let key = spec.key();
        let (expected, ckpts) = straight_run(&spec);
        for what in ["truncated", "torn"] {
            let store = fresh_store(what);
            plant(&store, &key, &ckpts[..2]);
            let newest = &store.ckpt_paths(&key)[1];
            let mut blob = fs::read(newest).expect("read the newest slot");
            let mid = blob.len() / 2;
            if what == "truncated" {
                blob.truncate(mid);
            } else {
                blob[mid] ^= 0x5a;
            }
            fs::write(newest, &blob).expect("tear the newest slot");

            let (out, cycles) = run_recorded(&spec, &store);
            assert!(out.resumed, "{what}: the point did not resume");
            assert!(!out.restarted_from_zero, "{what}");
            assert_eq!(out.result, expected, "{what}: resumed result diverged");
            assert_eq!(
                cycles.first(),
                Some(&ckpts[1].uncore_cycle()),
                "{what}: not resumed from the older slot's cycle {}",
                ckpts[0].uncore_cycle()
            );
            assert!(
                store.ckpt_paths(&key).iter().all(|path| !path.exists()),
                "{what}: completion must delete both slots"
            );
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    /// Garbage in one slot and a truncated blob in the other: no blob to
    /// resume, so the point starts from cycle 0 exactly as with one bad
    /// blob, and that is not counted as a restart.
    #[test]
    fn with_both_slots_unusable_the_point_starts_from_cycle_zero() {
        let spec = vvadd_point();
        let key = spec.key();
        let (expected, ckpts) = straight_run(&spec);
        let store = fresh_store("unusable");
        let [slot0, slot1] = store.ckpt_paths(&key);
        fs::create_dir_all(slot0.parent().expect("a ckpt dir")).expect("ckpt dir");
        fs::write(&slot0, b"BVLSnot-a-checkpoint").expect("plant garbage");
        let blob = ckpts[3].to_bytes();
        fs::write(&slot1, &blob[..blob.len() / 2]).expect("plant a cut blob");

        let (out, cycles) = run_recorded(&spec, &store);
        assert!(!out.resumed && !out.restarted_from_zero, "{out:?}");
        assert_eq!(out.result, expected);
        assert_eq!(cycles.first(), Some(&ckpts[0].uncore_cycle()));
        assert!(!slot0.exists() && !slot1.exists());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Blobs an earlier run left at higher cycles would outrank a new
    /// run's first checkpoint, so a run that does not resume clears both
    /// slots before it writes.
    #[test]
    fn a_run_that_does_not_resume_leaves_no_stale_higher_slot() {
        let spec = vvadd_point();
        let key = spec.key();
        let (_, ckpts) = straight_run(&spec);
        let workload = spec.workload.build().expect("build vvadd");
        let store = fresh_store("stale");
        plant(&store, &key, &ckpts[ckpts.len() - 2..]);

        let run = run_exact_point(
            spec.system,
            &workload,
            &spec.params,
            &key,
            &store,
            false,
            &mut |_| true,
        );
        assert!(
            matches!(run, Ok(PointRun::Yielded { cycle }) if cycle == ckpts[0].uncore_cycle()),
            "{run:?}"
        );
        assert_eq!(store.load_checkpoint(&key), Some((0, ckpts[0].clone())));
        assert!(!store.ckpt_paths(&key)[1].exists(), "a stale slot is left");
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Resuming slot `s` leaves its blob whole until the run has written a
    /// newer one into the other slot.
    #[test]
    fn the_first_checkpoint_after_a_resume_goes_to_the_other_slot() {
        let spec = vvadd_point();
        let key = spec.key();
        let (_, ckpts) = straight_run(&spec);
        let workload = spec.workload.build().expect("build vvadd");
        for planted in [1, 2] {
            let store = fresh_store(&format!("resume{planted}"));
            plant(&store, &key, &ckpts[..planted]);
            let from = planted - 1;
            let path = &store.ckpt_paths(&key)[from];
            let kept = fs::read(path).expect("read the resumed slot");

            let run = run_exact_point(
                spec.system,
                &workload,
                &spec.params,
                &key,
                &store,
                true,
                &mut |_| true,
            );
            let next = &ckpts[planted];
            assert!(
                matches!(run, Ok(PointRun::Yielded { cycle }) if cycle == next.uncore_cycle()),
                "{run:?}"
            );
            assert_eq!(
                fs::read(path).expect("reread"),
                kept,
                "slot {from} rewritten"
            );
            assert_eq!(store.load_checkpoint(&key), Some((1 - from, next.clone())));
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    /// A resumed run that fails on its own — here it exceeds the cycle
    /// budget — reports that failure. Only a checkpoint that does not
    /// restore sends the point back to cycle 0; restarting a run that
    /// ran out of budget would fail the same way, only later.
    #[test]
    fn a_failing_resumed_run_is_not_restarted_from_zero() {
        let mut spec = vvadd_point();
        spec.params.max_uncore_cycles = 1100;
        let workload = spec.workload.build().expect("build vvadd");
        let mut last = None;
        let hooks = Hooks {
            on_checkpoint: Some(&mut |s: &SysState| {
                last = Some(s.clone());
                CkptControl::Continue
            }),
            ..Hooks::default()
        };
        let err = simulate_with(spec.system, &workload, &spec.params, hooks)
            .expect_err("the point needs more than its cycle budget");
        assert!(matches!(err, SimError::Run(_)), "unexpected error: {err:?}");
        let planted = last.expect("a checkpoint before the budget ran out");

        let dir = std::env::temp_dir().join(format!("bvl-worker-budget-{}", std::process::id()));
        let store = ResultStore::new(&dir);
        store
            .checkpoint_slots(&spec.key(), None)
            .write(&planted)
            .expect("plant checkpoint");
        let mut reported = Vec::new();
        let err = run_one_point(&spec, &store, &mut |cycle| {
            reported.push(cycle);
            false
        })
        .expect_err("the resumed point runs out of budget too");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.contains("exceeded"), "unexpected error: {err}");
        assert!(
            reported.iter().all(|&c| c > planted.uncore_cycle()),
            "restarted from cycle 0: checkpoints at {reported:?} after resuming cycle {}",
            planted.uncore_cycle()
        );
    }
}
