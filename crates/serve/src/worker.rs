//! Point execution, shared by every fabric worker and the in-process
//! sweep.
//!
//! [`run_exact_point`] is the single code path that executes one exact
//! experiment point: it resumes from a persisted checkpoint when asked,
//! writes a fresh blob at every checkpoint boundary, and can yield mid-run
//! when its caller asks. [`run_one_point`] is what a fabric worker runs:
//! it always resumes (that is what makes worker death cheap: whoever
//! picks the point up next continues from the last blob). The in-process
//! sweep calls [`run_exact_point`] directly and resumes only under
//! `--resume`.
//!
//! [`worker_main`] is every fabric worker's loop — a daemon's in-process
//! worker thread, a worker process it spawned, or a `bvl-serve --worker`
//! started by hand on the same host: connect to the daemon, say hello,
//! then loop executing [`Msg::Assign`]ments over that one connection
//! until told to shut down (or the daemon goes away).

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
    /// True when a checkpoint blob existed but was unusable (undecodable
    /// or fingerprint-mismatched), so the point restarted from cycle 0.
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

/// How one [`run_one_point`] call ended.
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

/// Executes one point against `store`, always resuming from an existing
/// checkpoint blob for its key.
///
/// `on_checkpoint(cycle)` fires after each checkpoint blob is persisted;
/// returning `true` orders a yield at that very checkpoint. Sampled
/// points (params carry a sampling config) run the serial sampled
/// pipeline, which has no mid-run checkpoint to yield at; a killed worker
/// simply re-runs them. Exact points run through [`run_exact_point`].
///
/// # Errors
///
/// Simulation failures (budget exceeded, output check failed, unknown
/// workload name) and checkpoint blobs that cannot be written. An
/// unusable blob is not an error: the point restarts from cycle 0.
pub fn run_one_point(
    spec: &PointSpec,
    store: &ResultStore,
    on_checkpoint: &mut dyn FnMut(u64) -> bool,
) -> Result<PointRun, String> {
    let workload = spec.workload.build()?;
    let params = &spec.params;

    if params.sampling.is_some() {
        let start = Instant::now();
        let (result, skip) = simulate_sampled(spec.system, &workload, params)?;
        return Ok(PointRun::Finished(Box::new(PointOutcome {
            result,
            edges_run: skip.edges_run,
            edges_skipped: skip.edges_skipped,
            host_secs: start.elapsed().as_secs_f64(),
            resumed: false,
            restarted_from_zero: false,
        })));
    }
    let key = spec.key();
    run_exact_point(
        spec.system,
        &workload,
        params,
        &key,
        store,
        true,
        on_checkpoint,
    )
}

/// Executes one exact point under cache key `key`, persisting a
/// checkpoint blob in `store` at every boundary of the
/// `params.checkpoint_every` cadence and deleting it once the point
/// finishes. `on_checkpoint(cycle)` fires after each blob is persisted;
/// returning `true` orders a yield at that very checkpoint.
///
/// With `resume`, an existing blob for `key` is resumed instead of
/// starting at cycle 0. A blob that does not restore (its fingerprints do
/// not match, or its body does not decode) is reported and the point
/// restarts from cycle 0; a resumed run that fails on its own fails like
/// any other run, since starting over would fail the same way.
///
/// # Errors
///
/// Simulation failures (the cycle budget ran out or the output check
/// failed), and a checkpoint blob that cannot be written: the run stops
/// at that checkpoint and the error names `key`.
pub fn run_exact_point(
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
    let mut save = |state: &SysState| {
        if let Err(e) = store.store_checkpoint(key, state) {
            write_error = Some(e);
            return CkptControl::Yield;
        }
        if on_checkpoint(state.uncore_cycle()) {
            CkptControl::Yield
        } else {
            CkptControl::Continue
        }
    };
    let mut run_from = |from: Option<&SysState>| {
        let hooks = Hooks {
            resume: from,
            on_checkpoint: Some(&mut save),
            want_state: false,
        };
        simulate_with(system, workload, params, hooks)
    };

    let saved = resume.then(|| store.load_checkpoint(key)).flatten();
    let mut restarted_from_zero = false;
    let resumed_out = saved
        .as_ref()
        .and_then(|state| match run_from(Some(state)) {
            Err(SimError::Restore(e)) => {
                eprintln!(
                    "{key}: checkpoint at cycle {} not resumable ({e}); \
                 restarting from cycle 0",
                    state.uncore_cycle()
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

/// The worker loop: connect to the daemon at `addr`, identify with
/// `token`, and execute assignments against the store at `store_dir`
/// until shut down. Returns when the daemon says [`Msg::Shutdown`] or
/// goes away. A daemon that vanishes mid-point is noticed when a
/// `Progress` write fails, at most two checkpoints later (one write may
/// still succeed after the daemon's socket closed; it draws the reset
/// that fails the next): the worker stops at that checkpoint and keeps
/// its blob, so the next daemon on the same store resumes the point
/// from it.
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
                let reply = match run_one_point(&spec, &store, &mut cb) {
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

    /// A resumed run that fails on its own — here it exceeds the cycle
    /// budget — reports that failure. Only a checkpoint that does not
    /// restore sends the point back to cycle 0; restarting a run that
    /// ran out of budget would fail the same way, only later.
    #[test]
    fn a_failing_resumed_run_is_not_restarted_from_zero() {
        let spec = PointSpec {
            system: SystemKind::B4Vl,
            workload_key: "vvadd@tiny".into(),
            workload: WorkloadSpec::Named {
                name: "vvadd".into(),
                scale: Scale::tiny(),
            },
            params: SimParams {
                checkpoint_every: 200,
                max_uncore_cycles: 1100,
                ..SimParams::default()
            },
        };
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
            .store_checkpoint(&spec.key(), &planted)
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
