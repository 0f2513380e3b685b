//! Point execution, shared by both worker tiers and the in-process sweep.
//!
//! [`run_exact_point`] is the single code path that executes one exact
//! experiment point: it resumes from a persisted checkpoint when asked,
//! writes a fresh blob at every checkpoint boundary, and can yield mid-run
//! when the scheduler asks. [`run_one_point`] is what a fabric worker —
//! an in-daemon thread or a spawned worker process — runs: it always
//! resumes (that is what makes worker death and eviction cheap: whoever
//! picks the point up next continues from the last blob). The in-process
//! sweep calls [`run_exact_point`] directly and resumes only under
//! `--resume`.
//!
//! [`worker_main`] is the process-tier entry: connect back to the
//! daemon, say hello on a main and a control connection, then loop
//! executing [`Msg::Assign`]ments until told to shut down (or the daemon
//! goes away).

use crate::proto::{self, Msg, ProtoError, EVICT_BYTE};
use crate::spec::PointSpec;
use crate::store::ResultStore;
use bvl_sim::{
    simulate_sampled, simulate_with, CkptControl, Hooks, RunResult, SimError, SimOutcome,
    SimParams, SysState, SystemKind,
};
use bvl_workloads::Workload;
use std::io::{self, Read};
use std::net::TcpStream;
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

/// How one [`run_one_point`] call ended.
#[derive(Debug)]
pub enum PointRun {
    /// Ran to completion.
    Finished(Box<PointOutcome>),
    /// Yielded at a checkpoint (the blob is persisted in the store);
    /// the point should be re-queued and resumed elsewhere.
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
/// workload name) — *not* checkpoint problems, which self-heal.
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
/// Simulation failures: the cycle budget ran out or the output check
/// failed.
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
    let mut save = |state: &SysState| {
        store.store_checkpoint(key, state);
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

/// Polls a non-blocking control connection for an eviction order.
/// Returns `true` when [`EVICT_BYTE`] (or EOF — a vanished daemon) is
/// seen.
fn control_says_evict(control: &mut TcpStream) -> bool {
    let mut buf = [0u8; 16];
    match control.read(&mut buf) {
        Ok(0) => true, // daemon hung up; stop working promptly
        Ok(n) => buf[..n].contains(&EVICT_BYTE),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    }
}

/// The process-tier worker loop: connect to the daemon at `addr`
/// (possibly on another host), identify with `token`, and execute
/// assignments against the store at `store_dir` until shut down.
/// When `secret` is given, both connections run the [`crate::auth`]
/// handshake before their hello — which also interoperates with an
/// open loopback daemon (it acks the hello without a challenge).
/// Returns when the daemon says [`Msg::Shutdown`] or closes the
/// connection.
///
/// # Errors
///
/// Connection setup or handshake failures (a wrong secret is a typed
/// rejection, surfaced here as an error string); once the loop is
/// running, daemon disappearance is a clean return, not an error.
pub fn worker_main(
    addr: &str,
    token: u64,
    store_dir: &str,
    secret: Option<&[u8]>,
) -> Result<(), String> {
    let store = ResultStore::new(store_dir);
    let mut main = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    main.set_nodelay(true).ok();
    if let Some(secret) = secret {
        crate::auth::client_handshake(&mut main, secret).map_err(|e| format!("auth: {e}"))?;
    }
    proto::write_msg(&mut main, &Msg::WorkerHello { token }).map_err(|e| format!("hello: {e}"))?;
    let mut control = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if let Some(secret) = secret {
        crate::auth::client_handshake(&mut control, secret)
            .map_err(|e| format!("control auth: {e}"))?;
    }
    proto::write_msg(&mut control, &Msg::ControlHello { token })
        .map_err(|e| format!("control hello: {e}"))?;
    control
        .set_nonblocking(true)
        .map_err(|e| format!("control nonblocking: {e}"))?;

    loop {
        let msg = match proto::read_msg(&mut main) {
            Ok(m) => m,
            Err(e) if e.is_clean_eof() => return Ok(()),
            Err(ProtoError::Io(_)) | Err(ProtoError::Truncated) => return Ok(()),
            Err(e) => return Err(format!("read: {e}")),
        };
        match msg {
            Msg::Assign { spec } => {
                // Drain any eviction byte left over from a previous
                // assignment's race (evicted right as it finished). Only
                // actual bytes are drained — EOF/errors are left for the
                // in-run poll, which treats them as an eviction.
                let mut drain = [0u8; 16];
                while matches!(control.read(&mut drain), Ok(n) if n > 0) {}
                let mut cb = |cycle: u64| {
                    let _ = proto::write_msg(&mut main, &Msg::Progress { cycle });
                    control_says_evict(&mut control)
                };
                let reply = match run_one_point(&spec, &store, &mut cb) {
                    Ok(PointRun::Finished(out)) => Msg::WorkerDone {
                        result: out.result,
                        edges_run: out.edges_run,
                        edges_skipped: out.edges_skipped,
                        host_secs: out.host_secs,
                        resumed: out.resumed,
                    },
                    Ok(PointRun::Yielded { cycle }) => Msg::WorkerYielded { cycle },
                    Err(error) => Msg::WorkerFailed { error },
                };
                if proto::write_msg(&mut main, &reply).is_err() {
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
        store.store_checkpoint(&spec.key(), &planted);
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
