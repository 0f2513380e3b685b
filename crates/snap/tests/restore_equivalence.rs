//! Checkpoint-restore equivalence suite: the headline guarantee of the
//! checkpoint subsystem, in the same spirit as the tick-skip suite in
//! `crates/sim/tests/skip_equivalence.rs`.
//!
//! For every system kind, workload, and skip mode, a checkpoint taken at
//! any mid-run cycle and restored into a **fresh** system must run to a
//! completion that is *byte-identical* to the straight-through run: the
//! full [`RunResult`] (every counter, the exact `wall_ns` bits, the
//! unified stats snapshot), the final architectural state (register
//! files, memory image, drain certificates), and the cumulative
//! [`SkipStats`].
//!
//! Checkpoints cross the serialized form on the way — `to_bytes` →
//! `from_bytes` — so the suite proves the *blob* round-trips, not merely
//! the in-memory structure.

use bvl_sim::{
    plan_sampled, run_sample_window, simulate_preemptible, simulate_resumable, simulate_with_state,
    simulate_with_stats, CkptControl, FinalState, PlannedWindow, RunResult, SamplingParams,
    SimOutcome, SimParams, SkipStats, SysState, SystemKind,
};
use bvl_workloads::{kernels, Scale, Workload};
use std::path::PathBuf;

/// On an equivalence failure, persists the offending checkpoint blob
/// under `target/tmp/checkpoint-failures/` (CI uploads the directory as
/// an artifact) and returns the path for the panic message.
fn dump_offending_blob(blob: &[u8], kind: SystemKind, workload: &str, cycle: u64) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint-failures");
    std::fs::create_dir_all(&dir).expect("create failure-blob dir");
    let path = dir.join(format!("{kind}_{workload}_cycle{cycle}.snap"));
    std::fs::write(&path, blob).expect("write failure blob");
    path
}

/// Cadence chosen so even the shortest tiny-scale run crosses several
/// checkpoint boundaries.
const CADENCE: u64 = 300;

fn workloads() -> Vec<Workload> {
    let s = Scale::tiny();
    // vvadd is memory-bound; mmult is compute-bound with reuse — between
    // them every engine datapath and the task path get exercised.
    vec![kernels::vvadd::build(s), kernels::mmult::build(s)]
}

fn params(no_skip: bool) -> SimParams {
    SimParams {
        no_skip,
        ..SimParams::default()
    }
}

/// Straight-through run, also collecting every checkpoint on the cadence.
fn run_collecting(
    kind: SystemKind,
    w: &Workload,
    no_skip: bool,
) -> (RunResult, SkipStats, FinalState, Vec<SysState>) {
    let mut p = params(no_skip);
    p.checkpoint_every = CADENCE;
    let mut ckpts = Vec::new();
    let (r, s, f) = simulate_resumable(kind, w, &p, None, &mut |c| ckpts.push(c.clone()))
        .unwrap_or_else(|e| panic!("{} on {kind} (no_skip={no_skip}): {e}", w.name));
    (r, s, f, ckpts)
}

/// Picks a spread of restore points: the earliest, a middle, and the
/// latest checkpoint (deduplicated when the run was short).
fn restore_points(ckpts: &[SysState]) -> Vec<&SysState> {
    let mut idx = vec![0, ckpts.len() / 2, ckpts.len() - 1];
    idx.dedup();
    idx.into_iter().map(|i| &ckpts[i]).collect()
}

#[test]
fn restore_matches_straight_through_on_every_system() {
    let workloads = workloads();
    let mut restores = 0u64;
    for kind in SystemKind::ALL {
        for w in &workloads {
            for no_skip in [false, true] {
                // The baseline run takes no checkpoints at all.
                let (base_r, base_s, base_f) = simulate_with_state(kind, w, &params(no_skip))
                    .unwrap_or_else(|e| panic!("{} on {kind}: {e}", w.name));
                let (ck_r, ck_s, ck_f, ckpts) = run_collecting(kind, w, no_skip);

                // Merely taking checkpoints must not perturb anything.
                assert_eq!(base_r, ck_r, "checkpointing changed {kind}/{}", w.name);
                assert_eq!(base_s, ck_s, "checkpointing changed skip stats");
                assert_eq!(base_f, ck_f, "checkpointing changed final state");
                assert!(
                    !ckpts.is_empty(),
                    "{kind}/{} finished before the first checkpoint — lower CADENCE",
                    w.name
                );

                for state in restore_points(&ckpts) {
                    // Round-trip through the serialized blob.
                    let blob = state.to_bytes();
                    let decoded = SysState::from_bytes(&blob).unwrap_or_else(|e| {
                        panic!("{kind}/{}: blob failed to decode: {e}", w.name)
                    });
                    assert_eq!(decoded.kind(), kind);
                    assert_eq!(decoded.uncore_cycle(), state.uncore_cycle());

                    // Restore into a fresh system and run to completion.
                    let (r, s, f) =
                        simulate_resumable(kind, w, &params(no_skip), Some(&decoded), &mut |_| {})
                            .unwrap_or_else(|e| {
                                panic!(
                                    "{} on {kind} resumed at cycle {} (no_skip={no_skip}): {e}",
                                    w.name,
                                    state.uncore_cycle()
                                )
                            });

                    let at = state.uncore_cycle();
                    // Byte-level: the debug rendering comparison covers
                    // exact float bits and every stats-snapshot path.
                    let diverged = if base_r != r {
                        Some("result")
                    } else if format!("{base_r:?}") != format!("{r:?}") {
                        Some("debug rendering")
                    } else if base_s != s {
                        Some("skip stats")
                    } else if base_f != f {
                        Some("final architectural state")
                    } else {
                        None
                    };
                    if let Some(what) = diverged {
                        let path = dump_offending_blob(&blob, kind, w.name, at);
                        panic!(
                            "{what} diverged after restore at cycle {at} on {kind}/{} \
                             (no_skip={no_skip}); offending checkpoint saved to {}",
                            w.name,
                            path.display()
                        );
                    }
                    restores += 1;
                }
            }
        }
    }
    assert!(
        restores >= SystemKind::ALL.len() as u64 * 2 * 2,
        "suite exercised too few restores ({restores})"
    );
}

/// Checkpoints are sized by what the run touched — resident cache lines,
/// written vector elements, the written memory prefix — never by the
/// machine's capacity. Encoding every cache slot would take 330–460 KB
/// per blob on these systems; what these tiny runs touch takes under
/// 42 KB.
#[test]
fn checkpoints_are_sized_by_what_the_run_touched() {
    for kind in SystemKind::ALL {
        for w in &workloads() {
            let (_, _, _, ckpts) = run_collecting(kind, w, false);
            let largest = ckpts.iter().map(|c| c.to_bytes().len()).max().unwrap();
            assert!(
                largest < 64 << 10,
                "{kind}/{}: a {largest}-byte checkpoint of a tiny run",
                w.name
            );
        }
    }
}

/// A preemptible run that yields at every Nth checkpoint and is resumed
/// each time (the sweep fabric's eviction/migration cycle, each leg
/// crossing the serialized blob as a migrated run would) finishes with a
/// result byte-identical to the straight-through run.
#[test]
fn preemption_chain_matches_straight_through() {
    let workloads = workloads();
    for kind in [SystemKind::B4Vl, SystemKind::B1] {
        for w in &workloads {
            let (base_r, _) = simulate_with_stats(kind, w, &params(false))
                .unwrap_or_else(|e| panic!("{} on {kind}: {e}", w.name));

            let mut p = params(false);
            p.checkpoint_every = CADENCE;
            let mut resume: Option<SysState> = None;
            let mut legs = 0u32;
            let preempted = loop {
                // Yield at the second checkpoint boundary of each leg, so
                // every leg makes progress between evictions.
                let mut boundaries = 0u32;
                let out = simulate_preemptible(kind, w, &p, resume.as_ref(), &mut |_| {
                    boundaries += 1;
                    if boundaries == 2 {
                        CkptControl::Yield
                    } else {
                        CkptControl::Continue
                    }
                })
                .unwrap_or_else(|e| panic!("{} on {kind} leg {legs}: {e}", w.name));
                legs += 1;
                match out {
                    SimOutcome::Finished { result, .. } => break *result,
                    SimOutcome::Yielded { state } => {
                        // Cross the wire form, as a migrated run would.
                        let blob = state.to_bytes();
                        resume = Some(SysState::from_bytes(&blob).unwrap_or_else(|e| {
                            panic!("{kind}/{}: yielded blob failed to decode: {e}", w.name)
                        }));
                    }
                }
                assert!(legs < 10_000, "preemption chain failed to terminate");
            };
            assert!(
                legs >= 2,
                "{kind}/{} finished before the first eviction — lower CADENCE",
                w.name
            );
            assert_eq!(
                base_r, preempted,
                "{kind}/{}: preemption chain diverged after {legs} legs",
                w.name
            );
            assert_eq!(format!("{base_r:?}"), format!("{preempted:?}"));
        }
    }
}

/// Checkpoints materialized from *fast-forwarded functional state* (the
/// sampled-simulation planner, DESIGN.md §4.12) obey the same contract as
/// checkpoints taken mid-detailed-run: the blob round-trips byte-exactly,
/// and a detailed window restored from the decoded blob is deterministic —
/// every counter, the exact `wall_ns` bits, and the stats snapshot match
/// across independent restores.
#[test]
fn sampled_window_checkpoints_round_trip_and_replay_deterministically() {
    let workloads = workloads();
    // One scalar-mode system and one vector-mode system cover both
    // injection paths (big-core machine state vs engine-active state).
    for kind in [SystemKind::B1, SystemKind::BIv] {
        for w in &workloads {
            let p = SimParams {
                sampling: Some(SamplingParams {
                    period_instrs: 256,
                    window_instrs: 64,
                }),
                ..SimParams::default()
            };
            let plan =
                plan_sampled(kind, w, &p).unwrap_or_else(|e| panic!("{} on {kind}: {e}", w.name));
            assert!(
                !plan.exact_fallback,
                "{kind}/{} unexpectedly fell back to exact mode",
                w.name
            );
            assert!(!plan.windows.is_empty());

            // First, middle and last window, deduplicated.
            let mut idx = vec![0, plan.windows.len() / 2, plan.windows.len() - 1];
            idx.dedup();
            for i in idx {
                let window = &plan.windows[i];
                let blob = window.state.to_bytes();
                let decoded = SysState::from_bytes(&blob).unwrap_or_else(|e| {
                    panic!(
                        "{kind}/{}: functional checkpoint blob failed to decode: {e}",
                        w.name
                    )
                });
                assert_eq!(
                    decoded, window.state,
                    "{kind}/{} window {i}: blob did not round-trip",
                    w.name
                );

                let m1 = run_sample_window(kind, w, &p, window)
                    .unwrap_or_else(|e| panic!("{} on {kind} window {i}: {e}", w.name));
                let from_blob = PlannedWindow {
                    state: decoded,
                    ..window.clone()
                };
                let m2 = run_sample_window(kind, w, &p, &from_blob)
                    .unwrap_or_else(|e| panic!("{} on {kind} window {i} (blob): {e}", w.name));
                assert_eq!(
                    m1.result, m2.result,
                    "{kind}/{} window {i}: restored window diverged",
                    w.name
                );
                assert_eq!(format!("{:?}", m1.result), format!("{:?}", m2.result));
                assert_eq!(m1.instrs, m2.instrs);
                assert_eq!(m1.completed, m2.completed);
                assert_eq!(m1.skip, m2.skip);
            }
        }
    }
}
