//! Skip-equivalence suite: the quiescence-aware tick-skip engine must be
//! invisible in results.
//!
//! For every system kind and a representative set of workloads, a run
//! with tick skipping enabled must produce a [`RunResult`] that is
//! *byte-identical* to the naive cycle-by-cycle loop (`no_skip`) — every
//! cycle count, every stall-breakdown bucket, every cache counter, the
//! exact `wall_ns` bits.
//!
//! Event tracing must be just as invisible: the cache key and the
//! checkpoint fingerprint both ignore `SimParams::trace`, so a traced run
//! has to reproduce the untraced run's result, skip counters and final
//! state exactly.

use bvl_sim::{simulate_with, FinalState, Hooks, RunResult, SimParams, SkipStats, SystemKind};
use bvl_workloads::{graph, kernels, Scale, Workload};

fn representative_workloads() -> Vec<Workload> {
    let s = Scale::tiny();
    vec![
        // Data-parallel kernels: vvadd is memory-bound, saxpy mixes FP
        // compute, mmult is compute-bound with reuse.
        kernels::vvadd::build(s),
        kernels::saxpy::build(s),
        kernels::mmult::build(s),
        // A task-parallel graph app exercises the work-stealing path.
        graph::bfs::build(s),
    ]
}

fn run(
    kind: SystemKind,
    w: &Workload,
    no_skip: bool,
    trace: bool,
) -> (RunResult, SkipStats, FinalState) {
    let params = SimParams {
        no_skip,
        trace,
        ..SimParams::default()
    };
    let hooks = Hooks {
        want_state: true,
        ..Hooks::default()
    };
    let run = simulate_with(kind, w, &params, hooks)
        .unwrap_or_else(|e| panic!("{} on {kind} (no_skip={no_skip}): {e}", w.name))
        .finished()
        .expect("no yield ordered");
    assert_eq!(run.trace.is_some(), trace, "trace log presence on {kind}");
    let state = run.final_state.expect("final state requested");
    (run.result, run.skip, state)
}

#[test]
fn skip_matches_naive_on_every_system() {
    let workloads = representative_workloads();
    let mut total_skipped = 0u64;
    for kind in SystemKind::ALL {
        for w in &workloads {
            let (naive, base_stats, naive_state) = run(kind, w, true, false);
            let (skipped, skip_stats, skipped_state) = run(kind, w, false, false);
            let traced = run(kind, w, false, true);
            assert_eq!(
                base_stats.edges_skipped, 0,
                "no_skip run skipped edges on {kind}/{}",
                w.name
            );
            // Same total edge work, just batched.
            assert_eq!(
                base_stats.edges_run,
                skip_stats.edges_run + skip_stats.edges_skipped,
                "edge accounting diverged on {kind}/{}",
                w.name
            );
            assert_eq!(
                naive, skipped,
                "skip-on result diverged from naive on {kind}/{}",
                w.name
            );
            // Byte-level: the full debug rendering (every field, exact
            // float bits via Debug) must match too.
            assert_eq!(
                format!("{naive:?}"),
                format!("{skipped:?}"),
                "debug rendering diverged on {kind}/{}",
                w.name
            );
            // Architectural equivalence: not just the timing counters
            // but the final machine state — every register file, the
            // full memory image, and the drain certificates — must be
            // unaffected by tick skipping.
            assert!(
                naive_state.engine_drained && skipped_state.engine_drained,
                "engine not drained on {kind}/{}",
                w.name
            );
            assert_eq!(
                naive_state, skipped_state,
                "final architectural state diverged between skip-on and \
                 naive on {kind}/{}",
                w.name
            );
            assert_eq!(
                traced,
                (skipped.clone(), skip_stats, skipped_state),
                "tracing changed the result, skip counters or final state \
                 on {kind}/{}",
                w.name
            );
            total_skipped += skip_stats.edges_skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "the suite never exercised a skipped window"
    );
}
