//! End-to-end conservation-law suite: every `SystemKind` × a vector
//! kernel and a matrix kernel, with the quiescence-skip engine both on
//! and off. `bvl_sim::verify_conservation` must find nothing, and the
//! skip-mode law (`edges_run + edges_skipped == Σ live domain cycles`)
//! must balance against the snapshot's `sys.clock.*` counters.

use bvl_sim::{simulate_with_stats, SimParams, SystemKind};
use bvl_workloads::{kernels, Scale, Workload};

fn check(workload: &Workload, kind: SystemKind, no_skip: bool) {
    let params = SimParams {
        no_skip,
        ..SimParams::default()
    };
    let (r, skip) = simulate_with_stats(kind, workload, &params)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, kind.label()));

    let violations = bvl_sim::verify_conservation(&r);
    assert!(
        violations.is_empty(),
        "{} on {} (no_skip={no_skip}): {}",
        workload.name,
        kind.label(),
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );

    // Skip-mode conservation: every clock edge of every live domain was
    // either processed naively or batch-skipped. `sys.clock.big`/`.little`
    // are registered only for live domains and `value()` defaults absent
    // paths to 0, so the sum below is exactly the live-domain total.
    let domain_edges =
        r.stat("sys.clock.uncore") + r.stat("sys.clock.big") + r.stat("sys.clock.little");
    assert_eq!(
        skip.edges_run + skip.edges_skipped,
        domain_edges,
        "{} on {} (no_skip={no_skip}): skip law",
        workload.name,
        kind.label()
    );
    if no_skip {
        assert_eq!(skip.edges_skipped, 0, "naive loop must not skip");
    }
}

#[test]
fn vvadd_balances_on_every_system_skip_on_and_off() {
    let w = kernels::vvadd::build(Scale::tiny());
    for kind in SystemKind::ALL {
        check(&w, kind, false);
        check(&w, kind, true);
    }
}

#[test]
fn mmult_balances_on_every_system_skip_on_and_off() {
    let w = kernels::mmult::build(Scale::tiny());
    for kind in SystemKind::ALL {
        check(&w, kind, false);
        check(&w, kind, true);
    }
}

/// Regression: `sw` halts its core with a speculative ifetch miss still
/// in flight toward the L2 — the case that forced the flow laws to carry
/// explicit `sys.mem.*_inflight` terms.
#[test]
fn sw_with_inflight_tail_balances() {
    let w = bvl_workloads::apps::sw::build(Scale::tiny());
    for kind in [SystemKind::L1, SystemKind::B4Vl] {
        check(&w, kind, false);
    }
}
