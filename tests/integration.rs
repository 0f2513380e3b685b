//! Cross-crate integration tests: every workload runs end-to-end through
//! the full timing stack on representative systems, and every run is
//! verified against the workload's pure-Rust reference.

use big_vlittle::sim::{simulate, SimParams, SystemKind};
use big_vlittle::workloads::{all_data_parallel, all_task_parallel, Scale, Workload};

fn run(kind: SystemKind, w: &Workload) {
    simulate(kind, w, &SimParams::default())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, kind.label()));
}

/// The full matrix for two representative workloads per suite.
#[test]
fn representative_workloads_on_every_system() {
    let s = Scale::tiny();
    let picks: Vec<Workload> = vec![
        big_vlittle::workloads::kernels::vvadd::build(s),
        big_vlittle::workloads::apps::blackscholes::build(s),
        big_vlittle::workloads::graph::bfs::build(s),
        big_vlittle::workloads::graph::pagerank::build(s),
    ];
    for w in &picks {
        for kind in SystemKind::ALL {
            run(kind, w);
        }
    }
}

/// Every data-parallel workload completes (and checks) on the headline
/// system and the closest competitor.
#[test]
fn all_data_parallel_on_vector_systems() {
    for w in all_data_parallel(Scale::tiny()) {
        run(SystemKind::B4Vl, &w);
        run(SystemKind::BIv4L, &w);
    }
}

/// Every task-parallel workload completes on the multi-core systems.
#[test]
fn all_task_parallel_on_multicore_systems() {
    for w in all_task_parallel(Scale::tiny()) {
        run(SystemKind::B4L, &w);
        run(SystemKind::B4Vl, &w);
    }
}

/// The same simulation run twice produces bit-identical timing — the
/// simulator is deterministic.
#[test]
fn simulation_is_deterministic() {
    let w1 = big_vlittle::workloads::kernels::saxpy::build(Scale::tiny());
    let w2 = big_vlittle::workloads::kernels::saxpy::build(Scale::tiny());
    let r1 = simulate(SystemKind::B4Vl, &w1, &SimParams::default()).expect("run 1");
    let r2 = simulate(SystemKind::B4Vl, &w2, &SimParams::default()).expect("run 2");
    assert_eq!(r1.wall_ns, r2.wall_ns);
    assert_eq!(r1.stat("sys.fetch_groups"), r2.stat("sys.fetch_groups"));
    assert_eq!(r1.stat("sys.mem.data_reqs"), r2.stat("sys.mem.data_reqs"));
    assert_eq!(r1.stat("sys.clock.uncore"), r2.stat("sys.clock.uncore"));
}

/// Lane breakdowns always account for every lane cycle.
#[test]
fn lane_breakdowns_are_complete() {
    use big_vlittle::cores::types::StallKind;
    let w = big_vlittle::workloads::apps::lavamd::build(Scale::tiny());
    let r = simulate(SystemKind::B4Vl, &w, &SimParams::default()).expect("runs");
    let lane_cycles = (0..).map_while(|i| r.stats.get(&format!("sys.lane{i}.cycles")));
    for (i, cycles) in lane_cycles.enumerate() {
        let total: u64 = StallKind::ALL
            .iter()
            .map(|k| r.stat(&format!("sys.lane{i}.breakdown.{}", k.label())))
            .sum();
        assert_eq!(total, cycles);
    }
    // lavamd's reductions must put cycles in the cross-element bucket.
    assert!(
        r.lane_total(StallKind::Xelem) > 0,
        "no xelem cycles on a reduction-heavy workload"
    );
}
