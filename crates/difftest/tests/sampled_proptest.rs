//! Property layer for sampled simulation (DESIGN.md §4.12) over the
//! difftest program generator: sampling must never change *functional*
//! results, and the estimator must stay close to the exact timing.
//!
//! For arbitrary generated programs, on every system that can be
//! functionally fast-forwarded:
//!
//! * the fast-forward's final architectural snapshot must equal the
//!   snapshot the exact detailed run's active core halts with (which the
//!   main difftest suite already pins to the architectural oracle — so
//!   sampled ≡ exact ≡ oracle);
//! * the sampled wall-time estimate must land within a loose tolerance
//!   of the exact wall time, with its planned windows accounted for.
//!
//! Task-parallel systems cannot be fast-forwarded; the plan must say so
//! (`exact_fallback`) rather than produce windows.

use bvl_difftest::{difftest_workload, generate};
use bvl_sim::{
    plan_sampled, simulate_sampled, simulate_with, Hooks, SamplingParams, SimParams, SystemKind,
};
use proptest::prelude::*;

/// Generated programs are a few hundred dynamic instructions, so short
/// periods give the estimator several strata to work with. The window
/// fraction is deliberately high (75%): at this size every window is a
/// handful of instructions, so boundary effects (pipeline refill, engine
/// ramp) dominate unless windows amortize them.
fn sampled_params() -> SimParams {
    SimParams {
        sampling: Some(SamplingParams {
            period_instrs: 128,
            window_instrs: 96,
        }),
        ..SimParams::default()
    }
}

/// Loose single-run tolerance on the wall-time estimate for *micro*
/// programs. Calibrated with `scan_estimator_error` below: the worst
/// observed error over 120 seeds × 5 systems is 0.314, so 0.45 leaves
/// ~40% headroom for unseen seeds. The tight, figure-level tolerances
/// (≤ 2% on real kernels) live in `bvl-sim`'s sampled-validation suite —
/// micro programs this short are the estimator's worst case, not its
/// operating point.
const WALL_TOL: f64 = 0.45;

/// The fast-forwardable systems: serial mode (1L, 1b) and every
/// single-engine vector mode (1bIV, 1bDV, 1b-4VL).
const FF_SYSTEMS: [SystemKind; 5] = [
    SystemKind::L1,
    SystemKind::B1,
    SystemKind::BIv,
    SystemKind::BDv,
    SystemKind::B4Vl,
];

/// The task-mode systems, which must fall back to exact simulation.
const TASK_SYSTEMS: [SystemKind; 2] = [SystemKind::B4L, SystemKind::BIv4L];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sampling_preserves_functional_results(seed in any::<u64>()) {
        let dt = generate(seed);
        let program = dt.assemble().expect("generated programs assemble");
        let (serial, vector) = (
            program.label("serial").expect("serial entry"),
            program.label("vector").expect("vector entry"),
        );
        let workload = difftest_workload(&program, serial, vector);
        let sampled = sampled_params();
        let exact = SimParams::default();

        for kind in FF_SYSTEMS {
            let plan = plan_sampled(kind, &workload, &sampled)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: plan on {kind}: {e}"));
            prop_assert!(!plan.exact_fallback, "{kind} unexpectedly fell back");
            prop_assert!(!plan.windows.is_empty());
            let ff = plan.final_arch.as_ref().expect("fast-forward snapshot");

            // Functional equivalence: the fast-forward's final state is
            // exactly what the detailed run's active core halts with.
            let hooks = Hooks {
                want_state: true,
                ..Hooks::default()
            };
            let run = simulate_with(kind, &workload, &exact, hooks)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: exact {kind}: {e}"))
                .finished()
                .expect("no checkpoint callback to yield");
            let (exact_r, fs) = (run.result, run.final_state.expect("state requested"));
            let active = fs
                .big
                .iter()
                .chain(fs.littles.iter())
                .find(|s| s.halted)
                .expect("one core halts");
            prop_assert_eq!(
                ff, active,
                "seed {:#x}: fast-forwarded architectural state diverged from \
                 the detailed run on {}", seed, kind
            );

            // Estimator: sampled wall time within tolerance of exact.
            let (est_r, _) = simulate_sampled(kind, &workload, &sampled)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: sampled {kind}: {e}"));
            let meta = est_r.sampling.as_ref().expect("sampled meta");
            prop_assert!(!meta.exact_fallback);
            prop_assert!(meta.windows_measured >= 1);
            let rel = (est_r.wall_ns - exact_r.wall_ns).abs() / exact_r.wall_ns;
            prop_assert!(
                rel <= WALL_TOL,
                "seed {:#x} on {}: sampled wall {} vs exact {} (rel err {:.3} > {})",
                seed, kind, est_r.wall_ns, exact_r.wall_ns, rel, WALL_TOL
            );
        }

        for kind in TASK_SYSTEMS {
            let plan = plan_sampled(kind, &workload, &sampled)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: plan on {kind}: {e}"));
            prop_assert!(
                plan.exact_fallback,
                "{kind} is task-parallel and must fall back to exact simulation"
            );
            prop_assert!(plan.windows.is_empty());
            prop_assert!(plan.final_arch.is_none());
        }
    }
}

/// Calibration tool for [`WALL_TOL`], not a regression test: prints the
/// worst estimator error over a fixed seed sweep. Run with
/// `cargo test -p bvl-difftest --test sampled_proptest -- --ignored --nocapture`.
#[test]
#[ignore]
fn scan_estimator_error() {
    let mut worst = (0.0f64, 0u64, SystemKind::L1);
    for seed in 0..120u64 {
        let dt = generate(seed);
        let program = dt.assemble().unwrap();
        let (serial, vector) = (
            program.label("serial").unwrap(),
            program.label("vector").unwrap(),
        );
        let workload = difftest_workload(&program, serial, vector);
        let sampled = sampled_params();
        let exact = SimParams::default();
        for kind in FF_SYSTEMS {
            let exact_r = bvl_sim::simulate(kind, &workload, &exact).unwrap();
            let (est_r, _) = simulate_sampled(kind, &workload, &sampled).unwrap();
            let rel = (est_r.wall_ns - exact_r.wall_ns).abs() / exact_r.wall_ns;
            if rel > worst.0 {
                worst = (rel, seed, kind);
                println!("new worst: rel {rel:.3} seed {seed} kind {kind}");
            }
        }
    }
    println!(
        "WORST: rel {:.3} seed {} kind {}",
        worst.0, worst.1, worst.2
    );
}
