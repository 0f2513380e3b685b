//! Property tests on the [`SysState`] wire format.
//!
//! Checkpoints come from *real* simulations of seeded difftest programs
//! (the same generator the fuzzing campaign uses), so the blobs exercise
//! every component codec. Properties:
//!
//! 1. **Round-trip**: `to_bytes` → `from_bytes` reproduces the checkpoint
//!    exactly, and resuming from the decoded copy finishes the run with
//!    results byte-identical to the straight-through run.
//! 2. **Corruption safety**: truncating the blob at any byte boundary, or
//!    flipping any single byte, makes `from_bytes` (or the subsequent
//!    restore) fail with a typed error — it never panics and never
//!    silently restores the wrong state.

use bvl_difftest::{difftest_workload, generate};
use bvl_sim::{simulate_with, CkptControl, Hooks, SimParams, SysState, SystemKind};
use proptest::prelude::*;

/// Builds a checkpoint plus its straight-through reference by running a
/// seeded difftest program on one system. Returns `None` when the run
/// finishes before the first checkpoint boundary.
fn checkpoint_for_seed(seed: u64, kind: SystemKind) -> Option<(SysState, bvl_workloads::Workload)> {
    let dt = generate(seed);
    let program = dt.assemble().ok()?;
    let serial = program.label("serial")?;
    let vector = program.label("vector")?;
    let workload = difftest_workload(&program, serial, vector);
    let params = SimParams {
        checkpoint_every: 200,
        max_uncore_cycles: 20_000_000,
        ..SimParams::default()
    };
    let mut first = None;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s| {
            first.get_or_insert_with(|| s.clone());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    simulate_with(kind, &workload, &params, hooks).ok()?;
    let state = first?;
    // Re-wrap the workload: `Workload` is not Clone (it owns a checker
    // closure), so rebuild it from the same program for the caller.
    Some((state, difftest_workload(&program, serial, vector)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-trip plus resume: the decoded blob is the checkpoint, and
    /// finishing from it matches the straight-through run exactly.
    #[test]
    fn roundtrip_and_resume(seed in 0u64..64, system in 0usize..7) {
        let kind = SystemKind::ALL[system];
        let Some((state, workload)) = checkpoint_for_seed(seed, kind) else {
            // Program too short to checkpoint (or untestable) — vacuous.
            return Ok(());
        };
        let blob = state.to_bytes();
        let decoded = SysState::from_bytes(&blob).expect("framed blob decodes");
        prop_assert_eq!(&decoded, &state, "decode is not the identity");

        let params = SimParams {
            max_uncore_cycles: 20_000_000,
            ..SimParams::default()
        };
        let run = |resume| {
            let hooks = Hooks { resume, want_state: true, ..Hooks::default() };
            let run = simulate_with(kind, &workload, &params, hooks)
                .expect("run")
                .finished()
                .expect("no checkpoint callback to yield");
            (run.result, run.skip, run.final_state)
        };
        let (base, resumed) = (run(None), run(Some(&decoded)));
        prop_assert_eq!(base, resumed, "resume diverged on seed {} / {}", seed, kind);
    }

    /// Truncation at any boundary is a typed error, never a panic.
    #[test]
    fn truncation_never_panics(seed in 0u64..64, cut_frac in 0.0f64..1.0) {
        let Some((state, _)) = checkpoint_for_seed(seed, SystemKind::B1) else {
            return Ok(());
        };
        let blob = state.to_bytes();
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < blob.len());
        let err = SysState::from_bytes(&blob[..cut]).expect_err("truncated blob must fail");
        // The error is typed and printable — that is the whole contract.
        let _ = err.to_string();
    }

    /// A single flipped byte anywhere in the blob is caught — by the
    /// checksum before decoding, or by a shape check during restore. The
    /// corrupted blob never yields a successful resume with wrong state.
    #[test]
    fn bitflip_never_restores_silently(seed in 0u64..16, pos_frac in 0.0f64..1.0) {
        let Some((state, workload)) = checkpoint_for_seed(seed, SystemKind::B1) else {
            return Ok(());
        };
        let mut blob = state.to_bytes();
        let pos = ((blob.len() as f64) * pos_frac) as usize % blob.len();
        blob[pos] ^= 0x40;
        match SysState::from_bytes(&blob) {
            Err(e) => {
                let _ = e.to_string(); // typed, printable
            }
            Ok(decoded) => {
                // Flip landed in the (length-checked) body copy without
                // tripping the checksum — impossible, since the frame
                // checksum catches any change within one word, but keep
                // the belt-and-braces check: the restore itself must
                // reject it.
                let params = SimParams {
                    max_uncore_cycles: 20_000_000,
                    ..SimParams::default()
                };
                let hooks = Hooks { resume: Some(&decoded), ..Hooks::default() };
                let r = simulate_with(SystemKind::B1, &workload, &params, hooks);
                prop_assert!(r.is_err(), "corrupted checkpoint restored silently");
            }
        }
    }
}
