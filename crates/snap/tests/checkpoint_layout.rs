//! Checkpoint and result layout pin: one fixed mid-run checkpoint of
//! `vvadd@tiny` on every `SystemKind` — no engine, both
//! `SimpleVecMachine` shapes and the VLITTLE engine — must serialize to
//! exactly the bytes whose FNV-1a digests are committed below, and so
//! must the snap frame of the result each run finishes with, and of one
//! sampled estimate.
//!
//! DESIGN.md §4.11 requires a `SNAP_VERSION` bump on any change to the
//! `SysState` byte layout, and on any change to a stored `RunResult`:
//! the result store keeps results as snap frames, so a frame an older
//! build wrote is served until the version tells it apart. This test is
//! what enforces it. A refactor that moves state around without meaning
//! to change the layout or the results must pass the tables unedited.
//! After an intentional change, bump `SNAP_VERSION` in
//! `crates/snap/src/lib.rs` and re-bless:
//! `BLESS=1 cargo test -p bvl-snap --test checkpoint_layout -- --nocapture`
//! prints the new tables to paste here.

use bvl_sim::{
    simulate_sampled, simulate_with, CkptControl, Hooks, RunResult, SamplingParams, SimParams,
    SysState, SystemKind,
};
use bvl_snap::{fnv1a, to_framed, SNAP_VERSION};
use bvl_workloads::{kernels, Scale};

/// Checkpoint cadence (uncore cycles); the pinned checkpoint is the
/// middle one of the run.
const CADENCE: u64 = 300;

/// The `SNAP_VERSION` the table was blessed under.
const BLESSED_VERSION: u32 = 2;

/// `(system, checkpoint cycle, fnv1a of SysState::to_bytes(), fnv1a of
/// to_framed(&result))`.
const BLESSED: &[(&str, u64, u64, u64)] = &[
    ("1L", 9091, 0x9741c3213aa11381, 0x0885c01beddf4a95),
    ("1b", 2700, 0x9dab43c2d2893fd6, 0x2cafa4b42b51a416),
    ("1bIV", 4202, 0x220d7f7ea7f6a946, 0x3c1b371c0f9f8531),
    ("1b-4L", 2400, 0xb4efa120cf74d37f, 0x3ac8700a2429b3d4),
    ("1bIV-4L", 2400, 0xace3e679a9a8f2a7, 0x36ba4e58b20a25d3),
    ("1bDV", 900, 0x968d783603a69f85, 0x1156f96a9dba9d82),
    ("1b-4VL", 1200, 0xb1c9be88cc68e7ca, 0xb7b5a29014518e2a),
];

/// `(system, fnv1a of to_framed(&result))` of the sampled estimate
/// [`sampled_result`] makes.
const BLESSED_SAMPLED: &[(&str, u64)] = &[("1b", 0xff19de5f331752ee)];

/// The middle checkpoint of `vvadd@tiny` on `kind`, and the result the
/// run finishes with.
fn pinned_run(kind: SystemKind) -> (SysState, RunResult) {
    let w = kernels::vvadd::build(Scale::tiny());
    let params = SimParams {
        checkpoint_every: CADENCE,
        ..SimParams::default()
    };
    let mut ckpts = Vec::new();
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s| {
            ckpts.push(s.clone());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    let run = simulate_with(kind, &w, &params, hooks)
        .unwrap_or_else(|e| panic!("vvadd on {kind}: {e}"))
        .finished()
        .expect("nothing orders a yield");
    assert!(!ckpts.is_empty(), "vvadd on {kind} took no checkpoint");
    (ckpts.swap_remove(ckpts.len() / 2), run.result)
}

/// The sampled estimate of `vvadd@tiny` on `1b` at period 1024 and
/// window 512, which pins `SamplingMeta`'s layout too.
fn sampled_result() -> RunResult {
    let params = SimParams {
        sampling: Some(SamplingParams {
            period_instrs: 1024,
            window_instrs: 512,
        }),
        ..SimParams::default()
    };
    let w = kernels::vvadd::build(Scale::tiny());
    let (result, _) = simulate_sampled(SystemKind::B1, &w, &params).expect("sampled vvadd on 1b");
    assert!(result.sampling.is_some(), "the estimate carries no meta");
    result
}

#[test]
fn checkpoint_layout_matches_the_blessed_table() {
    let table: Vec<(&str, u64, u64, u64)> = SystemKind::ALL
        .iter()
        .map(|&kind| {
            let (state, result) = pinned_run(kind);
            let digest = fnv1a(&state.to_bytes());
            let result = fnv1a(&to_framed(&result));
            (kind.label(), state.uncore_cycle(), digest, result)
        })
        .collect();
    let sampled = [(SystemKind::B1.label(), fnv1a(&to_framed(&sampled_result())))];
    if std::env::var_os("BLESS").is_some() {
        println!("const BLESSED_VERSION: u32 = {SNAP_VERSION};");
        println!("const BLESSED: &[(&str, u64, u64, u64)] = &[");
        for (label, cycle, digest, result) in &table {
            println!("    ({label:?}, {cycle}, 0x{digest:016x}, 0x{result:016x}),");
        }
        println!("];");
        let [(label, result)] = sampled;
        println!("const BLESSED_SAMPLED: &[(&str, u64)] = &[({label:?}, 0x{result:016x})];");
        return;
    }
    assert_eq!(
        SNAP_VERSION, BLESSED_VERSION,
        "SNAP_VERSION changed: re-bless the layout table with \
         BLESS=1 cargo test -p bvl-snap --test checkpoint_layout -- --nocapture"
    );
    assert_eq!(table.len(), BLESSED.len(), "one blessed row per SystemKind");
    for (got, want) in table.iter().zip(BLESSED) {
        assert_eq!(
            got, want,
            "the SysState byte layout or the stored result changed for {} (got cycle {} \
             digest 0x{:016x} result 0x{:016x}): bump SNAP_VERSION in crates/snap/src/lib.rs, \
             so that older checkpoints and store entries are misses, then re-bless with \
             BLESS=1 cargo test -p bvl-snap --test checkpoint_layout -- --nocapture",
            want.0, got.1, got.2, got.3
        );
    }
    assert_eq!(
        sampled[..],
        BLESSED_SAMPLED[..],
        "the stored sampled result changed: bump SNAP_VERSION in crates/snap/src/lib.rs, \
         so that older store entries are misses, then re-bless with \
         BLESS=1 cargo test -p bvl-snap --test checkpoint_layout -- --nocapture"
    );
}
