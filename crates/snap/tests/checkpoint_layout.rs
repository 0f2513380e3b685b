//! Checkpoint layout pin: one fixed mid-run checkpoint of `vvadd@tiny`
//! on every `SystemKind` — no engine, both `SimpleVecMachine` shapes
//! and the VLITTLE engine — must serialize to exactly the bytes whose
//! FNV-1a digests are committed below.
//!
//! DESIGN.md §4.11 requires a `SNAP_VERSION` bump on any change to the
//! `SysState` byte layout; this test is what enforces it. A refactor
//! that moves state around without meaning to change the layout must
//! pass the table unedited. After an intentional layout change, bump
//! `SNAP_VERSION` in `crates/snap/src/lib.rs` and re-bless:
//! `BLESS=1 cargo test -p bvl-snap --test checkpoint_layout -- --nocapture`
//! prints the new table to paste here.

use bvl_sim::{simulate_with, CkptControl, Hooks, SimParams, SysState, SystemKind};
use bvl_snap::{fnv1a, SNAP_VERSION};
use bvl_workloads::{kernels, Scale};

/// Checkpoint cadence (uncore cycles); the pinned checkpoint is the
/// middle one of the run.
const CADENCE: u64 = 300;

/// The `SNAP_VERSION` the table was blessed under.
const BLESSED_VERSION: u32 = 2;

/// `(system, checkpoint cycle, fnv1a of SysState::to_bytes())`.
const BLESSED: &[(&str, u64, u64)] = &[
    ("1L", 9091, 0x9741c3213aa11381),
    ("1b", 2700, 0x9dab43c2d2893fd6),
    ("1bIV", 4202, 0x220d7f7ea7f6a946),
    ("1b-4L", 2400, 0xb4efa120cf74d37f),
    ("1bIV-4L", 2400, 0xace3e679a9a8f2a7),
    ("1bDV", 900, 0x968d783603a69f85),
    ("1b-4VL", 1200, 0xb1c9be88cc68e7ca),
];

fn pinned_checkpoint(kind: SystemKind) -> SysState {
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
    simulate_with(kind, &w, &params, hooks).unwrap_or_else(|e| panic!("vvadd on {kind}: {e}"));
    assert!(!ckpts.is_empty(), "vvadd on {kind} took no checkpoint");
    ckpts.swap_remove(ckpts.len() / 2)
}

#[test]
fn checkpoint_layout_matches_the_blessed_table() {
    let table: Vec<(&str, u64, u64)> = SystemKind::ALL
        .iter()
        .map(|&kind| {
            let state = pinned_checkpoint(kind);
            (kind.label(), state.uncore_cycle(), fnv1a(&state.to_bytes()))
        })
        .collect();
    if std::env::var_os("BLESS").is_some() {
        println!("const BLESSED_VERSION: u32 = {SNAP_VERSION};");
        println!("const BLESSED: &[(&str, u64, u64)] = &[");
        for (label, cycle, digest) in &table {
            println!("    ({label:?}, {cycle}, 0x{digest:016x}),");
        }
        println!("];");
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
            "the SysState byte layout changed for {} (got cycle {} digest 0x{:016x}): \
             bump SNAP_VERSION in crates/snap/src/lib.rs, then re-bless with \
             BLESS=1 cargo test -p bvl-snap --test checkpoint_layout -- --nocapture",
            want.0, got.1, got.2
        );
    }
}
