#![warn(missing_docs)]
//! # bvl-difftest — differential fuzzing against an architectural oracle
//!
//! Randomized RVV-1.0 programs, cross-checked on **every** system of the
//! paper's Table III against the functional [`bvl_isa::exec::Machine`]
//! executor. The pipeline:
//!
//! 1. [`gen::generate`] derives a random program from a 64-bit seed — a
//!    scalar `serial:` section and a mixed scalar/vector `vector:`
//!    section with strided/indexed/masked memory ops, `vsetvli`
//!    reconfiguration and bounded loops, constrained so it runs
//!    in-bounds and terminates at every hardware VLEN.
//! 2. [`harness::check_program`] executes it through
//!    [`bvl_sim::simulate_with`] on all seven [`bvl_sim::SystemKind`]s
//!    and compares each run's [`bvl_sim::FinalState`] — memory image,
//!    scalar/FP register files and vector registers element-by-element —
//!    against a per-`(entry, VLEN)` oracle run.
//! 3. On divergence, [`shrink::shrink`] delta-debugs the program to a
//!    1-minimal reproducer, which can be committed verbatim under
//!    `corpus/*.s` (the [`text::DtProgram`] format round-trips) and is
//!    replayed by the corpus test on every CI run.
//!
//! Because the simulator executes architectural state at dispatch on the
//! same functional executor the oracle uses, divergences should be
//! impossible by construction; this crate is the regression net that
//! keeps state extraction, termination detection and task sequencing
//! honest as the timing models evolve. The exact comparison contract is
//! documented in `DESIGN.md` §4.9.

pub mod gen;
pub mod harness;
pub mod replay;
pub mod shrink;
pub mod text;

pub use gen::generate;
pub use harness::{check_program, difftest_workload, DiffResult, Divergence};
pub use replay::{replay_divergence_tail, ReplayCache, TailReplay};
pub use shrink::shrink;
pub use text::{DtOp, DtProgram};

/// Derives the per-run seed for run `i` of a campaign keyed by `seed`.
///
/// SplitMix64-style mixing: consecutive `i` yield decorrelated streams,
/// and the mapping is stable so `--runs N --seed S` always re-tests the
/// same N programs (the property the CI difftest step relies on).
pub fn mix_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_stable_and_spreads() {
        assert_eq!(mix_seed(0, 0), mix_seed(0, 0));
        assert_ne!(mix_seed(0, 0), mix_seed(0, 1));
        assert_ne!(mix_seed(0, 1), mix_seed(1, 0));
    }
}
