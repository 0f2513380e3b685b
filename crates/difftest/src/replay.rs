//! Checkpoint-accelerated replay for the shrink loop.
//!
//! Delta-debugging re-checks hundreds of candidate programs, and before
//! this module every check re-simulated all seven systems from cycle 0.
//! Two accelerations are sound and live here:
//!
//! 1. **Candidate memoization** ([`ReplayCache`]). `ddmin` revisits
//!    identical candidates as it re-partitions (the complement of a
//!    removed range at granularity `n` reappears at granularity `2n`),
//!    so keying [`check_program`] results by a digest of the rendered
//!    program turns those revisits into hash lookups.
//! 2. **Tail replay** ([`replay_divergence_tail`]). For a reproducer in
//!    hand, the diverging system is re-run once with a checkpoint
//!    cadence, and the *last* checkpoint before completion is kept.
//!    Resuming from it reproduces the byte-identical divergent final
//!    state while simulating only the tail — the checkpoint blob plus
//!    the `.s` file is a self-contained, fast-to-replay bug report.
//!
//! A third idea — sharing a checkpoint across shrink candidates at their
//! last common program prefix — is deliberately **not** implemented:
//! removing a line shifts the PC of every subsequent instruction, so a
//! checkpoint taken under one candidate (whose machine state embeds
//! concrete PCs and in-flight fetches) is not valid under another, even
//! when their executed-instruction prefixes agree textually. The digest
//! memoization above captures the sound fraction of that win.

use crate::harness::{check_program, difftest_workload, MAX_UNCORE_CYCLES};
use crate::text::DtProgram;
use bvl_sim::{simulate_with, CkptControl, Hooks, SimParams, SysState, SystemKind};
use bvl_snap::fnv1a;
use std::collections::HashMap;

/// Memoizes [`check_program`] verdicts across shrink candidates.
///
/// Keyed by an FNV-1a digest of the rendered program text, which is the
/// candidate's full identity (assembly is a pure function of the text).
#[derive(Default)]
pub struct ReplayCache {
    verdicts: HashMap<u64, bool>,
    /// Candidates answered from the cache without simulating.
    pub hits: u64,
    /// Candidates that had to run the full seven-system check.
    pub misses: u64,
}

impl ReplayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized `check_program(dt).is_divergence()` — the shrink
    /// predicate, minus the redundant re-simulations.
    pub fn still_diverges(&mut self, dt: &DtProgram) -> bool {
        let key = fnv1a(dt.render().as_bytes());
        if let Some(&verdict) = self.verdicts.get(&key) {
            self.hits += 1;
            return verdict;
        }
        self.misses += 1;
        let verdict = check_program(dt).is_divergence();
        self.verdicts.insert(key, verdict);
        verdict
    }
}

/// Proof artifact of a successful tail replay: the checkpoint plus the
/// cycle split showing how much of the run it skips.
pub struct TailReplay {
    /// The last checkpoint before completion on the diverging system.
    /// Serialize with [`SysState::to_bytes`] to attach to a bug report.
    pub checkpoint: SysState,
    /// Uncore cycles of the full straight-through run.
    pub total_cycles: u64,
    /// Uncore cycles actually re-simulated when resuming from the
    /// checkpoint (the divergent tail).
    pub replayed_cycles: u64,
}

/// Re-runs `dt` on `system` with a checkpoint cadence, keeps the last
/// checkpoint, then proves that resuming from it reproduces the
/// byte-identical final state of the straight-through run.
///
/// Works for any program that simulates to completion (the equivalence
/// law is unconditional); divergences of the "simulation failed" flavor
/// have no final state to checkpoint and return a descriptive error.
pub fn replay_divergence_tail(dt: &DtProgram, system: SystemKind) -> Result<TailReplay, String> {
    let program = dt.assemble().map_err(|e| format!("assembly failed: {e}"))?;
    let (serial, vector) = match (program.label("serial"), program.label("vector")) {
        (Some(s), Some(v)) => (s, v),
        _ => return Err("missing `serial`/`vector` entry label".to_string()),
    };
    let workload = difftest_workload(&program, serial, vector);
    let params = SimParams {
        max_uncore_cycles: MAX_UNCORE_CYCLES,
        ..SimParams::default()
    };
    let with_state = |resume| Hooks {
        resume,
        want_state: true,
        ..Hooks::default()
    };
    let base = simulate_with(system, &workload, &params, with_state(None))
        .map_err(|e| format!("straight run failed (nothing to checkpoint): {e}"))?
        .finished()
        .expect("no checkpoint callback to yield");

    // A cadence of total/8 puts the last checkpoint in the final eighth
    // of the run; the floor keeps very short runs from checkpointing
    // every cycle.
    let total = base.result.stat("sys.clock.uncore");
    let mut cadenced = params.clone();
    cadenced.checkpoint_every = (total / 8).max(16);
    let mut last: Option<SysState> = None;
    let hooks = Hooks {
        on_checkpoint: Some(&mut |s| {
            last = Some(s.clone());
            CkptControl::Continue
        }),
        ..Hooks::default()
    };
    simulate_with(system, &workload, &cadenced, hooks)
        .map_err(|e| format!("checkpointed run failed: {e}"))?;
    let checkpoint =
        last.ok_or_else(|| format!("run finished in {total} cycles, before the first checkpoint"))?;

    let tail = simulate_with(system, &workload, &params, with_state(Some(&checkpoint)))
        .map_err(|e| {
            format!(
                "resume from cycle {} failed: {e}",
                checkpoint.uncore_cycle()
            )
        })?
        .finished()
        .expect("no checkpoint callback to yield");
    if (&tail.result, tail.skip, &tail.final_state) != (&base.result, base.skip, &base.final_state)
    {
        return Err(format!(
            "tail replay from cycle {} did not reproduce the straight-through run on {system}",
            checkpoint.uncore_cycle()
        ));
    }
    Ok(TailReplay {
        total_cycles: total,
        replayed_cycles: total - checkpoint.uncore_cycle(),
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn cache_memoizes_identical_candidates() {
        let prog = generate(3);
        let mut cache = ReplayCache::new();
        let first = cache.still_diverges(&prog);
        let second = cache.still_diverges(&prog);
        assert_eq!(first, second);
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn tail_replay_reproduces_the_run() {
        // The equivalence law is unconditional, so a passing program
        // exercises the full path without needing a planted bug.
        let prog = generate(7);
        let tr = replay_divergence_tail(&prog, SystemKind::B4Vl).expect("tail replay");
        assert!(tr.checkpoint.uncore_cycle() > 0);
        assert!(
            tr.replayed_cycles < tr.total_cycles,
            "tail ({}) should be a strict fraction of the run ({})",
            tr.replayed_cycles,
            tr.total_cycles
        );
    }
}
