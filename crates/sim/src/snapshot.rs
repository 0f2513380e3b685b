//! Whole-system checkpoint blobs.
//!
//! A [`SysState`] captures everything the tick loop needs to resume a run
//! mid-flight: every ticked component's mutable state (cores, engines,
//! memory hierarchy, runtime, shared memory image) plus the loop's own
//! control state (domain cycle counters, worker scheduling states, skip
//! planner back-off). The contract — specified in `DESIGN.md` §4.11 and
//! enforced by the `restore_equivalence` suite — is:
//!
//! > Restoring a checkpoint taken at uncore cycle `K` and running to
//! > completion yields a [`crate::RunResult`], [`crate::FinalState`], and
//! > stats snapshot byte-identical to the straight-through run.
//!
//! Deliberately **outside** the contract: the event-trace ring
//! (`bvl_obs::trace` is a bounded observability side channel, re-armed
//! per run) and [`crate::SkipStats`]' split between the pre- and
//! post-checkpoint segments (the restored run carries the saved counters
//! forward, so the *totals* match).
//!
//! The blob is framed by `bvl-snap` (magic, version, length, checksum),
//! so truncated or stale-version checkpoints fail [`SysState::from_bytes`]
//! with a typed [`SnapError`] instead of restoring garbage. A header
//! carrying the system kind and fingerprints of the simulation parameters
//! and workload guards against restoring a checkpoint into a differently
//! configured system.

use crate::config::{SimParams, SystemKind};
use bvl_snap::{fnv1a, frame_with, unframe, SnapError, SnapReader};
use bvl_workloads::Workload;

/// A serializable whole-system checkpoint (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SysState {
    kind: SystemKind,
    params_fp: u64,
    workload_fp: u64,
    cyc_u: u64,
    body: Vec<u8>,
}

impl SysState {
    pub(crate) fn new(
        kind: SystemKind,
        params_fp: u64,
        workload_fp: u64,
        cyc_u: u64,
        body: Vec<u8>,
    ) -> Self {
        SysState {
            kind,
            params_fp,
            workload_fp,
            cyc_u,
            body,
        }
    }

    /// The system kind the checkpoint was taken on.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// The uncore cycle the checkpoint was taken at.
    pub fn uncore_cycle(&self) -> u64 {
        self.cyc_u
    }

    pub(crate) fn params_fp(&self) -> u64 {
        self.params_fp
    }

    pub(crate) fn workload_fp(&self) -> u64 {
        self.workload_fp
    }

    pub(crate) fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serializes the checkpoint into a framed, checksummed blob, copying
    /// the body once: straight into a buffer sized for the whole blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame_with(0, |w| {
            // Header fields, body length prefix, body, frame checksum.
            w.reserve(1 + 3 * 8 + 8 + self.body.len() + 8);
            w.u8(kind_tag(self.kind));
            w.u64(self.params_fp);
            w.u64(self.workload_fp);
            w.u64(self.cyc_u);
            w.bytes(&self.body);
        })
    }

    /// Validates a framed blob and decodes the checkpoint header.
    ///
    /// The component payload itself is only decoded — against a freshly
    /// built system of the matching shape — when the checkpoint is handed
    /// to [`crate::system::simulate_resumable`].
    ///
    /// # Errors
    ///
    /// Any framing violation (bad magic, version mismatch, truncation,
    /// checksum mismatch) or an unknown system-kind tag yields the
    /// corresponding typed [`SnapError`]; this function never panics on
    /// arbitrary input.
    pub fn from_bytes(blob: &[u8]) -> Result<SysState, SnapError> {
        let payload = unframe(blob)?;
        let mut r = SnapReader::new(payload);
        let kind = kind_from_tag(r.u8()?)?;
        let params_fp = r.u64()?;
        let workload_fp = r.u64()?;
        let cyc_u = r.u64()?;
        let body = r.bytes()?.to_vec();
        r.finish()?;
        Ok(SysState {
            kind,
            params_fp,
            workload_fp,
            cyc_u,
            body,
        })
    }
}

fn kind_tag(kind: SystemKind) -> u8 {
    match kind {
        SystemKind::L1 => 0,
        SystemKind::B1 => 1,
        SystemKind::BIv => 2,
        SystemKind::B4L => 3,
        SystemKind::BIv4L => 4,
        SystemKind::BDv => 5,
        SystemKind::B4Vl => 6,
    }
}

fn kind_from_tag(tag: u8) -> Result<SystemKind, SnapError> {
    Ok(match tag {
        0 => SystemKind::L1,
        1 => SystemKind::B1,
        2 => SystemKind::BIv,
        3 => SystemKind::B4L,
        4 => SystemKind::BIv4L,
        5 => SystemKind::BDv,
        6 => SystemKind::B4Vl,
        t => {
            return Err(SnapError::BadTag {
                ty: "SystemKind",
                tag: u64::from(t),
            })
        }
    })
}

/// Fingerprint of everything in `params` that shapes simulation behavior.
///
/// The checkpoint cadence is zeroed first: it only controls *when*
/// checkpoints are emitted, never what the simulation computes, so a run
/// may legitimately be resumed under a different cadence. Tracing is
/// likewise excluded — the trace ring is outside the checkpoint contract.
pub(crate) fn params_fingerprint(params: &SimParams) -> u64 {
    let mut p = params.clone();
    p.checkpoint_every = 0;
    p.trace = false;
    fnv1a(format!("{p:?}").as_bytes())
}

/// Fingerprint of the workload identity (name, entry points, task-phase
/// count, memory-image size) — enough to reject restoring a checkpoint
/// into a different workload or a different problem scale. The memory
/// *contents* need no fingerprint: they are part of the checkpoint body.
pub(crate) fn workload_fingerprint(w: &Workload) -> u64 {
    let ident = format!(
        "{} serial={} vector={:?} phases={} mem={}",
        w.name,
        w.serial_entry,
        w.vector_entry,
        w.phases.len(),
        w.mem.len(),
    );
    fnv1a(ident.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SysState {
        SysState::new(SystemKind::B4Vl, 0xDEAD, 0xBEEF, 1234, vec![1, 2, 3, 4])
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let blob = s.to_bytes();
        assert_eq!(SysState::from_bytes(&blob).expect("round trip"), s);
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let blob = sample().to_bytes();
        for cut in 0..blob.len() {
            let err = SysState::from_bytes(&blob[..cut]).expect_err("truncated");
            // Any typed error is acceptable; panicking or Ok is not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut blob = sample().to_bytes();
        blob[4] = blob[4].wrapping_add(1); // little-endian version field
        match SysState::from_bytes(&blob) {
            Err(SnapError::VersionMismatch { .. }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_tag_is_rejected() {
        let blob = frame_with(0, |w| {
            w.u8(99);
            w.u64(0);
            w.u64(0);
            w.u64(0);
            w.bytes(&[]);
        });
        match SysState::from_bytes(&blob) {
            Err(SnapError::BadTag {
                ty: "SystemKind",
                tag: 99,
            }) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn cadence_and_trace_do_not_change_the_params_fingerprint() {
        let base = SimParams::default();
        let mut varied = base.clone();
        varied.checkpoint_every = 5_000;
        varied.trace = true;
        assert_eq!(params_fingerprint(&base), params_fingerprint(&varied));
        let mut different = base.clone();
        different.no_skip = true;
        assert_ne!(params_fingerprint(&base), params_fingerprint(&different));
    }
}
