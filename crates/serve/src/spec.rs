//! Wire-transportable experiment-point specifications.
//!
//! A [`bvl_workloads::Workload`] cannot travel over a socket — it holds a
//! reference-check closure and megabytes of initialized memory image.
//! What travels instead is a [`WorkloadSpec`]: the recipe (builder name +
//! scale, or microbenchmark knobs) from which a worker process rebuilds
//! the workload deterministically. Generators are seeded, so the rebuilt
//! instance is byte-identical to the submitter's — the fabric's
//! byte-identity acceptance test stands on this.

use bvl_sim::{SimParams, SystemKind};
use bvl_snap::{Snap, SnapError, SnapReader, SnapWriter};
use bvl_workloads::micro::build_gather;
use bvl_workloads::{Scale, Workload};

/// How to rebuild one workload instance on the other end of the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A suite workload from the [`bvl_workloads::by_name`] registry,
    /// built at `scale` (which need not be a named preset — the
    /// mode-switch ablation sweeps custom `n` values through here).
    Named {
        /// The workload's own `name` field.
        name: String,
        /// The exact build scale.
        scale: Scale,
    },
    /// The synthetic gather microbenchmark ([`build_gather`]) with
    /// `locality`-way clustered indices — the VMIU-coalescing ablation's
    /// workload.
    Gather {
        /// Index clustering factor, in `1..gather_len(scale)`.
        locality: u64,
        /// The build scale.
        scale: Scale,
    },
}

impl WorkloadSpec {
    /// Rebuilds the workload this spec describes.
    ///
    /// # Errors
    ///
    /// Fails when a named workload is not in the registry (a newer
    /// submitter talking to an older worker), and when a gather's
    /// `locality` is outside `1..gather_len(scale)`.
    pub fn build(&self) -> Result<Workload, String> {
        match self {
            WorkloadSpec::Named { name, scale } => bvl_workloads::by_name(name, *scale)
                .ok_or_else(|| format!("unknown workload `{name}`")),
            WorkloadSpec::Gather { locality, scale } => build_gather(*scale, *locality),
        }
    }
}

impl Snap for WorkloadSpec {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            WorkloadSpec::Named { name, scale } => {
                w.u8(0);
                w.str(name);
                scale.save(w);
            }
            WorkloadSpec::Gather { locality, scale } => {
                w.u8(1);
                w.u64(*locality);
                scale.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WorkloadSpec::Named {
                name: r.str()?,
                scale: Scale::load(r)?,
            },
            1 => WorkloadSpec::Gather {
                locality: r.u64()?,
                scale: Scale::load(r)?,
            },
            tag => {
                return Err(SnapError::BadTag {
                    ty: "WorkloadSpec",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

/// One experiment point, as submitted to the fabric: what to simulate,
/// under which parameters, and the workload-instance identity string the
/// dedupe/cache key is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// System composition to simulate.
    pub system: SystemKind,
    /// The workload-instance identity (`"vvadd@tiny"`,
    /// `"gather-loc4@default"`, …) — carried verbatim so the fabric's
    /// cache keys are *identical* to the in-process sweep's, and a served
    /// run hits the same disk-cache entries a serverless run writes.
    pub workload_key: String,
    /// The rebuild recipe.
    pub workload: WorkloadSpec,
    /// Simulation parameters.
    pub params: SimParams,
}

impl PointSpec {
    /// The dedupe/memo/disk key of this point — the same key the
    /// in-process sweep computes (see [`crate::store::cache_key_for`]).
    pub fn key(&self) -> String {
        crate::store::cache_key_for(self.system, &self.workload_key, &self.params)
    }
}

impl Snap for PointSpec {
    fn save(&self, w: &mut SnapWriter) {
        self.system.save(w);
        w.str(&self.workload_key);
        self.workload.save(w);
        self.params.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PointSpec {
            system: SystemKind::load(r)?,
            workload_key: r.str()?,
            workload: WorkloadSpec::load(r)?,
            params: SimParams::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_snap::{from_framed, to_framed};

    #[test]
    fn specs_round_trip_framed() {
        let specs = [
            PointSpec {
                system: SystemKind::L1,
                workload_key: "mmult@large".into(),
                workload: WorkloadSpec::Named {
                    name: "mmult".into(),
                    scale: Scale::large(),
                },
                params: SimParams::default(),
            },
            PointSpec {
                system: SystemKind::B4Vl,
                workload_key: "gather-loc4@tiny".into(),
                workload: WorkloadSpec::Gather {
                    locality: 4,
                    scale: Scale::tiny(),
                },
                params: SimParams {
                    sampling: Some(bvl_sim::SamplingParams::default()),
                    ..SimParams::default()
                },
            },
        ];
        for spec in &specs {
            let blob = to_framed(spec);
            let back: PointSpec = from_framed(&blob).unwrap();
            assert_eq!(&back, spec);
        }
    }

    #[test]
    fn named_spec_rebuilds_the_workload() {
        let spec = WorkloadSpec::Named {
            name: "saxpy".into(),
            scale: Scale::tiny(),
        };
        let w = spec.build().unwrap();
        assert_eq!(w.name, "saxpy");
        let w2 = spec.build().unwrap();
        assert_eq!(*w.program, *w2.program);
    }

    #[test]
    fn gather_spec_rebuilds_deterministically() {
        let spec = WorkloadSpec::Gather {
            locality: 4,
            scale: Scale::tiny(),
        };
        let (a, b) = (spec.build().unwrap(), spec.build().unwrap());
        assert_eq!(*a.program, *b.program);
    }

    #[test]
    fn gather_locality_is_checked_on_both_sides_of_each_bound() {
        use bvl_workloads::micro::gather_len;

        let gather = |locality| {
            WorkloadSpec::Gather {
                locality,
                scale: Scale::tiny(),
            }
            .build()
        };
        let n = gather_len(Scale::tiny());
        for locality in [1, n - 1] {
            gather(locality).unwrap_or_else(|e| panic!("locality {locality}: {e}"));
        }
        for locality in [0, n] {
            let err = gather(locality)
                .err()
                .unwrap_or_else(|| panic!("locality {locality} built a workload"));
            let range = format!("locality = {locality} is outside 1..=1023");
            assert!(err.contains(&range), "{err}");
        }
    }

    #[test]
    fn unknown_workload_name_is_an_error() {
        let spec = WorkloadSpec::Named {
            name: "warp-drive".into(),
            scale: Scale::tiny(),
        };
        assert!(spec.build().is_err());
    }
}
