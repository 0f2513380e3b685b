#![warn(missing_docs)]
//! # bvl-workloads — the paper's application benchmarks
//!
//! Every workload of the evaluation (Tables IV and V), rebuilt as
//! instruction streams for the simulator:
//!
//! * [`kernels`] — the three data-parallel kernels: `vvadd`, `mmult`,
//!   `saxpy`.
//! * [`apps`] — the eight data-parallel applications from Rodinia, RiVec
//!   and the genomics suite: `backprop`, `kmeans`, `particlefilter`,
//!   `blackscholes`, `jacobi2d`, `pathfinder`, `lavamd`, `sw`
//!   (Smith-Waterman).
//! * [`graph`] — the eight Ligra-style task-parallel graph applications:
//!   `bfs`, `pagerank`, `components`, `radii`, `mis`, `kcore`, `bc`,
//!   `trianglecount`, over synthetic R-MAT graphs in CSR form.
//!
//! Each workload provides a *scalar* whole-run entry, a *vectorized*
//! whole-run entry (RVV strip-mined, the way the paper hand-vectorizes
//! with intrinsics), a task decomposition (range tasks with scalar and,
//! for data-parallel apps, vectorized variants — what the work-stealing
//! runtime distributes on `1bIV-4L`), and a pure-Rust reference check so
//! every simulated run is verified end-to-end.
//!
//! Inputs are synthetic (seeded [`rand`]): the paper's benchmark-suite
//! input files are not redistributable, and the kernels' behaviour is a
//! property of access pattern + input shape, which the generators
//! reproduce at configurable [`Scale`].

pub mod apps;
pub mod gen;
pub mod graph;
pub mod kernels;
pub mod micro;
pub mod workload;

pub use workload::{Phase, Scale, Workload, WorkloadClass};

/// Builds one workload at a scale.
type Builder = fn(Scale) -> Workload;

/// Every workload of the evaluation, by its own `name` field, in suite
/// order: the data-parallel kernels and apps, then the task-parallel
/// graph apps. The one table behind [`all_data_parallel`],
/// [`all_task_parallel`], [`by_name`] and [`is_registered`].
const REGISTRY: [(&str, Builder); 19] = [
    ("vvadd", kernels::vvadd::build),
    ("mmult", kernels::mmult::build),
    ("saxpy", kernels::saxpy::build),
    ("backprop", apps::backprop::build),
    ("kmeans", apps::kmeans::build),
    ("particlefilter", apps::particlefilter::build),
    ("blackscholes", apps::blackscholes::build),
    ("jacobi2d", apps::jacobi2d::build),
    ("pathfinder", apps::pathfinder::build),
    ("lavamd", apps::lavamd::build),
    ("sw", apps::sw::build),
    ("bfs", graph::bfs::build),
    ("pagerank", graph::pagerank::build),
    ("components", graph::components::build),
    ("radii", graph::radii::build),
    ("mis", graph::mis::build),
    ("kcore", graph::kcore::build),
    ("bc", graph::bc::build),
    ("trianglecount", graph::tc::build),
];

/// Where the task-parallel suite starts in [`REGISTRY`].
const FIRST_TASK_PARALLEL: usize = 11;

/// Builds every data-parallel workload (kernels + apps) at `scale`.
pub fn all_data_parallel(scale: Scale) -> Vec<Workload> {
    REGISTRY[..FIRST_TASK_PARALLEL]
        .iter()
        .map(|(_, build)| build(scale))
        .collect()
}

/// Builds the workload called `name` at `scale` — the sweep fabric's
/// name→builder registry. A worker process receives `(name, scale)` over
/// the wire and rebuilds the workload deterministically (generators are
/// seeded, so the rebuilt instance is byte-identical to the submitter's).
/// Names are the workloads' own `name` fields.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build(scale))
}

/// Whether [`by_name`] knows `name`, without building anything.
pub fn is_registered(name: &str) -> bool {
    REGISTRY.iter().any(|(n, _)| *n == name)
}

/// Builds every task-parallel (graph) workload at `scale`.
pub fn all_task_parallel(scale: Scale) -> Vec<Workload> {
    REGISTRY[FIRST_TASK_PARALLEL..]
        .iter()
        .map(|(_, build)| build(scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_suites_have_paper_counts() {
        let s = Scale::tiny();
        assert_eq!(all_data_parallel(s).len(), 11); // 3 kernels + 8 apps
        assert_eq!(all_task_parallel(s).len(), 8); // 8 Ligra apps
    }

    #[test]
    fn by_name_covers_every_suite_workload() {
        let s = Scale::tiny();
        for w in all_data_parallel(s)
            .iter()
            .chain(all_task_parallel(s).iter())
        {
            let rebuilt = by_name(w.name, s)
                .unwrap_or_else(|| panic!("workload `{}` missing from by_name", w.name));
            assert_eq!(rebuilt.name, w.name);
            // Deterministic rebuild: identical program text.
            assert_eq!(*rebuilt.program, *w.program);
        }
        assert!(by_name("no-such-kernel", s).is_none());
    }

    #[test]
    fn is_registered_agrees_with_by_name() {
        let s = Scale::tiny();
        for w in all_data_parallel(s)
            .iter()
            .chain(all_task_parallel(s).iter())
        {
            assert!(is_registered(w.name), "`{}` not registered", w.name);
        }
        assert!(!is_registered("no-such-kernel"));
    }
}
