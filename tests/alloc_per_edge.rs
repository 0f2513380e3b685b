//! Heap allocations per simulated clock edge, over whole runs of vector
//! points. Neither vector engine allocates per cycle: micro-ops are
//! `Copy`, source lists live inline, and the VCU sizes an instruction
//! before it expands it. What remains is per instruction (a command's
//! access list, an expansion, a memory command's lines) and per run
//! (building the system, collecting the result), so a run averages well
//! under one allocation per edge.
//!
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running beside each other do not disturb the
//! count. `simulate_with_stats` runs a point on its caller's thread.

use big_vlittle::sim::{simulate_with_stats, SimParams, SystemKind};
use big_vlittle::workloads::{by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// count is a plain thread-local cell that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per edge of `name@tiny` on `system`, over the edges the
/// run covered (ticked or skipped). The workload is built before
/// counting starts.
fn allocs_per_edge(system: SystemKind, name: &str) -> f64 {
    let workload = by_name(name, Scale::tiny()).expect("a named workload");
    let params = SimParams::default();
    let before = ALLOCS.with(Cell::get);
    let (_, skip) = simulate_with_stats(system, &workload, &params).expect("simulate");
    let allocs = ALLOCS.with(Cell::get) - before;
    let edges = skip.edges_run + skip.edges_skipped;
    assert!(edges > 0, "{name}@tiny on {system}: no edges");
    allocs as f64 / edges as f64
}

fn assert_at_most(system: SystemKind, max_per_edge: f64) {
    for name in ["saxpy", "vvadd"] {
        let per_edge = allocs_per_edge(system, name);
        assert!(
            per_edge <= max_per_edge,
            "{name}@tiny on {system}: {per_edge:.3} allocations per edge, \
             at most {max_per_edge} allowed"
        );
    }
}

/// The bound sits between the 0.24–0.26 allocations per edge these points
/// make and the 1.03–1.08 they make when the engine allocates a source
/// list per lane per cycle, a micro-op copy per lane per broadcast, and
/// expansions that a full UopQ throws away.
#[test]
fn the_vlittle_engine_ticks_without_allocating() {
    assert_at_most(SystemKind::B4Vl, 0.5);
}

/// The bound sits between the 0.11–0.17 allocations per edge these points
/// make and the 0.32–0.42 they make when the unit builds its head
/// command's source list on the heap at every tick and quiescence query.
#[test]
fn the_integrated_vector_unit_ticks_without_allocating() {
    assert_at_most(SystemKind::BIv, 0.25);
}
