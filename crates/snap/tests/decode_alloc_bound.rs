//! A decoded length cannot make the decoder reserve more memory than its
//! input holds.
//!
//! `Vec` and `VecDeque` check a length against the bytes left, at one
//! byte per element, before reserving room for that many elements. A
//! claim of a million 96-byte elements backed by 1 MiB passes that check,
//! and reserving for all of them would be one 96 MB allocation. The test
//! watches every allocation through this binary's global allocator, which
//! is why it has a binary of its own.

use bvl_snap::{Snap, SnapReader, SnapWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; only sizes are recorded.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// 96 bytes in memory and 96 encoded, like the per-core `CoreStats`
/// entries of a `RunResult`.
type Elem = [u64; 12];

#[test]
fn a_claimed_length_reserves_no_more_than_the_input_holds() {
    const CLAIM: usize = 1_000_000;
    let mut w = SnapWriter::new();
    w.usize(CLAIM);
    let mut input = w.into_bytes();
    input.resize(input.len() + (1 << 20), 0);

    LARGEST.store(0, Ordering::Relaxed);
    let vec = Vec::<Elem>::load(&mut SnapReader::new(&input));
    let deque = VecDeque::<Elem>::load(&mut SnapReader::new(&input));
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(
        vec.is_err() && deque.is_err(),
        "1 MiB cannot hold {CLAIM} elements of 96 bytes"
    );
    assert!(
        largest <= input.len(),
        "one allocation of {largest} bytes while decoding {} bytes",
        input.len()
    );
}
