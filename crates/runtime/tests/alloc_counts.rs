//! Heap allocations made by the nest executors, counted by a global
//! allocator. Dispatch must not allocate per chunk or per iteration:
//! under self-scheduling a chunk is one iteration, so a per-chunk `Vec`
//! would dominate the time the coalesced loop spends dispatching.
//!
//! Everything runs in one test so no concurrently running test pollutes
//! the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lc_runtime::{coalesced_for, inner_sweep_for, outer_for, RuntimeOptions};
use lc_sched::policy::PolicyKind;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `run` executes.
fn allocations(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn dispatch_does_not_allocate_per_chunk_or_iteration() {
    let ss = RuntimeOptions {
        threads: 2,
        policy: PolicyKind::SelfSched,
    };

    // 4096 one-iteration chunks: only the worker pool itself may allocate.
    let coalesced = allocations(|| {
        coalesced_for(&[64, 64], &ss, |iv| assert_eq!(iv.len(), 2));
    });
    assert!(
        coalesced < 100,
        "coalesced_for made {coalesced} allocations for 4096 chunks"
    );

    // Eight inner instances either way: the count may grow with the
    // instances (one fork/join each), not with the inner iterations.
    let small = allocations(|| {
        inner_sweep_for(&[8, 64], &ss, |iv| assert_eq!(iv.len(), 2));
    });
    let large = allocations(|| {
        inner_sweep_for(&[8, 512], &ss, |iv| assert_eq!(iv.len(), 2));
    });
    assert!(
        large < small + 64,
        "inner_sweep_for allocations grew with inner iterations: {small} at [8, 64], {large} at [8, 512]"
    );

    // One fork/join either way: the count may not grow with the outer
    // iterations each worker claims.
    let small = allocations(|| {
        outer_for(&[64, 8], &ss, |iv| assert_eq!(iv.len(), 2));
    });
    let large = allocations(|| {
        outer_for(&[512, 8], &ss, |iv| assert_eq!(iv.len(), 2));
    });
    assert!(
        large < small + 64,
        "outer_for allocations grew with outer iterations: {small} at [64, 8], {large} at [512, 8]"
    );
}
