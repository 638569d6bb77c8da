//! A counting global allocator shared by the allocation-regression tests
//! and benches (included via `#[path]`, not a cargo dependency, because a
//! `#[global_allocator]` must be installed by each binary itself).
//!
//! Counts every allocation per thread, and separately, process-wide, those
//! at or above [`BIG`] — the "full-object copy" detector for the 1 MiB
//! flush workloads: 64 KiB is three orders of magnitude above any
//! legitimate per-flush allocation, so the threshold separates object
//! clones from ordinary bookkeeping with a huge margin.
//!
//! The per-thread count keeps [`allocs_of`] blind to sibling tests running
//! in parallel. The big count must stay process-wide (simulated worlds
//! allocate on their own threads), so a binary that reads it runs its
//! measuring tests one at a time.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations of at least this size count as "big" (full-object copies in
/// the 1 MiB workloads).
pub const BIG: usize = 64 * 1024;

static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` and destructor-free: touching it never allocates, and
    // `try_with` covers allocations made while the thread is exiting.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counters have no side effects
// on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(size: usize) {
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Allocations of at least [`BIG`] bytes so far.
pub fn big_allocs() -> u64 {
    BIG_ALLOCS.load(Ordering::Relaxed)
}

/// Allocations performed by the calling thread while running `f`.
pub fn allocs_of(mut f: impl FnMut()) -> u64 {
    let before = thread_allocs();
    f();
    thread_allocs() - before
}
