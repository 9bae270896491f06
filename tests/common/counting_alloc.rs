//! A counting `#[global_allocator]` for the allocation-gate binaries
//! (`alloc_regression`, `alloc_train_step`, `alloc_eval`,
//! `alloc_profile`), included with `#[path]` rather than through
//! `common/mod.rs` so no other suite gets it. The counters are
//! process-global: a binary that includes this holds one `#[test]`, so
//! nothing else allocates while one is counting.

#![allow(
    dead_code,
    reason = "each gate binary that includes this uses only some of it"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// The request size [`allocations_sized_in`] watches for, and how many
/// requests of exactly that size it saw.
static WATCHED_SIZE: AtomicUsize = AtomicUsize::new(usize::MAX);
static WATCHED: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
        if bytes == WATCHED_SIZE.load(Ordering::Relaxed) {
            WATCHED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[allow(
    unsafe_code,
    reason = "a global allocator is an unsafe impl; this one only counts calls into `System`"
)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with counting enabled; returns the heap allocations
/// (alloc/alloc_zeroed/realloc) it performed and the bytes they asked
/// for.
pub fn allocations_in(f: impl FnOnce()) -> (usize, usize) {
    let (allocs, bytes, _) = allocations_sized_in(usize::MAX, f);
    (allocs, bytes)
}

/// [`allocations_in`], plus how many of the allocations asked for
/// exactly `size` bytes.
pub fn allocations_sized_in(size: usize, f: impl FnOnce()) -> (usize, usize, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    WATCHED.store(0, Ordering::SeqCst);
    WATCHED_SIZE.store(size, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
        WATCHED.load(Ordering::SeqCst),
    )
}
