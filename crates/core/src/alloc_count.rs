//! A per-thread counting global allocator.
//!
//! The zero-allocation datapath claim ("a steady-state simulated cycle
//! performs zero heap allocations") is asserted, not assumed: a binary or
//! test installs [`CountingAlloc`] as its `#[global_allocator]`, wraps
//! the measured region in [`count_allocations`], and fails if the region
//! allocated.
//!
//! The counter is thread-local, so a measurement sees only what its own
//! thread allocates: tests running beside it under libtest's default
//! parallelism cannot leak allocations into its count. Every counted
//! region runs its session on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialized and drop-free: accessing it never allocates,
    // so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with` so an allocation during thread teardown is simply not
    // counted instead of aborting.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts every allocation on the
/// calling thread (`alloc`, `alloc_zeroed`, and `realloc` calls all count
/// as one; `dealloc` is free and uncounted).
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// does not influence allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations the calling thread has made since it started (zero
/// unless [`CountingAlloc`] is the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns `(allocations the calling thread made during f,
/// f's result)`. Only meaningful when [`CountingAlloc`] is installed as
/// the global allocator.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let value = f();
    (allocation_count() - before, value)
}
