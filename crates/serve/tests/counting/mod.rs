//! A counting global allocator for the allocation-ceiling tests: it wraps
//! `System` and counts the allocation requests (alloc, zeroed, and growth
//! reallocs; frees are uncounted) made on the calling thread, so the
//! harness's own threads cannot move the count of the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation requests per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation requests made so far on this thread.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}
