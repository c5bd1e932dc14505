//! A counting wrapper around the system allocator.
//!
//! Only the `bench-traced` binary installs it as the global allocator,
//! so end-to-end runs keep the plain system allocator. Counting is off
//! except inside [`count_allocs`]; the off path costs one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static INSTALLED: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain atomics and never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Whether this binary runs on the counting allocator.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Heap allocations (including reallocations) performed by `f` on any
/// thread, or `None` when the counting allocator is not this binary's
/// global allocator. Call from a single-threaded section.
pub fn count_allocs(f: impl FnOnce()) -> Option<u64> {
    if !installed() {
        return None;
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    Some(ALLOCS.load(Ordering::Relaxed) - before)
}
