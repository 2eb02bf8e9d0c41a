//! A counting global allocator for allocation-regression tests.
//!
//! The workspace's hot paths (training epochs, batched inference) are meant
//! to be allocation-free at steady state. Asserting that in a test needs a
//! global hook, so [`CountingAllocator`] wraps [`System`] and counts every
//! `alloc`/`realloc` call. A test binary opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: trout_std::alloc_count::CountingAllocator =
//!     trout_std::alloc_count::CountingAllocator::new();
//! ```
//!
//! and then brackets the region under test with [`CountingAllocator::count`].
//! Only counting happens here — no interposition, no size tracking — so the
//! overhead is one thread-local increment per allocation.
//!
//! The count is per thread: the test harness formats each finished test's
//! result on its own thread while the next test runs, so a process-wide
//! count of a region caught those allocations now and then. A region that
//! forks workers still shows the spawn's own allocations. Every test in a
//! counting binary also holds [`exclusive`] for its whole body, so one
//! test's environment changes (`TROUT_THREADS`) cannot reach another's
//! region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    // Const-initialized and drop-free, so the allocator can touch it at any
    // point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations (`alloc` + `realloc` calls) this thread has made so
/// far. Monotone; subtract two readings to count a region.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Serializes the tests of one binary: while a test holds the guard, no
/// other test that also takes it runs. A failed (panicked) holder does not
/// poison the lock for the tests after it.
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`System`] with an allocation counter. Install as `#[global_allocator]`
/// in the test binary that wants to assert allocation-freedom.
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new counting allocator (stateless — the counters are
    /// thread-local).
    pub const fn new() -> Self {
        CountingAllocator
    }

    /// Runs `f` and returns `(result, allocations this thread made during
    /// f)`.
    pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocations();
        let out = f();
        (out, allocations() - before)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

// SAFETY: delegates verbatim to `System`; the only addition is a
// thread-local counter increment, which cannot affect allocation
// correctness.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}
