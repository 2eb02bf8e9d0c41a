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
//! and then brackets the region under test with [`CountingAllocator::count`]
//! (or reads [`allocations`] directly). Only counting happens here — no
//! interposition, no size tracking — so the overhead is one relaxed atomic
//! increment per allocation.
//!
//! The counter is process-wide, and the test harness runs a binary's tests
//! on parallel threads, so one test's setup would land in another test's
//! count. Every test in a counting binary therefore holds [`exclusive`] for
//! its whole body.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Serializes the tests of one binary: while a test holds the guard, no
/// other test that also takes it allocates, so every region it counts sees
/// only its own allocations. A failed (panicked) holder does not poison the
/// lock for the tests after it.
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of heap allocations (`alloc` + `realloc` calls) since process
/// start, as seen by every installed [`CountingAllocator`]. Monotone;
/// subtract two readings to count a region.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// [`System`] with an allocation counter. Install as `#[global_allocator]`
/// in the test binary that wants to assert allocation-freedom.
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new counting allocator (stateless — the counter is global).
    pub const fn new() -> Self {
        CountingAllocator
    }

    /// Runs `f` and returns `(result, allocations during f)`.
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

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter increment, which cannot affect allocation correctness.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
