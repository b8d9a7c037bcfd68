//! A counting wrapper around the system allocator, confined to this crate
//! (the product crates keep `#![forbid(unsafe_code)]`). It feeds every
//! `*.allocs_per_call` and `core.alloc*` metric of the traced pass.
//!
//! Counting is off unless [`enable`] was called: the server child and the
//! untraced load phases pay one relaxed load per allocation and touch no
//! shared counter, so the end-to-end numbers are not perturbed by the
//! instrumentation. The traced pass is single-threaded, which is what
//! makes its counts repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout` (this wrapper
        // never substitutes pointers), and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start counting (never switched off again within a process).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` since [`enable`].
pub fn snapshot() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_once_enabled() {
        enable();
        let (c0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let (c1, b1) = snapshot();
        // Other test threads allocate too, so only lower bounds hold here;
        // exact repeatability is checked on the single-threaded traced pass.
        assert!(c1 > c0);
        assert!(b1 - b0 >= 4096);
    }
}
