//! An allocator for test binaries that notes the largest single request
//! and counts the blocks asked for: how the hostile-input tests, here and
//! in `ck_apps`, hold decoding to "allocation bounded by the bytes
//! present", and how a test holds a run to a budget of heap blocks. A
//! test binary installs it with `#[global_allocator] static A: Watching =
//! Watching;` and asks [`largest_alloc`] or [`allocations`] about a
//! closure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting on request the largest single size a
/// thread asks it for and how many blocks.
pub struct Watching;

thread_local! {
    /// `Some(largest request so far)` while this thread is watched.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
    /// `Some(blocks allocated so far)` while this thread is counted.
    static BLOCKS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LARGEST.try_with(|l| l.set(l.get().map(|seen| seen.max(size))));
}

fn count() {
    let _ = BLOCKS.try_with(|b| b.set(b.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one being implemented; `note` and `count` only
// read and write const-initialized `Cell`s and never allocate.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        note(new);
        // SAFETY: as for `dealloc`; `new` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new) }
    }
}

/// Run `f` on this thread; the largest single size it asked the
/// allocator for (0 unless [`Watching`] is the binary's allocator).
pub fn largest_alloc(f: impl FnOnce()) -> usize {
    LARGEST.set(Some(0));
    f();
    LARGEST.replace(None).expect("watched throughout")
}

/// Run `f` on this thread; how many heap blocks it allocated (a
/// `realloc` is not a new block; 0 unless [`Watching`] is the binary's
/// allocator).
pub fn allocations(f: impl FnOnce()) -> u64 {
    BLOCKS.set(Some(0));
    f();
    BLOCKS.replace(None).expect("counted throughout")
}
