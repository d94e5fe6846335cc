//! A counting global allocator: the number of `alloc`/`realloc` calls
//! and the bytes they request, plus the live heap and its peak,
//! process-wide, on relaxed atomics.
//!
//! The counts publish no other data, so `Relaxed` suffices; a reader on
//! one thread sees every allocation that thread made before the read.
//! Buffers the harness keeps for itself are allocated and freed inside
//! [`untracked`], so the live heap and its peak are the workload's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static UNTRACKED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting every allocation and reallocation.
pub struct Counting;

#[inline]
fn tracked() -> bool {
    // During thread teardown the flag may be gone; count then.
    UNTRACKED.try_with(|u| !u.get()).unwrap_or(true)
}

#[inline]
fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    if tracked() {
        let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

#[inline]
fn shrink(bytes: usize) {
    if tracked() {
        LIVE.fetch_sub(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only the
// atomics and a const-initialised thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since process start (or, as a
/// difference, between two readings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// The process-wide counts so far.
pub fn counts() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Sub for AllocCount {
    type Output = AllocCount;

    fn sub(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Runs `f` and returns its result with the allocations made meanwhile.
/// On a single-threaded path these are exactly `f`'s allocations.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let before = counts();
    let out = f();
    (out, counts() - before)
}

/// The most heap bytes live at once so far, outside [`untracked`].
pub fn peak_heap_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Runs `f` with this thread's allocations left out of the live heap.
/// Whatever `f` allocates must also be freed inside `untracked`.
pub(crate) fn untracked<T>(f: impl FnOnce() -> T) -> T {
    let was = UNTRACKED.with(|u| u.replace(true));
    let out = f();
    UNTRACKED.with(|u| u.set(was));
    out
}
