//! Allocation and retained-memory bounds on model load.
//!
//! Loading a model should allocate about once per name the model keeps,
//! not once per token touched: tokens borrow the source, the parser
//! copies a name only into the AST, and the builder moves what it parsed
//! into the `Domain`. A loaded `Domain` can live for a daemon's lifetime,
//! so what it retains must not grow either: each vector the parse built
//! by `push` leaves with exact capacity. Both are measured here under a
//! global allocator that counts the calling thread's allocations and
//! live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xtuml_core::builder::pipeline_domain;
use xtuml_lang::{parse_domain, print_domain};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and the bytes they leave live, per thread.
struct Counting;

fn count(grown: i64) {
    // During thread teardown the counters may be gone; skip them then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|b| b.set(b.get() + grown));
}

fn freed(bytes: usize) {
    let _ = LIVE.try_with(|b| b.set(b.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const DOORBELL: &str = include_str!("../../../models/doorbell.xtuml");

/// Parses `src` and returns the domain's allocation count and the bytes
/// it still holds once every temporary of the parse is freed.
fn load(src: &str) -> (u64, i64) {
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let domain = parse_domain(src).expect("model parses");
    let counts = (ALLOCS.with(Cell::get) - allocs, LIVE.with(Cell::get) - live);
    drop(domain);
    counts
}

#[test]
fn loading_allocates_per_kept_name_not_per_token() {
    // Copying every token's text and cloning every parsed action took
    // 631; about one allocation per kept name stays well under 200.
    let (allocs, _) = load(DOORBELL);
    assert!(
        allocs < 200,
        "parse_domain(doorbell) took {allocs} allocations"
    );
}

#[test]
fn a_loaded_domain_retains_no_spare_capacity() {
    // The bounds are what each domain held when every vector in it was
    // a clone, and so exactly as long as its contents.
    let pipeline = print_domain(&pipeline_domain(8).expect("pipeline builds"));
    for (name, src, parent) in [
        ("doorbell", DOORBELL, 5_692),
        ("pipeline(8)", &pipeline, 17_249),
    ] {
        let (_, retained) = load(src);
        assert!(
            retained <= parent,
            "{name}: the loaded domain retains {retained} B, more than {parent} B"
        );
    }
}
