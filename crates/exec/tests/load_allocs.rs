//! Allocation bounds on compiling a loaded model.
//!
//! `Program::new` builds one compiled form per action: the bytecode is
//! lowered straight from the parsed blocks, with every name resolved as
//! it is emitted, and no intermediate tree is built and dropped on the
//! way. Measured here under a global allocator that counts the calling
//! thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xtuml_core::builder::pipeline_domain;
use xtuml_core::model::Domain;
use xtuml_exec::Program;
use xtuml_lang::parse_domain;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread.
struct Counting;

fn count() {
    // During thread teardown the counter may be gone; skip it then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `Program::new` makes for `domain`.
fn compile(domain: &Domain) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let program = Program::new(domain);
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(program);
    allocs
}

#[test]
fn compiling_builds_one_form_per_action() {
    // Building a slot-resolved tree of every action and lowering that
    // took 72 and 301; lowering straight from the blocks takes 34 and 118.
    let doorbell = parse_domain(include_str!("../../../models/doorbell.xtuml")).expect("parses");
    let pipeline = pipeline_domain(8).expect("pipeline builds");
    for (name, domain, bound) in [("doorbell", &doorbell, 34), ("pipeline(8)", &pipeline, 118)] {
        let allocs = compile(domain);
        assert!(
            allocs <= bound,
            "Program::new({name}) took {allocs} allocations, more than {bound}"
        );
    }
}
