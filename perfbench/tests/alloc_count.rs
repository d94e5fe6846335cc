//! The counting allocator sees exactly the allocations a call makes.
//! Alone in its test binary, so no other test allocates meanwhile.

use std::hint::black_box;

use xtuml_perfbench::alloc::{counted, AllocCount};

#[test]
fn one_vec_with_capacity_is_one_allocation_of_its_size() {
    let n = black_box(4096usize);
    let (v, used) = counted(|| Vec::<u8>::with_capacity(n));
    black_box(&v);
    assert_eq!(
        used,
        AllocCount {
            allocs: 1,
            bytes: 4096
        }
    );
}
