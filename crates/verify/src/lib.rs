//! # xtuml-verify — formal test cases and behavioural equivalence
//!
//! The paper's two testable promises:
//!
//! * §2 — *"formal test cases can be executed against the model"*:
//!   [`TestCase`] scripts a population and stimuli, [`run_model`] executes
//!   it on the abstract interpreter and yields the observable trace. The
//!   test case itself lives in `xtuml_core::testcase`, next to the
//!   `Drive` trait every executor implements, and is re-exported here;
//! * §4 — *"the defined behavior is preserved"* by any mapping:
//!   [`run_compiled`] executes the same test case on a partitioned,
//!   co-simulated implementation, and [`check_equivalence`] compares the
//!   observable traces **per actor** (each external actor must see the
//!   same ordered sequence of signals; relative interleaving across
//!   actors is platform freedom).
//!
//! [`verify_partition`] wires the whole E2 flow: compile under marks, run
//! both, compare. [`drift`] implements the E1 experiment: how fast
//! hand-maintained dual interfaces diverge vs generated ones.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod drift;
pub mod equivalence;
pub mod harness;

pub use equivalence::{check_equivalence, Divergence, EquivReport};
pub use harness::{check_expectations, explore_seeds, run_compiled, run_model, verify_partition};
pub use xtuml_core::testcase::{Expectation, TestCase};
