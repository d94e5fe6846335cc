//! # xtuml-mda — marks, mappings and the model compiler
//!
//! The heart of the paper's §3/§4: a **model compiler** that reads an
//! Executable UML domain plus a [`MarkSet`](xtuml_core::marks::MarkSet)
//! and applies *repeatable mapping rules* to produce:
//!
//! 1. the hardware/software **partition** (from `isHardware` marks),
//! 2. the **interface specification** — the exact set of events that
//!    cross the partition boundary, with generated channel ids, payload
//!    layouts and a register map ([`InterfaceSpec`]),
//! 3. **compilable text of two types**: C for the software half
//!    ([`cgen`]) and VHDL for the hardware half ([`vgen`]), both driving
//!    the same generated interface,
//! 4. an **executable system** ([`CompiledSystem`]): the same lowering,
//!    run as clocked hardware FSMs ([`hw`], the executable twin of the
//!    VHDL text, which nothing executes) and software tasks on the
//!    `xtuml-swrt` substrate, joined by the `xtuml-cosim` bridge, so the
//!    partitioned design can be run and its observable trace compared
//!    against the abstract model.
//!
//! Because the C text, the VHDL text and the executable bridge all consume
//! the *single* derived [`InterfaceSpec`], "the two halves are known to
//! fit together because the interface was generated" (paper §4) is a
//! structural property here, not a convention. And because the partition
//! is derived from marks alone, *changing the partition is a matter of
//! changing the placement of the marks*.
//!
//! ## Mapping-rule constraints
//!
//! The stock mapping rules impose the restrictions a real HW/SW flow
//! imposes; violations are **compile-time errors** ([`MdaError`]):
//!
//! * events that cross the partition boundary must carry only
//!   marshallable scalars (`bool`, `int`, `real` — no strings);
//! * `create`, `delete`, `select` and `relate`/`unrelate` must be
//!   partition-local (hardware has a static instance population; remote
//!   populations are not enumerable). Associations *may* cross the
//!   boundary: navigation yields references that can be signalled but not
//!   dereferenced for attributes;
//! * signal targets must be statically class-resolvable (guaranteed for
//!   everything the action language can express over scalar attributes).

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod analysis;
pub mod cgen;
pub mod compiler;
pub(crate) mod host;
pub mod hw;
pub mod icd;
pub mod interface;
pub mod lint;
pub mod partition;
pub mod swpart;
pub mod system;
pub mod vgen;

pub use compiler::{CompiledDesign, CompilerOptions, ModelCompiler};
pub use interface::InterfaceSpec;
pub use partition::{Partition, Side};
pub use system::CompiledSystem;

use std::fmt;

/// Errors from the model compiler and the compiled system.
#[derive(Debug, Clone, PartialEq)]
pub enum MdaError {
    /// A mapping-rule violation detected at compile time.
    Mapping {
        /// Human-readable description naming the offending element.
        msg: String,
    },
    /// An error bubbled up from the core (validation, runtime, ...).
    Core(xtuml_core::CoreError),
    /// An error from the co-simulation substrate.
    Cosim(String),
}

impl MdaError {
    /// Shorthand constructor for mapping errors.
    pub fn mapping(msg: impl Into<String>) -> MdaError {
        MdaError::Mapping { msg: msg.into() }
    }
}

impl fmt::Display for MdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdaError::Mapping { msg } => write!(f, "mapping rule violation: {msg}"),
            MdaError::Core(e) => write!(f, "{e}"),
            MdaError::Cosim(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for MdaError {}

impl From<xtuml_core::CoreError> for MdaError {
    fn from(e: xtuml_core::CoreError) -> MdaError {
        MdaError::Core(e)
    }
}

impl From<xtuml_cosim::CosimError> for MdaError {
    fn from(e: xtuml_cosim::CosimError) -> MdaError {
        MdaError::Cosim(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T, E = MdaError> = std::result::Result<T, E>;
