//! # xtuml-lang — the textual Executable UML model format
//!
//! BridgePoint-era xtUML tools captured models graphically; for a
//! reproducible, diffable toolchain we use a textual format instead (the
//! modeling *surface* is irrelevant to the paper's claims). A model file
//! declares one domain:
//!
//! ```text
//! domain Blinker;
//!
//! actor ENV {
//!     signal blinked(count: int);
//! }
//!
//! class Led {
//!     attr on: bool;
//!     attr blinks: int = 0;
//!
//!     event Toggle();
//!
//!     initial Off;
//!
//!     state Off {
//!         self.on = false;
//!     }
//!     state On {
//!         self.on = true;
//!         self.blinks = self.blinks + 1;
//!         gen blinked(self.blinks) to ENV;
//!     }
//!
//!     on Off: Toggle -> On;
//!     on On: Toggle -> Off;
//! }
//!
//! assoc R1: Led one -- Led many;
//! ```
//!
//! Marks live in a *separate* file (paper §3 — marks never pollute the
//! model):
//!
//! ```text
//! marks for Blinker;
//! mark class Led isHardware = true;
//! mark domain cpuKhz = 100000;
//! ```
//!
//! Attribute, event-parameter and bridge-function types are restricted to
//! the scalar types (`bool`, `int`, `real`, `string`): instance references
//! never cross the model boundary or the generated HW/SW interface, which
//! is what makes the mapping rules' interface generation total.
//!
//! ```
//! let src = "domain D; class C { attr n: int; event E(); initial S; state S { self.n = 1; } on S: E -> S; }";
//! let domain = xtuml_lang::parse_domain(src)?;
//! assert_eq!(domain.name, "D");
//! let printed = xtuml_lang::print_domain(&domain);
//! let reparsed = xtuml_lang::parse_domain(&printed)?;
//! assert_eq!(domain, reparsed);
//! # Ok::<(), xtuml_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
mod marks_parser;
mod model_parser;
mod printer;
pub mod stim;

pub use marks_parser::{parse_marks, parse_marks_spanned, print_marks, MarkSpan};
pub use model_parser::{parse_domain, parse_domain_for_lint};
pub use printer::{print_domain, print_literal};
