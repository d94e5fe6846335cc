//! # xtuml-rtl — the bridge's synchronous FIFO
//!
//! [`SyncFifo`] is the bounded receive buffer of the `xtuml-cosim`
//! bridge, one per direction: the architectural behaviour of a hardware
//! FIFO (depth, full/empty flags, overflow count, high-water mark) at one
//! push or pop per clock edge.
//!
//! The hardware half itself does not run here. The model compiler prints
//! it as VHDL text (`xtuml_mda::vgen`), which nothing executes, since no
//! VHDL simulator is available; its executable twin is `xtuml_mda::hw`,
//! clocked FSMs that run every action on the same bytecode VM as the
//! model run.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod fifo;

pub use fifo::SyncFifo;
