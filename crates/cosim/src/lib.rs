//! # xtuml-cosim — hardware/software co-simulation
//!
//! Joins the hardware partition (clocked FSMs, `xtuml-mda`'s `hw`) and the
//! software runtime (`xtuml-swrt`) through the **generated interface** of
//! paper §4: a set of typed event channels realised as a register file
//! with doorbell semantics and a latency-modelled bus, with one
//! receive-side `xtuml-rtl` [`SyncFifo`](xtuml_rtl::SyncFifo) per
//! direction.
//!
//! The crate is model-agnostic: it moves [`BusMessage`]s between two
//! abstract executors ([`HwModel`], [`SwModel`]) in lockstep, one hardware
//! clock cycle at a time, giving the software side a proportional CPU
//! cycle budget ([`CoClock`]). `xtuml-mda` lowers a marked domain onto
//! these traits; the *same channel table* drives both the generated C/VHDL
//! text and this executable bridge — which is exactly how the paper's
//! "the two halves are known to fit together" guarantee is built.
//!
//! ```
//! use xtuml_cosim::{Bridge, BridgeConfig, BusMessage, ChannelSpec, Direction};
//!
//! let cfg = BridgeConfig {
//!     channels: vec![ChannelSpec { id: 0, payload_words: 2, dir: Direction::SwToHw }],
//!     fifo_depth: 8,
//!     bus_latency: 3,
//! };
//! let mut bridge = Bridge::new(&cfg);
//! bridge.sw_send(BusMessage { channel: 0, words: vec![7, 9] }, 0).unwrap();
//! assert!(bridge.hw_recv().is_none());     // still in flight
//! bridge.advance(3);                        // latency elapses
//! assert_eq!(bridge.hw_recv().unwrap().words, vec![7, 9]);
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod bridge;
pub mod clock;
pub mod msg;
pub mod regfile;
pub mod system;

pub use bridge::{Bridge, BridgeConfig, ChannelSpec};
pub use clock::CoClock;
pub use msg::{BusMessage, Direction};
pub use regfile::RegisterFile;
pub use system::{CoSystem, CosimError, CosimStats, HwModel, SwModel};
