//! `xtuml-serve`: the multi-tenant simulation daemon (DESIGN §15).
//!
//! One process hosts many independent simulation sessions behind a
//! length-prefixed JSON-over-TCP protocol. The pieces:
//!
//! * [`frame`] — the wire framing (4-byte LE length prefix, hard cap
//!   enforced before allocation).
//! * [`proto`] — request parsing and deterministic response rendering.
//! * [`session`] — the session table: per-session seeds, fuel budgets,
//!   backpressure on full stimulus queues, and idle eviction that spools
//!   snapshots to disk.
//! * [`daemon`] — the accept loop and its connection threads, which
//!   apply requests under one lock on the [`Store`], a blocking
//!   [`Client`], and the golden [`smoke`] transcript.
//!
//! Everything is `std`-only; the protocol reuses the JSON parser from
//! `xtuml-obs` and the snapshot codec from `xtuml-exec`.

#![warn(missing_docs)]

pub mod daemon;
pub mod frame;
pub mod proto;
pub mod session;

pub use daemon::{smoke, Client, ServeConfig, Server};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use proto::Request;
pub use session::{SessionCfg, Store};
