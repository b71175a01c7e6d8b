//! Search-as-a-service: a long-lived daemon that accepts HGNAS search
//! requests over a framed wire protocol and streams results back.
//!
//! The crate layers four pieces over `hgnas-fleet`:
//!
//! - [`transport`] — length-prefix-free framed byte transports: an
//!   in-process duplex pair and a `std::net` TCP backend behind one
//!   [`Transport`] trait (frames carry their own CRC; TCP adds a u32
//!   length prefix for stream reassembly).
//! - [`admission`] — the [`AdmissionController`]: deterministic weighted
//!   fair-share queueing of admitted requests by tenant priority and the
//!   tenant's slice charge.
//! - [`server`] — the [`Server`] daemon: per-connection reader threads, a
//!   single engine thread keeping budgeted rounds of different requests in
//!   flight at once on one long-lived [`hgnas_fleet::Engine`], event
//!   buffering for disconnect/re-attach, idle-loop artifact-store GC, and
//!   graceful drain.
//! - [`client`] — the blocking [`SearchClient`].
//!
//! The core contract: a search served by the daemon — through admission,
//! parking, resumption, even across client disconnects — produces a
//! report **bit-identical** to `hgnas_fleet::run_fleet` of the same
//! configuration. The daemon adds multi-tenancy, never noise.

pub mod admission;
pub mod client;
pub mod server;
pub mod transport;

pub use admission::{AdmissionController, TenantUsage};
pub use client::{ClientError, SearchClient};
pub use server::{DrainReport, ServeConfig, Server};
pub use transport::{
    duplex, DuplexTransport, TcpTransport, Transport, TransportError, MAX_FRAME_BYTES,
};
