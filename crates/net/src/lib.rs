//! # offloadnn-net — wire protocol and TCP frontend for the admission service
//!
//! [`offloadnn_serve::Service`] is an in-process runtime: nothing outside
//! its address space can submit a DOT admission request. This crate puts
//! it on the network — std-only, no external runtime — in three layers:
//!
//! * **Codec** ([`codec`]) — a length-prefixed binary frame format
//!   (`magic + version + type + length + payload + FNV-1a/32 checksum`)
//!   carrying nine request and six response frame types, all described
//!   by one frame table. There is one protocol revision: a frame stamped
//!   with any other version is refused from the header. Decoding is
//!   streaming and never panics on malformed input: truncation, bad
//!   magic, version skew, hostile length prefixes and corrupted
//!   checksums all surface as typed [`DecodeError`]s.
//! * **Server** ([`AnyServer`]) — one TCP server handle over one
//!   connection engine, an epoll event loop built on `offloadnn-reactor`
//!   that writes each reply the moment it resolves. A [`Frontend`]
//!   value picks how loops map to connections: one loop per connection,
//!   or a fixed pool multiplexing hundreds of connections onto a
//!   handful of threads. Every decoded request runs through the same
//!   crate-private dispatcher onto the served tier
//!   ([`offloadnn_serve::Admitter`] plus the control-plane [`Backend`]);
//!   the engine enforces a bounded per-connection in-flight window
//!   (backpressure propagates through the TCP receive buffer, not
//!   server memory), a connection-count limit, capped backoff on accept
//!   errors, and graceful drain that flushes every in-flight verdict to
//!   its client before closing.
//! * **Client** ([`client`]) — a pipelining client library over one
//!   connection per client, submitted to and redeemed through
//!   [`offloadnn_serve::Admitter`] like every other tier, with
//!   per-request deadline propagation (the client's budget travels in
//!   the frame; the server enforces the *tighter* of it and its own
//!   admission deadline).
//!
//! Hot paths record through [`offloadnn_telemetry`]: `net.encode` /
//! `net.decode` / `net.rtt` span histograms, per-frame-type `net.tx.*` /
//! `net.rx.*` counters, the `net.conns` gauge, reactor loop counters
//! (`net.epoll.wakeups`, `net.readiness.{read,write}`), and connection
//! lifecycle events.
//!
//! ```no_run
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
//! use offloadnn_serve::{Admitter, ServiceConfig};
//! use std::time::Duration;
//!
//! let scenario = small_scenario(5);
//! let server = AnyServer::start(
//!     Frontend::Threads,
//!     ("127.0.0.1", 0),
//!     NetConfig::default(),
//!     ServiceConfig::default(),
//!     &scenario.instance,
//! )
//! .unwrap();
//!
//! let client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let task = scenario.instance.tasks[0].clone();
//! let options = scenario.instance.options[0].clone();
//! let outcome = client.submit(task, options, Some(Duration::from_millis(250))).unwrap().wait().unwrap();
//! println!("verdict: {outcome:?}");
//! let report = server.shutdown();
//! assert!(report.metrics.is_conserved());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod async_server;
pub mod backend;
mod backoff;
pub mod client;
pub mod codec;
mod dispatch;
pub mod error;
pub mod frontend;
mod instruments;
mod owed;
mod replies;
mod shared;
pub mod wire;

pub use backend::{Backend, ForwardInfo, MembershipAck};
pub use client::{Client, ClientConfig, PendingVerdict};
pub use codec::{
    decode, decode_exact, encode, ErrorCode, ForwardRequest, Frame, MemberInfo, MemberState,
    MembershipDecision, PeerDigest, PeerHelloRequest, PeerLoadResponse, MAGIC, MAX_PAYLOAD, MAX_TRIED,
    VERSION,
};
pub use error::{DecodeError, NetError};
pub use frontend::{AnyServer, Frontend, NetConfig};
