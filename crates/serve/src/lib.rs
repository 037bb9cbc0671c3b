//! # offloadnn-serve — sharded admission-control service runtime
//!
//! The Fig. 4 controller ([`offloadnn_core::controller::Controller`]) is a
//! single-threaded library struct: one `submit()` call per admission
//! round. This crate turns it into a long-running, multithreaded service
//! that can absorb heavy concurrent request streams:
//!
//! * **Sharding** — the edge budgets are partitioned across N worker
//!   shards ([`router::partition_budgets`]), each owning its own
//!   `Controller`; a task's shard is the rendezvous winner of its id
//!   among the shard indices ([`router::shard`]), so a task's departure
//!   reaches the shard that admitted it. The gateway routes nodes by the
//!   same [`router`] rule.
//! * **Batching** — each shard coalesces arrivals into solver rounds,
//!   triggered by size (`batch_max`) or time (`batch_window`), amortising
//!   the DOT solve over many requests. A shard is a clock-free engine
//!   that makes every admission decision, fed by a thin driver thread
//!   that owns its queue and the wall clock.
//! * **Backpressure & shedding** — ingress queues are bounded; a full
//!   queue sheds immediately, and a backlog past the watermark is drained
//!   and resolved priority-first, shedding the low-priority tail. A
//!   request that waits past its admission deadline is answered
//!   [`Outcome::Expired`] — never silently dropped.
//! * **Metrics** — [`metrics::ServiceMetrics`] counts every verdict with
//!   atomic counters and fixed-bucket latency histograms, snapshotable
//!   from any thread; conservation (`submitted = admitted + rejected +
//!   shed + expired`) is checkable at any quiescent point.
//! * **Lifecycle** — departures feed `Controller::release` so long-running
//!   state does not leak capacity, and [`service::Service::drain`] stops
//!   ingress, flushes every queued request to a verdict and joins the
//!   workers.
//!
//! Every tier — this service, `net::Client` and the gateway — is
//! submitted to and redeemed the same way: [`Admitter::submit`] returns
//! a [`PendingVerdict`], which resolves to one [`Outcome`] or a
//! [`VerdictError`] saying why it could not.
//!
//! ```
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_serve::{Admitter, Service, ServiceConfig};
//!
//! let scenario = small_scenario(5);
//! let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
//! let service = Service::start(config, &scenario.instance).unwrap();
//! let task = scenario.instance.tasks[0].clone();
//! let options = scenario.instance.options[0].clone();
//! let outcome = service.submit(task, options, None).unwrap().wait().unwrap();
//! let report = service.drain();
//! assert!(report.metrics.is_conserved());
//! # let _ = outcome;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admit;
pub mod config;
pub mod error;
pub mod loadgen;
pub mod mailbox;
pub mod metrics;
pub mod router;
pub mod service;
mod shard;

pub use admit::{Admitter, PendingVerdict, VerdictError, VerdictHandle};
pub use config::{ChaosConfig, ServiceConfig};
pub use error::{validate_request, ServeError, SubmitError};
pub use loadgen::{drive, DriveConfig, DriveReport, ShapePool, WireTally};
pub use mailbox::{mailbox, Bell, Mailbox, Responder};
pub use metrics::{HistogramSnapshot, MetricsSnapshot, ServiceMetrics, HISTOGRAM_BUCKETS};
pub use service::{DrainReport, Outcome, ReshardReport, Service};
pub use shard::ShardReport;
