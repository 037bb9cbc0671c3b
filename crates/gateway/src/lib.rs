//! # offloadnn-gateway — the multi-node offloading tier
//!
//! One `offloadnn-serve` node admits tasks against *its own* capacity.
//! This crate scales the admission service out: a [`Gateway`] owns a
//! pool of backend serve nodes (each an `offloadnn-net` endpoint) and
//! presents the whole cluster as a single admission tier: drivers submit
//! through its [`offloadnn_serve::Admitter`] impl, and since it adds
//! [`offloadnn_net::Backend`] the same impl is served over the network
//! behind either TCP frontend via
//! [`offloadnn_net::AnyServer::start_with_backend`].
//!
//! Five mechanisms:
//!
//! * **Routing** ([`router`], a re-export of
//!   [`offloadnn_serve::router`], the rule a serve node picks shards
//!   by) — weighted rendezvous hashing. Each submit's task id is scored
//!   against every healthy node (`-weight / ln(u)`, the logarithmic
//!   method); the weight is the node's reported admission headroom from
//!   its latest health snapshot. Ejecting a node remaps only the keys it
//!   was winning.
//! * **Health** (`health` and `liveness`, internal) — one monitor
//!   thread probes every node (a Metrics frame,
//!   [`offloadnn_net::Client::snapshot_timeout`]) and every federated
//!   peer (a `PeerHello`) each `health_interval`, on a control
//!   connection kept apart from the one carrying verdicts. One liveness
//!   rule judges both: `eject_after` consecutive misses eject; after
//!   `probation` a successful probe readmits.
//! * **Failover** (`ticket`, internal: the clock-free, socket-free
//!   engine that also decides hedging and overflow forwarding) — a node
//!   that drops its connection (or starts draining) mid-request is
//!   ejected immediately and the in-flight
//!   ticket is retried on a survivor with the *remaining* deadline
//!   budget, up to `RETRY_LIMIT` (3) attempts; a ticket that runs out of
//!   nodes, retries or time resolves Shed / Expired so the gateway's
//!   conservation ledger ([`Gateway::metrics`]) stays balanced.
//! * **Hedging** — optionally ([`HedgeConfig`]), a ticket whose primary
//!   node's observed p99 RTT projects past the ticket deadline is
//!   duplicated to the next-ranked node; the first verdict wins and the
//!   loser is reaped (departed iff it was admitted), so no verdict is
//!   double-counted and no backend capacity leaks.
//! * **Discovery** ([`membership`]) — the pool is dynamic. A node
//!   announces itself (an `Announce` frame, or
//!   [`Gateway::announce`] in-process) under a per-process incarnation
//!   stamp and joins in `Probing`: visible in membership views, probed
//!   by the monitor, but unroutable until a probe succeeds
//!   (join-through-probation). A graceful [`Gateway::leave`] departs the
//!   node — its in-flight tickets fail over with their remaining
//!   deadline budget exactly as an ejection's do, while its data
//!   connection stays open for the reaper to collect their verdicts —
//!   and the incarnation ordering guarantees a delayed replay of its old
//!   announce never resurrects it.
//!
//! Telemetry: `gw.nodes.healthy` / `gw.membership.size` gauges,
//! `gw.joins` / `gw.leaves` / `gw.failover` / `gw.hedges` /
//! `gw.hedge_wins` counters and the `gw.route` span histogram, all
//! compiled out with the `offloadnn-telemetry/disabled` feature.
//!
//! ```no_run
//! use offloadnn_core::scenario::small_scenario;
//! use offloadnn_gateway::{Gateway, GatewayConfig};
//! use offloadnn_net::{AnyServer, Frontend, NetConfig};
//! use offloadnn_serve::{Admitter, ServiceConfig};
//!
//! let scenario = small_scenario(5);
//! // Three single-node backends...
//! let nodes: Vec<_> = (0..3)
//!     .map(|_| {
//!         AnyServer::start(
//!             Frontend::Threads,
//!             ("127.0.0.1", 0),
//!             NetConfig::default(),
//!             ServiceConfig::default(),
//!             &scenario.instance,
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
//! // ...one cluster.
//! let gateway = Gateway::start(&addrs, GatewayConfig::default()).unwrap();
//! let pending = gateway
//!     .submit(scenario.instance.tasks[0].clone(), scenario.instance.options[0].clone(), None)
//!     .unwrap();
//! println!("cluster verdict: {:?}", pending.wait());
//! let report = gateway.drain();
//! assert!(report.metrics.is_conserved());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod gateway;
mod health;
mod instruments;
mod liveness;
pub mod membership;
mod node;
mod peer;
pub mod router;
mod ticket;

pub use config::{FederationConfig, GatewayConfig, GatewayError, HedgeConfig};
pub use gateway::{ForwardStats, Gateway};
pub use membership::{AnnounceOutcome, LeaveOutcome, Membership};
