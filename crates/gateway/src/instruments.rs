//! Gateway telemetry handles.
//!
//! The cluster tier reports these instruments into the global registry:
//!
//! * `gw.nodes.healthy` — gauge of nodes currently eligible for routing;
//! * `gw.membership.size` — gauge of the whole pool (probing, ejected
//!   and departed members included);
//! * `gw.joins` — accepted announces (new nodes and restarts);
//! * `gw.leaves` — accepted graceful leaves;
//! * `gw.failover` — tickets re-routed to a survivor after their node
//!   failed mid-flight;
//! * `gw.hedges` — duplicate submits launched by the deadline-aware
//!   hedger;
//! * `gw.hedge_wins` — hedged tickets whose duplicate delivered the
//!   winning verdict;
//! * `gw.peers.healthy` — gauge of federated peer gateways currently
//!   answering probes (healthy under the liveness rule nodes follow);
//! * `gw.forwards` — tickets the local cluster would have shed that
//!   were forwarded to a federated peer;
//! * `gw.forward_wins` — forwarded tickets the peer cluster admitted.
//!
//! Plus the `gw.route` span histogram around every rendezvous-routing
//! decision (recorded via the `span!` macro at the call site). As in
//! `offloadnn-net`, the handles are resolved once at gateway start and
//! only when telemetry is enabled; with it off (runtime switch or the
//! `disabled` feature) the whole struct is `None`.

use offloadnn_telemetry::{Counter, Gauge};
use std::sync::Arc;

/// Cached instrument handles, held by the gateway's shared state.
pub(crate) struct GwInstruments {
    /// Level gauge of nodes currently routable.
    pub nodes_healthy: Arc<Gauge>,
    /// Level gauge of the whole membership pool.
    pub membership_size: Arc<Gauge>,
    /// Accepted announces (joins and restarts).
    pub joins: Arc<Counter>,
    /// Accepted graceful leaves.
    pub leaves: Arc<Counter>,
    /// Tickets retried on a survivor after a node failure.
    pub failover: Arc<Counter>,
    /// Duplicate submits launched by the hedger.
    pub hedges: Arc<Counter>,
    /// Hedged tickets won by the duplicate.
    pub hedge_wins: Arc<Counter>,
    /// Level gauge of federated peers currently answering probes.
    pub peers_healthy: Arc<Gauge>,
    /// Tickets forwarded to a federated peer instead of shed locally.
    pub forwards: Arc<Counter>,
    /// Forwarded tickets admitted by the peer cluster.
    pub forward_wins: Arc<Counter>,
}

impl GwInstruments {
    /// Resolves the handles from the global registry, or `None` while
    /// telemetry is off (so disabled builds never touch the registry).
    pub(crate) fn new() -> Option<Self> {
        if !offloadnn_telemetry::enabled() {
            return None;
        }
        let registry = offloadnn_telemetry::global();
        Some(Self {
            nodes_healthy: registry.gauge("gw.nodes.healthy"),
            membership_size: registry.gauge("gw.membership.size"),
            joins: registry.counter("gw.joins"),
            leaves: registry.counter("gw.leaves"),
            failover: registry.counter("gw.failover"),
            hedges: registry.counter("gw.hedges"),
            hedge_wins: registry.counter("gw.hedge_wins"),
            peers_healthy: registry.gauge("gw.peers.healthy"),
            forwards: registry.counter("gw.forwards"),
            forward_wins: registry.counter("gw.forward_wins"),
        })
    }
}
