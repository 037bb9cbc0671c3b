//! The health monitor: one thread that probes every remote the gateway
//! dials — each serve node, then each federated peer — on its control
//! connection every `health_interval`, and applies the outcome to the
//! remote's liveness state machine (`liveness.rs`): ejection after
//! `eject_after` consecutive misses, probation-gated readmission,
//! join-through-probation promotion, and backoff for unhealthy remotes.
//!
//! A probe that cannot answer within `health_timeout` is a miss, and so
//! is a peer digest that fails its sanity check. Only what a successful
//! probe updates differs between the two kinds of remote:
//!
//! * a node is asked for a `Snapshot`, and its routing weight is
//!   refreshed from the reported load and solver cost:
//!   `weight = 1 / (1 + in_flight + queued + round_ms)` where
//!   `in_flight = admitted − departed`, `queued = submitted − resolved`
//!   and `round_ms` is the node's mean solver round in (fractional)
//!   milliseconds, read from the `round_time` histogram of the probed
//!   `MetricsSnapshot`. A node whose solver is grinding gets less of the
//!   key space even when its queue looks shallow, and the rendezvous
//!   scores of the *other* nodes are untouched by the update;
//! * a peer is sent a `PeerHello`, and its `PeerLoad` digest is recorded
//!   for the overflow picker (`peer.rs`).

use crate::config::GatewayConfig;
use crate::gateway::GatewayInner;
use crate::liveness::Change;
use crate::node::Link;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use offloadnn_net::Client;
use offloadnn_serve::MetricsSnapshot;
use offloadnn_telemetry::{event, Severity};
use std::sync::Arc;
use std::time::Instant;

/// Routing weight from a node's reported load and mean solver round.
fn weight_from(snapshot: &MetricsSnapshot) -> f64 {
    let in_flight = snapshot.admitted.saturating_sub(snapshot.departed);
    let queued = snapshot.submitted.saturating_sub(snapshot.resolved());
    let round_ms = snapshot.round_time.mean().as_secs_f64() * 1e3;
    1.0 / (1.0 + (in_flight + queued) as f64 + round_ms)
}

/// Probes `link` with `ask` on its control connection if the liveness
/// rule says it is due at `now` (the sweep's clock reading), then applies
/// the outcome. The liveness lock is released while the probe runs.
fn probe(config: &GatewayConfig, link: &Link, now: Instant, ask: impl FnOnce(&Client) -> Result<(), String>) {
    if !link.liveness().due(now) {
        return;
    }
    let answer = link.control().map_err(|e| e.to_string()).and_then(|c| ask(&c));
    if answer.is_err() {
        link.control_failed();
    }
    let change = link.liveness().probed(now, answer.is_ok(), config.eject_after, config.probation);
    match (change, answer) {
        (Some(Change::Ejected), Err(err)) => {
            event!(Severity::Warn, "gw.health", "ejected {}: {err}", link.addr)
        }
        (Some(change), _) => event!(Severity::Info, "gw.health", "{change:?} {}", link.addr),
        (None, _) => {}
    }
}

/// The monitor thread body: sweep a snapshot of the membership pool,
/// then the peer set, publish the gauges, sleep until the next tick or
/// shutdown (the sender side of `shutdown_rx` is dropped by
/// [`crate::Gateway`] drain).
pub(crate) fn monitor_loop(inner: &Arc<GatewayInner>, shutdown_rx: &Receiver<()>) {
    let config = &inner.config;
    loop {
        let now = Instant::now();
        for node in inner.membership.snapshot() {
            probe(config, &node.link, now, |c| {
                let snapshot = c.snapshot_timeout(config.health_timeout).map_err(|e| e.to_string())?;
                node.set_weight(weight_from(&snapshot));
                Ok(())
            });
        }
        if let Some(set) = &inner.peers {
            for peer in &set.peers {
                probe(config, &peer.link, now, |c| {
                    let hello = c.peer_hello(&set.identity, inner.incarnation, config.health_timeout);
                    peer.note_digest(hello.map_err(|e| e.to_string())?)
                });
            }
        }
        inner.publish_gauges();
        match shutdown_rx.recv_timeout(config.health_interval) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_shrinks_with_load() {
        let metrics = offloadnn_serve::ServiceMetrics::new();
        assert_eq!(weight_from(&metrics.snapshot()), 1.0);
        metrics.submitted.add(10);
        metrics.admitted.add(6);
        metrics.rejected.add(2);
        metrics.shed.inc();
        metrics.expired.inc();
        metrics.departed.add(2);
        // in_flight = 4, queued = 0 ⇒ 1/5.
        assert_eq!(weight_from(&metrics.snapshot()), 0.2);
        metrics.submitted.add(4);
        // 4 still queued ⇒ 1/9.
        assert!((weight_from(&metrics.snapshot()) - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn weight_shrinks_with_solver_round_time() {
        use std::time::Duration;
        let fast = offloadnn_serve::ServiceMetrics::new();
        let slow = offloadnn_serve::ServiceMetrics::new();
        for _ in 0..8 {
            fast.round_time.record(Duration::from_micros(100));
            slow.round_time.record(Duration::from_millis(20));
        }
        let (wf, ws) = (weight_from(&fast.snapshot()), weight_from(&slow.snapshot()));
        assert!(ws < wf, "a grinding solver must shed key space: fast {wf} vs slow {ws}");
        // ~20 ms mean ⇒ weight near 1/21 (log-bucket resolution: within 2x).
        assert!(ws < 1.0 / 10.0 && ws > 1.0 / 50.0, "slow weight {ws} out of range");
    }
}
