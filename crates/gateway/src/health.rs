//! The health monitor: periodic Metrics-frame probes driving the node
//! lifecycle state machine — ejection after K consecutive misses,
//! probation-gated readmission, join-through-probation promotion of
//! announced nodes, and weight updates.
//!
//! One thread sweeps the membership pool every `health_interval`. What a
//! probe does depends on the node's state:
//!
//! * **Healthy** — probed every sweep with
//!   [`offloadnn_net::Client::snapshot_timeout`]; a node that cannot
//!   answer within `health_timeout` counts a miss, and `eject_after`
//!   consecutive misses ejects it. A success refreshes the routing
//!   weight (below).
//! * **Probing** — a node that announced itself and has not yet proven
//!   it answers. The first successful probe promotes it to `Healthy`;
//!   until then it receives zero traffic.
//! * **Ejected** — left alone until probation elapses, then probed: a
//!   success readmits it, a failure restarts probation.
//! * **Departed** — never probed; the node left.
//!
//! Probes of *unhealthy* (probing/ejected) nodes back off: after
//! `PROBE_BACKOFF_AFTER` (4) consecutive failures the probe stride
//! doubles per failure, capped at `PROBE_BACKOFF_LIMIT` (64) sweeps
//! (both consts in `node.rs`). Without this a
//! node that announced and then died — or an ejected node that never
//! comes back — costs the monitor a full connect timeout every sweep,
//! forever, crowding out the probes that matter.
//!
//! A successful probe also refreshes the node's routing weight from the
//! reported load and solver cost:
//! `weight = 1 / (1 + in_flight + queued + round_ms)` where
//! `in_flight = admitted − departed`, `queued = submitted − resolved`
//! and `round_ms` is the node's mean solver round in (fractional)
//! milliseconds, read from the `round_time` histogram of the probed
//! `MetricsSnapshot`. A node whose solver is grinding gets less
//! of the key space even when its queue looks shallow. More remaining
//! budget ⇒ more of the key space, and the rendezvous scores of the
//! *other* nodes are untouched by the update.

use crate::config::GatewayConfig;
use crate::gateway::GatewayInner;
use crate::node::Node;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use offloadnn_net::MemberState;
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

/// Probes one node and applies the state machine transition; `now` is
/// the sweep's clock reading, against which probation is judged and set.
fn probe(config: &GatewayConfig, node: &Node, now: Instant) {
    let state = node.state();
    let due = match state {
        MemberState::Healthy => true,
        MemberState::Probing => node.probe_due(),
        MemberState::Ejected => node.probation_over(now) && node.probe_due(),
        MemberState::Departed => false,
    };
    if !due {
        return;
    }
    let answer = node.client.get().and_then(|c| c.snapshot_timeout(config.health_timeout));
    match (state, answer) {
        (MemberState::Healthy, Ok(snapshot)) => {
            node.note_probe_ok();
            node.set_weight(weight_from(&snapshot));
        }
        (MemberState::Healthy, Err(err)) => {
            // The connection (if any) is suspect either way.
            node.client.clear();
            if node.note_probe_miss(config.eject_after) && node.eject(now, config.probation) {
                event!(Severity::Warn, "gw.health", "ejected {}: {err}", node.addr);
            }
        }
        (MemberState::Probing, Ok(snapshot)) => {
            node.set_weight(weight_from(&snapshot));
            if node.promote() {
                event!(Severity::Info, "gw.health", "promoted {}", node.addr);
            }
        }
        (MemberState::Ejected, Ok(snapshot)) => {
            node.set_weight(weight_from(&snapshot));
            if node.readmit() {
                event!(Severity::Info, "gw.health", "readmitted {}", node.addr);
            }
        }
        (MemberState::Probing | MemberState::Ejected, Err(_)) => {
            node.client.clear();
            if state == MemberState::Ejected {
                node.extend_probation(now, config.probation);
            }
            node.note_probe_failed();
        }
        (MemberState::Departed, _) => {}
    }
}

/// The monitor thread body: sweep a snapshot of the membership pool,
/// publish the gauges, sleep until the next tick or shutdown (the sender
/// side of `shutdown_rx` is dropped by [`crate::Gateway`] drain).
pub(crate) fn monitor_loop(inner: &Arc<GatewayInner>, shutdown_rx: &Receiver<()>) {
    loop {
        let now = Instant::now();
        for node in inner.membership.snapshot() {
            probe(&inner.config, &node, now);
        }
        inner.publish_membership_gauges();
        match shutdown_rx.recv_timeout(inner.config.health_interval) {
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
