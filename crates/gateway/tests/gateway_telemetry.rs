//! Verifies the gateway instruments end to end: after real cluster
//! traffic (including a node kill, so failover fires, plus a
//! membership announce/leave round), the global registry holds the
//! `gw.nodes.healthy` / `gw.membership.size` gauges, the
//! `gw.failover` / `gw.hedges` / `gw.hedge_wins` / `gw.joins` /
//! `gw.leaves` counters and the `gw.route` span histogram — and under
//! `--features offloadnn-telemetry/disabled` the same traffic flows
//! with none of those names registered.
//!
//! Run both ways (ci.sh does):
//!   cargo test -p offloadnn-gateway --test gateway_telemetry
//!   cargo test -p offloadnn-gateway --test gateway_telemetry --features offloadnn-telemetry/disabled

use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_gateway::{Gateway, GatewayConfig};
use offloadnn_net::{AnyServer, Frontend, NetConfig};
use offloadnn_serve::{Admitter, ServiceConfig};
use std::time::Duration;

#[test]
fn gateway_instruments_follow_the_telemetry_build() {
    let scenario = small_scenario(4);
    let mut nodes: Vec<Option<AnyServer>> = (0..2)
        .map(|_| {
            Some(
                AnyServer::start(
                    Frontend::Threads,
                    ("127.0.0.1", 0),
                    NetConfig::default(),
                    ServiceConfig::default(),
                    &scenario.instance,
                )
                .expect("start backend node"),
            )
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.as_ref().unwrap().local_addr()).collect();
    let config = GatewayConfig {
        health_interval: Duration::from_millis(30),
        health_timeout: Duration::from_millis(200),
        eject_after: 2,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(&addrs, config).expect("start gateway");

    let submit = |i: usize| {
        let pick = i % scenario.instance.tasks.len();
        let mut task = scenario.instance.tasks[pick].clone();
        task.id = TaskId(u32::try_from(i).unwrap());
        gateway
            .submit(task, scenario.instance.options[pick].clone(), None)
            .expect("gateway accepts submits")
            .wait()
            .expect("verdict")
    };
    for i in 0..24 {
        submit(i);
    }
    // Kill one node so the data path ejects it and failover fires for
    // whatever the dead node was winning.
    drop(nodes[0].take().unwrap().shutdown());
    for i in 24..64 {
        submit(i);
    }

    // One membership round: a ghost joiner (never probeable, so the
    // healthy gauge is untouched) announces, replays its announce, then
    // leaves twice. Exactly one join and one leave must count.
    let ghost = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        let a = listener.local_addr().expect("listener addr");
        drop(listener);
        a
    };
    gateway.announce(ghost, 1);
    gateway.announce(ghost, 1); // duplicate: must not count as a join
    gateway.leave(ghost, 1);
    gateway.leave(ghost, 1); // replay: must not count twice

    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "traffic must conserve regardless of telemetry build");
    assert_eq!(report.metrics.submitted, 64);
    drop(nodes[1].take().unwrap().shutdown());

    let snapshot = offloadnn_telemetry::global().snapshot();
    let counter = |name: &str| snapshot.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let gauge = |name: &str| snapshot.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let phase = |name: &str| snapshot.phases.iter().find(|(n, _)| *n == name).map(|(_, h)| h.count);
    let gw_events = snapshot.events.iter().filter(|e| e.target.starts_with("gw.")).count();

    if offloadnn_telemetry::enabled() {
        // One node died and the monitor (or data path) noticed.
        assert_eq!(gauge("gw.nodes.healthy"), Some(1), "gauge must track the surviving node");
        // Routing decisions went through the gw.route span.
        let routes = phase("gw.route").expect("gw.route span registered");
        assert!(routes >= 64, "every submit routes at least once (got {routes})");
        // The kill forced at least one mid-stream failover.
        let failovers = counter("gw.failover").expect("gw.failover registered");
        assert!(failovers > 0, "killing a node must surface as failover");
        // Hedging was off: counters may be absent (never touched) or
        // zero — they must not have fired.
        assert_eq!(counter("gw.hedges").unwrap_or(0), 0);
        assert_eq!(counter("gw.hedge_wins").unwrap_or(0), 0);
        // The membership round counted each applied change exactly once,
        // and the pool gauge reflects the (append-only) three entries.
        assert_eq!(counter("gw.joins"), Some(1), "one accepted announce, duplicates ignored");
        assert_eq!(counter("gw.leaves"), Some(1), "one applied leave, replays ignored");
        assert_eq!(gauge("gw.membership.size"), Some(3), "two seeds plus the ghost joiner");
        assert!(gw_events > 0, "ejection must emit a gw.* event");
    } else {
        for name in [
            "gw.nodes.healthy",
            "gw.membership.size",
            "gw.failover",
            "gw.hedges",
            "gw.hedge_wins",
            "gw.joins",
            "gw.leaves",
            "gw.route",
        ] {
            assert!(
                counter(name).is_none() && gauge(name).is_none() && phase(name).is_none(),
                "{name} must not register in a telemetry-disabled build"
            );
        }
        assert_eq!(gw_events, 0, "no events in a telemetry-disabled build");
    }
}
