//! Verifies the network-layer instruments end to end: after real reactor
//! and threaded traffic, the global registry holds the `net.conns` gauge
//! (back at zero once every connection closed), the `net.epoll.wakeups`
//! and `net.readiness.{read,write}` counters, and `net.async` events —
//! and under `--features offloadnn-telemetry/disabled` the same traffic
//! flows with none of those names registered.
//!
//! Run both ways (ci.sh does):
//!   cargo test -p offloadnn-net --test net_telemetry
//!   cargo test -p offloadnn-net --test net_telemetry --features offloadnn-telemetry/disabled

use offloadnn_core::scenario::small_scenario;
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_serve::{Admitter, ServiceConfig};
use std::time::Duration;

fn drive_traffic(frontend: Frontend) {
    let scenario = small_scenario(4);
    let config = ServiceConfig {
        shards: 2,
        batch_max: 16,
        batch_window: Duration::from_micros(500),
        ..ServiceConfig::default()
    };
    let server =
        AnyServer::start(frontend, ("127.0.0.1", 0), NetConfig::default(), config, &scenario.instance)
            .expect("start server");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let pending: Vec<_> = scenario
        .instance
        .tasks
        .iter()
        .zip(scenario.instance.options.iter())
        .map(|(task, options)| client.submit(task.clone(), options.clone(), None).expect("submit"))
        .collect();
    for p in pending {
        p.wait_timeout(Duration::from_secs(30)).expect("verdict");
    }
    client.close();
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "traffic must conserve regardless of telemetry build");
    assert_eq!(report.metrics.submitted, scenario.instance.tasks.len() as u64);
}

#[test]
fn net_instruments_follow_the_telemetry_build() {
    // Same traffic through both frontends; both feed the same instruments.
    drive_traffic(Frontend::Reactor);
    drive_traffic(Frontend::Threads);

    let snapshot = offloadnn_telemetry::global().snapshot();
    let counter = |name: &str| snapshot.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let gauge = |name: &str| snapshot.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let net_events = snapshot.events.iter().filter(|e| e.target.starts_with("net.")).count();

    if offloadnn_telemetry::enabled() {
        // Every connection that opened also closed.
        assert_eq!(gauge("net.conns"), Some(0), "net.conns must register and return to zero");
        // The reactor ran, so its loops woke and saw read readiness.
        let wakeups = counter("net.epoll.wakeups").expect("net.epoll.wakeups registered");
        assert!(wakeups > 0, "event loops never woke");
        let reads = counter("net.readiness.read").expect("net.readiness.read registered");
        assert!(reads > 0, "no read readiness observed");
        // Write readiness only fires under backpressure; the counter must
        // still be registered so dashboards see it at zero.
        assert!(counter("net.readiness.write").is_some(), "net.readiness.write registered");
        assert!(net_events > 0, "network frontends emit lifecycle events");
    } else {
        for name in ["net.conns", "net.epoll.wakeups", "net.readiness.read", "net.readiness.write"] {
            assert!(
                counter(name).is_none() && gauge(name).is_none(),
                "{name} must not register in a telemetry-disabled build"
            );
        }
        assert_eq!(net_events, 0, "no events in a telemetry-disabled build");
    }
}
