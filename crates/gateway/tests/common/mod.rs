//! Cluster fixtures shared by the gateway integration tests.

#![allow(dead_code)] // each test binary uses its own subset

use offloadnn_core::scenario::Scenario;
use offloadnn_gateway::GatewayConfig;
use offloadnn_net::{AnyServer, Frontend, NetConfig};
use offloadnn_serve::ServiceConfig;
use std::time::Duration;

/// Fast-failover gateway tuning so a kill, a join's probation or a peer
/// digest gap resolves in milliseconds; the defaults are sized for real
/// WAN probes.
pub fn fast_config() -> GatewayConfig {
    GatewayConfig {
        health_interval: Duration::from_millis(50),
        health_timeout: Duration::from_millis(250),
        eject_after: 2,
        probation: Duration::from_millis(500),
        default_deadline: Duration::from_secs(2),
        verdict_grace: Duration::from_secs(2),
        ..GatewayConfig::default()
    }
}

/// One default backend node on an ephemeral loopback port.
pub fn start_node(scenario: &Scenario) -> AnyServer {
    AnyServer::start(
        Frontend::Threads,
        ("127.0.0.1", 0),
        NetConfig::default(),
        ServiceConfig::default(),
        &scenario.instance,
    )
    .expect("start backend node")
}
