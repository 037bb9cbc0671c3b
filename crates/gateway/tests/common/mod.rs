//! Cluster fixtures shared by the gateway integration tests.

#![allow(dead_code)] // each test binary uses its own subset

use offloadnn_core::instance::PathOption;
use offloadnn_core::scenario::{small_scenario, Scenario};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_gateway::GatewayConfig;
use offloadnn_net::{AnyServer, Frontend, NetConfig};
use offloadnn_serve::ServiceConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// The harness seed: the `var` environment variable, else `default`.
pub fn seed(var: &str, default: u64) -> u64 {
    match std::env::var(var) {
        Ok(s) => s.trim().parse().unwrap_or_else(|_| panic!("{var} must parse as u64")),
        Err(_) => default,
    }
}

/// One offered submit, regenerable from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Offered {
    pub task: Task,
    pub options: Vec<PathOption>,
}

/// The deterministic offered trace: `n` submits drawn from the
/// reference scenario, each with a unique task id (so forwarding and
/// departure routing stay unambiguous at every layer).
pub fn offered_trace(seed: u64, n: usize) -> Vec<Offered> {
    let scenario = small_scenario(5);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let pick = rng.random_range(0..scenario.instance.tasks.len());
            let mut task = scenario.instance.tasks[pick].clone();
            task.id = TaskId(u32::try_from(i).expect("trace fits in u32"));
            Offered { task, options: scenario.instance.options[pick].clone() }
        })
        .collect()
}

/// Fast-failover gateway tuning so a kill, a join's probation or a dead
/// peer resolves in milliseconds; the defaults are sized for real WAN
/// probes.
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
