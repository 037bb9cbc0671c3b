//! Builds the stack under each workload's `&dyn Admitter`, and takes it
//! down again into the ledgers the output checks compare.

use crate::workloads::{Tier, Workload};
use offloadnn_core::instance::DotInstance;
use offloadnn_gateway::{FederationConfig, ForwardStats, Gateway, GatewayConfig};
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_plancache::{PlanCacheConfig, PlanCacheStats};
use offloadnn_serve::{Admitter, DrainReport, MetricsSnapshot, Service, ServiceConfig};
use std::time::{Duration, Instant};

const LOOPBACK: (&str, u16) = ("127.0.0.1", 0);

/// Every `Service` of every workload runs this configuration.
pub fn service_config() -> ServiceConfig {
    ServiceConfig { plan_cache: Some(PlanCacheConfig::default()), ..ServiceConfig::default() }
}

pub enum Stack {
    Service(Service),
    Net { server: AnyServer, clients: Vec<Client> },
    Gateway { gateway: Gateway, nodes: Vec<AnyServer> },
    Federated { origin: Gateway, peer_front: AnyServer<Gateway>, peer_node: AnyServer },
}

/// What a stack left behind once drained.
pub struct Ledgers {
    /// Ledgers that each see every request of the driver, top first.
    pub tiers: Vec<(&'static str, MetricsSnapshot)>,
    /// The serve nodes: together they see every request once.
    pub nodes: Vec<DrainReport>,
    pub forward: ForwardStats,
}

fn start_node(frontend: Frontend, template: &DotInstance) -> Result<AnyServer, String> {
    AnyServer::start(frontend, LOOPBACK, NetConfig::default(), service_config(), template)
        .map_err(|e| format!("node start: {e}"))
}

fn wait_until(what: &str, limit: Duration, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let give_up = Instant::now() + limit;
    while !ready() {
        if Instant::now() >= give_up {
            return Err(format!("{what} did not happen within {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

impl Stack {
    pub fn start(workload: &Workload, template: &DotInstance) -> Result<Self, String> {
        match workload.tier {
            Tier::Service => Service::start(service_config(), template)
                .map(Stack::Service)
                .map_err(|e| format!("service start: {e}")),
            Tier::Net(frontend) => {
                let server = start_node(frontend, template)?;
                let clients = (0..workload.connections)
                    .map(|_| Client::connect(server.local_addr(), ClientConfig::default()))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("client connect: {e}"))?;
                Ok(Stack::Net { server, clients })
            }
            Tier::Gateway => {
                let nodes = (0..2)
                    .map(|_| start_node(Frontend::default(), template))
                    .collect::<Result<Vec<_>, _>>()?;
                let addrs: Vec<_> = nodes.iter().map(AnyServer::local_addr).collect();
                let gateway = Gateway::start(&addrs, GatewayConfig::default())
                    .map_err(|e| format!("gateway start: {e}"))?;
                Ok(Stack::Gateway { gateway, nodes })
            }
            Tier::Federated => {
                let peer_node = start_node(Frontend::default(), template)?;
                let node_addr = peer_node.local_addr();
                let peer_gateway = Gateway::start(&[node_addr], GatewayConfig::default())
                    .map_err(|e| format!("peer gateway start: {e}"))?;
                let peer_front = AnyServer::start_with_backend(
                    Frontend::Threads,
                    LOOPBACK,
                    NetConfig::default(),
                    peer_gateway,
                )
                .map_err(|e| format!("peer frontend start: {e}"))?;
                let federation = FederationConfig::new("perf-origin", vec![peer_front.local_addr()]);
                let origin = Gateway::start(
                    &[node_addr],
                    GatewayConfig { federation: Some(federation), ..GatewayConfig::default() },
                )
                .map_err(|e| format!("origin gateway start: {e}"))?;
                // The origin's only node is operator-removed, so every
                // request finds no healthy candidate and is forwarded.
                origin.leave(node_addr, u64::MAX);
                wait_until("origin sees its peer", Duration::from_secs(5), || {
                    origin.healthy_nodes() == 0 && origin.healthy_peers() == 1
                })?;
                Ok(Stack::Federated { origin, peer_front, peer_node })
            }
        }
    }

    /// The handles the driver submits through, one per generator
    /// connection.
    pub fn admitters(&self) -> Vec<&dyn Admitter> {
        match self {
            Stack::Service(service) => vec![service],
            Stack::Net { clients, .. } => clients.iter().map(|c| c as &dyn Admitter).collect(),
            Stack::Gateway { gateway, .. } => vec![gateway],
            Stack::Federated { origin, .. } => vec![origin],
        }
    }

    /// The serve nodes' live ledgers.
    fn node_metrics(&self) -> Vec<MetricsSnapshot> {
        match self {
            Stack::Service(service) => vec![service.metrics()],
            Stack::Net { server, .. } => vec![server.metrics()],
            Stack::Gateway { nodes, .. } => nodes.iter().map(AnyServer::metrics).collect(),
            Stack::Federated { peer_node, .. } => vec![peer_node.metrics()],
        }
    }

    /// Waits until the serve nodes have processed every departure the
    /// driver issued (departures travel fire-and-forget, and a frontend
    /// stops reading once its shutdown begins).
    pub fn settle(&self, departs: u64) -> Result<(), String> {
        wait_until("every departure reaching its node", Duration::from_secs(3), || {
            self.node_metrics().iter().map(|m| m.departed).sum::<u64>() >= departs
        })
    }

    /// Drains every tier, bottom last, and returns the ledgers.
    pub fn finish(self) -> Ledgers {
        match self {
            Stack::Service(service) => {
                let report = service.drain();
                Ledgers {
                    tiers: vec![("service", report.metrics)],
                    nodes: vec![report],
                    forward: ForwardStats::default(),
                }
            }
            Stack::Net { server, clients } => {
                drop(clients);
                let report = server.shutdown();
                Ledgers {
                    tiers: vec![("node", report.metrics)],
                    nodes: vec![report],
                    forward: ForwardStats::default(),
                }
            }
            Stack::Gateway { gateway, nodes } => {
                let forward = gateway.forward_stats();
                let ledger = gateway.drain().metrics;
                let nodes = nodes.into_iter().map(AnyServer::shutdown).collect();
                Ledgers { tiers: vec![("gateway", ledger)], nodes, forward }
            }
            Stack::Federated { origin, peer_front, peer_node } => {
                let forward = origin.forward_stats();
                let origin_ledger = origin.drain().metrics;
                let peer_ledger = peer_front.shutdown().metrics;
                let node = peer_node.shutdown();
                Ledgers {
                    tiers: vec![
                        ("origin gateway", origin_ledger),
                        ("peer gateway", peer_ledger),
                        ("node", node.metrics),
                    ],
                    nodes: vec![node],
                    forward,
                }
            }
        }
    }
}

impl Ledgers {
    /// Plan-cache statistics summed over the serve nodes.
    pub fn plan_cache(&self) -> PlanCacheStats {
        let mut sum = PlanCacheStats::default();
        for pc in self.nodes.iter().filter_map(|n| n.plan_cache) {
            sum.hits += pc.hits;
            sum.negative_hits += pc.negative_hits;
            sum.misses += pc.misses;
            sum.inserts += pc.inserts;
            sum.evictions += pc.evictions;
            sum.invalidations += pc.invalidations;
            sum.validation_failures += pc.validation_failures;
        }
        sum
    }
}
