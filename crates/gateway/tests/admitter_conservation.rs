//! One workload, every tier: the same seeded mixed workload (Zipf shape
//! pool, pipelined window, periodic departures and metrics probes) runs
//! through an in-process [`Service`], a loopback TCP [`Client`] and a
//! two-node [`Gateway`] — each held only as `Box<dyn Admitter + '_>`,
//! driven by the one shared loop body ([`offloadnn_serve::drive`]).
//!
//! Per tier, the run must conserve end to end: every offered submit
//! resolves exactly one verdict (no errors on a healthy loopback), the
//! tier's own ledger balances, and the driver-side tally matches the
//! ledger class by class. Verdict *mixes* legitimately differ across
//! tiers (capacities differ — one service vs. a two-node cluster), so
//! only the arithmetic is compared, never the mix.

mod common;

use common::{fast_config, start_node};
use offloadnn_core::scenario::small_scenario;
use offloadnn_gateway::Gateway;
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_serve::metrics::MetricsSnapshot;
use offloadnn_serve::{drive, Admitter, DriveConfig, DriveReport, Service, ServiceConfig, ShapePool};
use std::sync::atomic::{AtomicU64, Ordering};

const REQUESTS: u64 = 400;
const SEED: u64 = 0xAD31_77E5;

const DRIVE: DriveConfig = DriveConfig {
    requests: REQUESTS,
    driver: 0,
    drivers: 1,
    seed: SEED,
    window: 32,
    // Small enough that departures cycle: Table IV's budget holds ~12 tasks.
    max_active: 4,
    deadline: None,
};

/// Runs the identical workload through one type-erased tier and returns
/// what the driver saw.
fn drive_tier(tier: &dyn Admitter, expected_tier: &'static str) -> DriveReport {
    assert_eq!(tier.tier(), expected_tier);
    let template = small_scenario(5).instance;
    let shapes = ShapePool::new(32, 1.1, template.tasks.len(), SEED);
    let offered = AtomicU64::new(0);
    let report = drive(tier, &DRIVE, &template, Some(&shapes), &offered);
    assert_eq!(offered.load(Ordering::Relaxed), REQUESTS, "{expected_tier}: offered count drifted");
    report
}

/// The per-tier conservation contract: no errors on a healthy loopback,
/// one verdict per offered submit, and a driver tally that matches the
/// tier's own ledger class by class.
fn assert_conserved(tier: &'static str, report: &DriveReport, ledger: &MetricsSnapshot) {
    let tally = &report.tally;
    assert_eq!(tally.errors(), 0, "{tier}: errors on a healthy loopback: {tally:?}");
    assert_eq!(tally.outcomes(), REQUESTS, "{tier}: verdicts lost: {tally:?}");
    assert!(ledger.is_conserved(), "{tier}: ledger leaked: {ledger:?}");
    assert_eq!(tally.mismatches(ledger), Vec::<String>::new(), "{tier}: driver and ledger disagree");
    assert_eq!(ledger.departed, report.departed, "{tier}: departures lost");
    assert!(report.departed > 0, "{tier}: the depart path carried no traffic");
}

#[test]
fn the_same_workload_conserves_through_every_tier() {
    // Tier 1: the in-process service.
    let scenario = small_scenario(5);
    let service = Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &scenario.instance)
        .expect("start service");
    let report = drive_tier(&service, "service");
    let drain = service.drain();
    assert_conserved("service", &report, &drain.metrics);

    // Tier 2: the same service stack behind a loopback TCP frontend,
    // driven through a wire client.
    let server = AnyServer::start(
        Frontend::default(),
        ("127.0.0.1", 0),
        NetConfig::default(),
        ServiceConfig { shards: 2, ..ServiceConfig::default() },
        &scenario.instance,
    )
    .expect("start loopback server");
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let report = drive_tier(&client, "net");
    client.close();
    let drain = server.shutdown();
    assert_conserved("net", &report, &drain.metrics);

    // Tier 3: a two-node cluster behind a gateway.
    let nodes: Vec<AnyServer> = (0..2).map(|_| start_node(&scenario)).collect();
    let addrs: Vec<_> = nodes.iter().map(AnyServer::local_addr).collect();
    let gateway = Gateway::start(&addrs, fast_config()).expect("start gateway");
    let report = drive_tier(&gateway, "gateway");
    let drain = gateway.drain();
    assert_conserved("gateway", &report, &drain.metrics);
    for node in nodes {
        let r = node.shutdown();
        assert!(r.metrics.is_conserved(), "backend node leaked: {:?}", r.metrics);
    }
}
