//! The control plane never tears down the data path: a node whose
//! solver round outlasts the gateway's probe timeout keeps every verdict
//! it owes. Health probes ride their own control connection, so a slow
//! round neither misses a probe nor, when one does miss, closes the
//! connection that carries the in-flight submits — which would leave the
//! node holding admissions no ticket owns.

mod common;

use common::{fast_config, offered_trace};
use offloadnn_core::scenario::small_scenario;
use offloadnn_gateway::Gateway;
use offloadnn_net::{AnyServer, Frontend, NetConfig};
use offloadnn_serve::{Admitter, ChaosConfig, ServiceConfig};
use std::time::{Duration, Instant};

#[test]
fn a_solver_slower_than_the_probe_timeout_loses_no_verdict_and_leaks_no_admission() {
    const SUBMITS: usize = 8;
    let scenario = small_scenario(5);
    // One shard whose every round takes 400 ms, against `fast_config`'s
    // 250 ms probe timeout.
    let slow = ServiceConfig {
        shards: 1,
        chaos: ChaosConfig { slow_solver: Duration::from_millis(400), ..ChaosConfig::default() },
        ..ServiceConfig::default()
    };
    let node =
        AnyServer::start(Frontend::Threads, ("127.0.0.1", 0), NetConfig::default(), slow, &scenario.instance)
            .expect("start slow node");
    let gateway = Gateway::start(&[node.local_addr()], fast_config()).expect("start gateway");

    let trace = offered_trace(7, SUBMITS);
    let pending: Vec<_> = trace
        .iter()
        .map(|offered| {
            let pending = gateway
                .submit(offered.task.clone(), offered.options.clone(), None)
                .expect("gateway accepts submits");
            std::thread::sleep(Duration::from_millis(100));
            pending
        })
        .collect();
    for pending in pending {
        let task = pending.task();
        let outcome = pending.wait().expect("no verdict is lost to a probe");
        assert!(outcome.is_admitted(), "{task:?} resolved {outcome:?}: the node was given up on");
        gateway.depart(task);
    }

    let ledger = gateway.drain().metrics;
    assert!(ledger.is_conserved(), "gateway ledger leaked: {ledger:?}");
    assert_eq!((ledger.admitted, ledger.departed), (SUBMITS as u64, SUBMITS as u64));
    // Departs are fire-and-forget: wait for the node to have read them.
    let give_up = Instant::now() + Duration::from_secs(5);
    while node.metrics().departed < SUBMITS as u64 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
    }
    let node = node.shutdown().metrics;
    assert!(node.is_conserved(), "node ledger leaked: {node:?}");
    assert_eq!(node.departed, node.admitted, "the node holds admissions no ticket owns: {node:?}");
}
