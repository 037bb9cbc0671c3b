//! The control plane never tears down the data path: a node whose
//! solver round outlasts the gateway's probe timeout keeps every verdict
//! it owes. Health probes ride their own control connection, so a slow
//! round neither misses a probe nor, when one does miss, closes the
//! connection that carries the in-flight submits — which would leave the
//! node holding admissions no ticket owns.
//!
//! Nor does a hung node hold up another node's bookkeeping: the reaper
//! departs each abandoned attempt's admission as soon as that attempt's
//! own verdict lands, not after every loser handed over before it.

mod common;

use common::{fast_config, offered_trace};
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::scenario::Scenario;
use offloadnn_gateway::Gateway;
use offloadnn_net::{AnyServer, Frontend, NetConfig};
use offloadnn_serve::{Admitter, ChaosConfig, Outcome, ServiceConfig};
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

/// One node whose every solver round takes `slow`.
fn slow_node(scenario: &Scenario, slow: Duration) -> AnyServer {
    let config = ServiceConfig {
        shards: 1,
        chaos: ChaosConfig { slow_solver: slow, ..ChaosConfig::default() },
        ..ServiceConfig::default()
    };
    AnyServer::start(Frontend::Threads, ("127.0.0.1", 0), NetConfig::default(), config, &scenario.instance)
        .expect("start slow node")
}

/// Polls `cond` every millisecond until it holds or `within` elapses;
/// returns how long it took, `None` on the timeout.
fn within(within: Duration, cond: impl Fn() -> bool) -> Option<Duration> {
    let start = Instant::now();
    while !cond() {
        if start.elapsed() >= within {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(start.elapsed())
}

#[test]
fn a_loser_on_a_hung_node_does_not_delay_another_nodes_release() {
    const HUNG: Duration = Duration::from_millis(1500);
    let scenario = small_scenario(5);
    let trace = offered_trace(11, 2);
    let (hung, fast) = (slow_node(&scenario, HUNG), common::start_node(&scenario));
    let gateway = Gateway::start(&[hung.local_addr()], fast_config()).expect("start gateway");

    // T1 sits in the hung node's solver round.
    let t1 = gateway.submit(trace[0].task.clone(), trace[0].options.clone(), None).expect("submit T1");
    gateway.announce(fast.local_addr(), 1);
    within(Duration::from_secs(5), || gateway.healthy_nodes() == 2).expect("the fast node joins");

    // The hung node leaves: T1 abandons its attempt there — the reaper
    // now holds a loser whose verdict is ~1.5 s away — and fails over to
    // the fast node.
    gateway.leave(hung.local_addr(), u64::MAX);
    assert!(t1.poll().is_none(), "T1 is in flight on the fast node");

    // T2 is admitted by the fast node, which then leaves too: T2
    // abandons that attempt, and its admission must be departed as soon
    // as its own (fast) verdict lands.
    let t2 = gateway.submit(trace[1].task.clone(), trace[1].options.clone(), None).expect("submit T2");
    within(Duration::from_secs(5), || fast.metrics().admitted == 2).expect("the fast node admits T1 and T2");
    gateway.leave(fast.local_addr(), u64::MAX);
    let t2 = t2.wait().expect("T2 resolves");
    assert!(matches!(t2, Outcome::Shed { .. }), "no node is left to take T2: {t2:?}");
    let released = within(HUNG, || fast.metrics().departed >= 1);
    assert!(
        released.is_some_and(|took| took < HUNG / 3),
        "T2's admission was released after {released:?}, behind T1's loser on the hung node"
    );

    assert!(matches!(t1.wait(), Ok(Outcome::Shed { .. })), "T1 is shed once both nodes left");
    let ledger = gateway.drain().metrics;
    assert!(ledger.is_conserved(), "gateway ledger leaked: {ledger:?}");
    for node in [hung, fast] {
        let settled = within(Duration::from_secs(5), || node.metrics().departed == node.metrics().admitted);
        let m = node.shutdown().metrics;
        assert!(settled.is_some(), "a node holds admissions no ticket owns: {m:?}");
        assert!(m.is_conserved(), "node ledger leaked: {m:?}");
    }
}
