//! Deterministic 3-node failover harness: a seeded offered trace drives
//! a gateway over three loopback serve nodes, one node is killed
//! mid-stream, and the run must lose **zero verdicts**:
//!
//! * every submit resolves exactly one outcome (the harness counts
//!   them one by one);
//! * the gateway's own ledger conserves
//!   (`submitted == admitted + rejected + shed + expired`);
//! * every node's drain report conserves independently;
//! * every admission the caller saw is departed and the cluster ends
//!   with no leaked in-flight capacity;
//! * the offered trace regenerates bit-identically from the seed.
//!
//! Seed control: `GATEWAY_SEED=<u64>` overrides the default seed; the
//! seed in use is printed on stderr, so any failure is replayable with
//! `GATEWAY_SEED=<printed> cargo test -p offloadnn-gateway --test
//! failover_harness`.

mod common;

use common::{fast_config, offered_trace, seed, start_node};
use offloadnn_core::scenario::small_scenario;
use offloadnn_gateway::Gateway;
use offloadnn_net::{AnyServer, Client, ClientConfig};
use offloadnn_serve::{Admitter, Outcome, PendingVerdict};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

#[test]
fn killing_one_node_mid_stream_loses_zero_verdicts() {
    const TOTAL: usize = 600;
    const KILL_AT: usize = 250;
    const WINDOW: usize = 48;
    const VICTIM: usize = 1;

    let seed = seed("GATEWAY_SEED", 0xC1A5_7E12);
    eprintln!("failover_harness seed = {seed} (override with GATEWAY_SEED=<u64>)");
    let trace = offered_trace(seed, TOTAL);

    let scenario = small_scenario(5);
    let mut nodes: Vec<Option<AnyServer>> = (0..3).map(|_| Some(start_node(&scenario))).collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.as_ref().unwrap().local_addr()).collect();
    let gateway = Gateway::start(&addrs, fast_config()).expect("start gateway");

    // The driver loop speaks the unified admission API only; the
    // concrete Gateway is needed solely for the management plane
    // (membership, drain).
    let admitter: &dyn Admitter = &gateway;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let mut verdicts: u64 = 0;
    let mut admitted: u64 = 0;
    let mut victim_report = None;

    let settle = |pending: PendingVerdict, verdicts: &mut u64, admitted: &mut u64| {
        let task = pending.task();
        let outcome = pending.wait().expect("every ticket resolves exactly one verdict");
        *verdicts += 1;
        if let Outcome::Admitted { .. } = outcome {
            *admitted += 1;
            admitter.depart(task);
        }
    };

    for (i, offered) in trace.iter().enumerate() {
        if i == KILL_AT {
            // Kill one node mid-stream, with tickets still in flight in
            // the window. Its drain flushes the verdicts it owes;
            // everything offered afterwards must fail over to the two
            // survivors.
            victim_report = Some(nodes[VICTIM].take().unwrap().shutdown());
        }
        let pending = admitter
            .submit(offered.task.clone(), offered.options.clone(), None)
            .expect("gateway accepts submits until drained");
        window.push_back(pending);
        if window.len() >= WINDOW {
            settle(window.pop_front().unwrap(), &mut verdicts, &mut admitted);
        }
    }
    for entry in window.drain(..) {
        settle(entry, &mut verdicts, &mut admitted);
    }

    // Zero loss: one verdict per offered submit, no more, no fewer.
    assert_eq!(verdicts, TOTAL as u64);

    // The victim must be ejected and stay out (it never comes back).
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(gateway.healthy_nodes(), 2, "victim not ejected");

    // The gateway's ledger conserves and matches the harness counts.
    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway ledger leaked: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, TOTAL as u64);
    assert_eq!(report.metrics.resolved(), TOTAL as u64);
    assert_eq!(report.metrics.admitted, admitted);
    // Every admission was departed except those whose admitting node
    // was already dead when the departure came back.
    assert!(report.metrics.departed <= admitted);

    // Each node conserves independently — the victim included.
    let victim = victim_report.expect("victim was shut down");
    assert!(victim.metrics.is_conserved(), "victim leaked: {:?}", victim.metrics);
    assert!(victim.metrics.departed <= victim.metrics.admitted);
    let mut node_admitted = victim.metrics.admitted;
    for node in nodes.into_iter().flatten() {
        let r = node.shutdown();
        assert!(r.metrics.is_conserved(), "survivor leaked: {:?}", r.metrics);
        // Survivors saw every departure the gateway forwarded: no
        // leaked in-flight capacity on a live node.
        assert_eq!(r.metrics.departed, r.metrics.admitted, "survivor leaked admissions");
        node_admitted += r.metrics.admitted;
    }
    // Every admission the gateway relayed exists on some node. Backend
    // admissions may exceed the gateway's count: a submit that reached
    // the victim right as it died is admitted there, its verdict lost
    // with the connection, and the ticket retried on a survivor — the
    // orphan stays on the (conserved) dead node only.
    assert!(node_admitted >= admitted, "nodes admitted {node_admitted} < gateway relayed {admitted}");

    // The offered trace is a pure function of the seed.
    assert_eq!(trace, offered_trace(seed, TOTAL), "trace not reproducible from seed");
}

/// With no failures, the routing spread honours rendezvous hashing: all
/// three nodes see traffic, and the run conserves end to end.
#[test]
fn three_node_cluster_spreads_and_conserves() {
    const TOTAL: usize = 300;

    let seed = seed("GATEWAY_SEED", 0xC1A5_7E12).wrapping_add(1);
    let trace = offered_trace(seed, TOTAL);
    let scenario = small_scenario(5);
    let nodes: Vec<AnyServer> = (0..3).map(|_| start_node(&scenario)).collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
    let gateway = Gateway::start(&addrs, fast_config()).expect("start gateway");

    let admitter: &dyn Admitter = &gateway;
    let mut verdicts = 0u64;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let mut settle = |pending: PendingVerdict| {
        let task = pending.task();
        let outcome = pending.wait().expect("ticket resolves");
        verdicts += 1;
        if matches!(outcome, Outcome::Admitted { .. }) {
            admitter.depart(task);
        }
    };
    for offered in &trace {
        let pending = admitter
            .submit(offered.task.clone(), offered.options.clone(), None)
            .expect("gateway accepts submits");
        window.push_back(pending);
        if window.len() >= 32 {
            settle(window.pop_front().unwrap());
        }
    }
    for pending in window.drain(..) {
        settle(pending);
    }
    assert_eq!(verdicts, TOTAL as u64);

    let report = gateway.drain();
    assert!(report.metrics.is_conserved());
    assert_eq!(report.metrics.resolved(), TOTAL as u64);

    let mut with_traffic = 0;
    for node in nodes {
        let r = node.shutdown();
        assert!(r.metrics.is_conserved());
        if r.metrics.submitted > 0 {
            with_traffic += 1;
        }
    }
    assert_eq!(with_traffic, 3, "rendezvous routing left a node idle over {TOTAL} submits");
}

/// A ticket driven only by `poll` fails over exactly as one driven by
/// `wait`. One of two nodes is fenced by a wire `Drain`: it stays up and
/// answers probes but refuses every submit `Draining`. Each ticket routed
/// there must move to the other node well inside its deadline rather
/// than expire at it while that node sits idle.
#[test]
fn a_polled_ticket_fails_over_from_a_fenced_node() {
    const TOTAL: usize = 16;

    let seed = seed("GATEWAY_SEED", 0xC1A5_7E12).wrapping_add(2);
    let trace = offered_trace(seed, TOTAL);
    let scenario = small_scenario(5);
    let nodes: Vec<AnyServer> = (0..2).map(|_| start_node(&scenario)).collect();
    let addrs: Vec<_> = nodes.iter().map(AnyServer::local_addr).collect();
    let config = fast_config();
    let deadline = config.default_deadline;
    let gateway = Gateway::start(&addrs, config).expect("start gateway");
    let fence = Client::connect(addrs[0], ClientConfig::default()).expect("dial the fenced node");
    fence.drain().expect("fence node 0");

    let admitter: &dyn Admitter = &gateway;
    let began = Instant::now();
    let mut pending: Vec<PendingVerdict> = trace
        .iter()
        .map(|o| admitter.submit(o.task.clone(), o.options.clone(), None).expect("gateway accepts submits"))
        .collect();
    let mut resolved = Vec::new();
    let give_up = began + deadline * 3;
    while !pending.is_empty() && Instant::now() < give_up {
        pending.retain(|p| match p.poll() {
            Some(result) => {
                resolved.push((p.task(), result.expect("a polled ticket resolves"), began.elapsed()));
                false
            }
            None => true,
        });
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(pending.is_empty(), "{} polled ticket(s) never resolved", pending.len());
    for (task, outcome, took) in &resolved {
        assert!(!matches!(outcome, Outcome::Expired { .. }), "{task:?} expired after {took:?} polling");
        assert!(*took < deadline / 4, "{task:?} took {took:?} to resolve {outcome:?}");
        if outcome.is_admitted() {
            admitter.depart(*task);
        }
    }

    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway ledger leaked: {:?}", report.metrics);
    assert_eq!(report.metrics.resolved(), TOTAL as u64);
    drop(fence);
    let mut nodes = nodes.into_iter().map(AnyServer::shutdown);
    let (fenced, served) = (nodes.next().unwrap().metrics, nodes.next().unwrap().metrics);
    assert_eq!(fenced.admitted, 0, "the fenced node admitted work: {fenced:?}");
    assert_eq!(served.submitted, TOTAL as u64, "every ticket ends on the served node: {served:?}");
}
