//! Deterministic two-cluster federation harness: a seeded offered trace
//! drives gateway A, whose single backend node is deliberately starved
//! (one shard, a tiny ingress queue, a slowed solver) so the cluster
//! sheds under any seed. A federates with cluster B — a healthy gateway
//! over fresh nodes behind its own TCP frontend — so every would-be
//! `Shed` forwards over a `Forward` frame instead, carrying
//! the remaining deadline budget and the already-tried set. Mid-run,
//! cluster B's frontend is killed with forwards still in flight; the
//! harness must lose **zero verdicts**:
//!
//! * every submit resolves exactly one outcome (counted one by one);
//! * overflow actually reached B while it lived
//!   (`forward_stats().forwards > 0` and at least one forwarded ticket
//!   was admitted there — a forward *win*);
//! * after the kill, forwards fail fast, the peer is ejected
//!   (`healthy_peers() == 0`) and everything still resolves locally;
//! * gateway A's ledger conserves; cluster B's gateway ledger (from its
//!   mid-run drain) conserves; every backend node on both clusters
//!   conserves independently;
//! * the offered trace regenerates bit-identically from the seed.
//!
//! Seed control: `FEDERATION_SEED=<u64>` overrides the default seed; the
//! seed in use is printed on stderr, so any failure is replayable with
//! `FEDERATION_SEED=<printed> cargo test -p offloadnn-gateway --test
//! federation_harness`.

mod common;

use common::{fast_config, offered_trace, start_node};
use offloadnn_core::scenario::small_scenario;
use offloadnn_gateway::{FederationConfig, Gateway};
use offloadnn_net::{AnyServer, Backend, ForwardInfo, Frontend, NetConfig};
use offloadnn_serve::{Admitter, ChaosConfig, Outcome, PendingVerdict, ServiceConfig, VerdictError};
use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn seed() -> u64 {
    common::seed("FEDERATION_SEED", 0xFEDE_7A7E)
}

/// Cluster A's deliberately starved node: one shard, an ingress queue
/// of 8 and a 2ms solver floor. With a pipeline window of 48 and no
/// departures the queue is full almost immediately, so the local pool
/// sheds — and therefore forwards — under *any* seed.
fn starved_service() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        chaos: ChaosConfig { slow_solver: Duration::from_millis(2), ..ChaosConfig::default() },
        ..ServiceConfig::default()
    }
}

#[test]
fn overflow_forwards_to_the_peer_and_survives_its_death() {
    const TOTAL: usize = 400;
    const KILL_B_AT: usize = 250;
    const WINDOW: usize = 48;

    let seed = seed();
    eprintln!("federation_harness seed = {seed} (override with FEDERATION_SEED=<u64>)");
    let trace = offered_trace(seed, TOTAL);
    let scenario = small_scenario(5);

    // Cluster B: a healthy two-node gateway behind its own TCP frontend
    // — what a neighbouring edge site looks like on the wire. It has no
    // federation config of its own, so (with A's hop budget of 1) the
    // overflow can never bounce.
    let b_nodes: Vec<AnyServer> = (0..2).map(|_| start_node(&scenario)).collect();
    let b_addrs: Vec<_> = b_nodes.iter().map(AnyServer::local_addr).collect();
    let b_gateway = Gateway::start(&b_addrs, fast_config()).expect("start peer gateway");
    let b_frontend =
        AnyServer::start_with_backend(Frontend::default(), ("127.0.0.1", 0), NetConfig::default(), b_gateway)
            .expect("start peer frontend");
    let b_addr = b_frontend.local_addr();
    let mut b_frontend = Some(b_frontend);

    // Cluster A: one starved node, federated with B.
    let a_node = AnyServer::start(
        Frontend::Threads,
        ("127.0.0.1", 0),
        NetConfig::default(),
        starved_service(),
        &scenario.instance,
    )
    .expect("start starved node");
    let mut a_config = fast_config();
    a_config.federation = Some(FederationConfig::new("cluster-a", vec![b_addr]));
    let gateway = Gateway::start(&[a_node.local_addr()], a_config).expect("start gateway A");

    let admitter: &dyn Admitter = &gateway;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let mut verdicts: u64 = 0;
    let mut b_report = None;
    let mut forwards_at_kill = 0;

    // No departures, ever: admitted capacity accumulates on the starved
    // node, so cluster A keeps shedding — and forwarding — for the
    // whole run.
    let settle = |pending: PendingVerdict, verdicts: &mut u64| {
        pending.wait().expect("every ticket resolves exactly one verdict");
        *verdicts += 1;
    };

    for (i, offered) in trace.iter().enumerate() {
        if i == KILL_B_AT {
            // Kill the peer's whole frontend with forwards still in
            // flight. In-flight forwards fail over to the local Shed
            // fallback; the digest thread ejects the peer.
            forwards_at_kill = gateway.forward_stats().forwards;
            b_report = Some(b_frontend.take().expect("peer frontend live").shutdown());
        }
        let pending = admitter
            .submit(offered.task.clone(), offered.options.clone(), None)
            .expect("gateway accepts submits until drained");
        window.push_back(pending);
        if window.len() >= WINDOW {
            settle(window.pop_front().unwrap(), &mut verdicts);
        }
    }
    for pending in window.drain(..) {
        settle(pending, &mut verdicts);
    }

    // Zero loss: one verdict per offered submit, no more, no fewer.
    assert_eq!(verdicts, TOTAL as u64);

    // Overflow genuinely reached the peer while it lived: forwards
    // happened before the kill, and at least one forwarded ticket was
    // admitted over there (a forward win).
    let stats = gateway.forward_stats();
    assert!(forwards_at_kill > 0, "no overflow forwarded before the kill");
    assert!(stats.forwards >= forwards_at_kill);
    assert!(stats.forward_wins > 0, "the peer never admitted a forwarded ticket: {stats:?}");

    // The dead peer must be ejected and stay out (a loaded box can
    // reach this line before `eject_after` probes have missed).
    let give_up = Instant::now() + Duration::from_secs(5);
    while gateway.healthy_peers() != 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(gateway.healthy_peers(), 0, "dead peer still scored healthy");

    // Gateway A's ledger conserves over the whole run — forwarded,
    // locally resolved and post-kill traffic alike.
    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway A ledger leaked: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, TOTAL as u64);
    assert_eq!(report.metrics.resolved(), TOTAL as u64);

    // Cluster B conserves too: its gateway ledger (drained mid-run, with
    // forwards in flight) and each of its backend nodes independently.
    let b_report = b_report.expect("peer frontend was shut down");
    assert!(b_report.metrics.is_conserved(), "peer gateway leaked: {:?}", b_report.metrics);
    assert!(b_report.metrics.submitted > 0, "peer gateway saw no forwarded traffic");
    for node in b_nodes {
        let r = node.shutdown();
        assert!(r.metrics.is_conserved(), "peer node leaked: {:?}", r.metrics);
    }
    let r = a_node.shutdown();
    assert!(r.metrics.is_conserved(), "starved node leaked: {:?}", r.metrics);

    // The offered trace is a pure function of the seed.
    assert_eq!(trace, offered_trace(seed, TOTAL), "trace not reproducible from seed");
}

/// Federating with a peer that never answers must cost nothing but the
/// failed dials: every submit still resolves locally, the phantom peer
/// is never scored healthy, and the ledger conserves.
#[test]
fn an_unreachable_peer_never_breaks_local_resolution() {
    const TOTAL: usize = 120;

    let seed = seed().wrapping_add(1);
    let trace = offered_trace(seed, TOTAL);
    let scenario = small_scenario(5);

    // Reserve a port, then close the listener: a valid address nobody
    // answers on.
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let ghost = listener.local_addr().expect("listener addr");
    drop(listener);

    let node = AnyServer::start(
        Frontend::Threads,
        ("127.0.0.1", 0),
        NetConfig::default(),
        starved_service(),
        &scenario.instance,
    )
    .expect("start starved node");
    let mut config = fast_config();
    config.federation = Some(FederationConfig::new("cluster-lonely", vec![ghost]));
    let gateway = Gateway::start(&[node.local_addr()], config).expect("start gateway");

    let admitter: &dyn Admitter = &gateway;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let mut verdicts = 0u64;
    for offered in &trace {
        let pending = admitter
            .submit(offered.task.clone(), offered.options.clone(), None)
            .expect("gateway accepts submits");
        window.push_back(pending);
        if window.len() >= 32 {
            window.pop_front().unwrap().wait().expect("ticket resolves locally");
            verdicts += 1;
        }
    }
    for pending in window.drain(..) {
        pending.wait().expect("ticket resolves locally");
        verdicts += 1;
    }
    assert_eq!(verdicts, TOTAL as u64);
    // The run can finish before `eject_after` probes have missed (a
    // loaded box resolves 120 local verdicts fast): wait for the
    // monitor's verdict instead of racing it.
    let give_up = Instant::now() + Duration::from_secs(5);
    while gateway.healthy_peers() != 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(gateway.healthy_peers(), 0, "a peer nobody answers on was scored healthy");

    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway ledger leaked: {:?}", report.metrics);
    assert_eq!(report.metrics.resolved(), TOTAL as u64);
    let r = node.shutdown();
    assert!(r.metrics.is_conserved());
}

/// The hop budget on a `Forward` frame is outside input: a peer that
/// stamps `hops = 255` must not get its task relayed past the direct-
/// peers-only limit. The receiving gateway here cannot serve the task
/// (its only node is a dead address) and has a live, untried peer — the
/// one situation where an unclamped budget would forward.
#[test]
fn a_forwarded_task_cannot_buy_hops_past_the_limit() {
    let scenario = small_scenario(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let dead_node = listener.local_addr().expect("listener addr");
    drop(listener);

    let peer_node = start_node(&scenario);
    let peer_gateway = Gateway::start(&[peer_node.local_addr()], fast_config()).expect("start peer gateway");
    let peer = AnyServer::start_with_backend(
        Frontend::default(),
        ("127.0.0.1", 0),
        NetConfig::default(),
        peer_gateway,
    )
    .expect("start peer frontend");

    let mut config = fast_config();
    config.federation = Some(FederationConfig::new("cluster-relay", vec![peer.local_addr()]));
    let gateway = Gateway::start(&[dead_node], config).expect("start relay gateway");

    let hostile = ForwardInfo { origin: "cluster-far".into(), tried: vec!["cluster-far".into()], hops: 255 };
    let (task, options) = (scenario.instance.tasks[0].clone(), scenario.instance.options[0].clone());
    let outcome = Backend::forward(&gateway, task, options, None, hostile)
        .expect("the relay accepts the forward")
        .wait()
        .expect("the ticket resolves");
    assert!(matches!(outcome, Outcome::Shed { .. }), "resolved {outcome:?}, not a local Shed");
    assert_eq!(gateway.forward_stats().forwards, 0, "the task was relayed a second hop");

    assert!(gateway.drain().metrics.is_conserved());
    assert_eq!(peer.shutdown().metrics.submitted, 0, "the peer saw the relayed task");
    peer_node.shutdown();
}

/// A forward is an attempt like any other: it is on the wire when
/// `submit` returns, so a poll-only driver sees its verdict, a bounded
/// wait gives up at its bound with the forward still in flight, and the
/// ticket dropped there still owes — and books — exactly one verdict,
/// its late admission departed on the peer's cluster by the reaper.
///
/// The peer's solver round outlasts `fast_config`'s 250 ms probe
/// timeout on both gateways: probes ride the control connection, so a
/// slow verdict can neither miss a probe nor have its connection torn
/// down under it. (Named to sort, and so start, after
/// `an_unreachable_peer_…`: that test needs its node to shed inside a
/// ~20 ms run, which on a two-thread test runner it does not do
/// reliably beside a third cluster's start-up.)
#[test]
fn the_wait_bound_and_poll_both_see_a_forward_in_flight() {
    const SOLVER: Duration = Duration::from_millis(400);
    let trace = offered_trace(seed().wrapping_add(2), 3);
    let scenario = small_scenario(5);
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let dead_node = listener.local_addr().expect("listener addr");
    drop(listener);

    let slow = ServiceConfig {
        shards: 1,
        chaos: ChaosConfig { slow_solver: SOLVER, ..ChaosConfig::default() },
        ..ServiceConfig::default()
    };
    let b_node =
        AnyServer::start(Frontend::Threads, ("127.0.0.1", 0), NetConfig::default(), slow, &scenario.instance)
            .expect("start slow node");
    let b_gateway = Gateway::start(&[b_node.local_addr()], fast_config()).expect("start peer gateway");
    let b_frontend =
        AnyServer::start_with_backend(Frontend::default(), ("127.0.0.1", 0), NetConfig::default(), b_gateway)
            .expect("start peer frontend");

    let mut config = fast_config();
    config.federation = Some(FederationConfig::new("cluster-a", vec![b_frontend.local_addr()]));
    let gateway = Gateway::start(&[dead_node], config).expect("start gateway A");
    let submit = |i: usize| {
        gateway
            .submit(trace[i].task.clone(), trace[i].options.clone(), None)
            .expect("gateway accepts submits")
    };

    // Nobody ever blocks on a polled ticket, yet its verdict arrives.
    let poll = |pending: PendingVerdict| {
        let give_up = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(result) = pending.poll() {
                break result.expect("the polled ticket resolves");
            }
            assert!(Instant::now() < give_up, "poll never saw the forwarded ticket's verdict");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // The first submit ejects the dead node; from here every ticket
    // finds no routable node and is forwarded.
    let first = poll(submit(0));
    assert_eq!(gateway.healthy_nodes(), 0);

    // (i) A forward in flight is seen by poll alone.
    let polled = poll(submit(1));
    assert!(polled.is_admitted(), "poll saw {polled:?}: the forward was never on the wire");

    // (ii) A wait bounded well under the peer's solver round times out
    // on time instead of riding the forward out.
    let pending = submit(2);
    let began = Instant::now();
    let bounded = pending.wait_timeout(Duration::from_millis(20));
    let took = began.elapsed();
    assert!(matches!(bounded, Err(VerdictError::TimedOut)), "resolved {bounded:?} inside a 20 ms bound");
    assert!(took < Duration::from_millis(100), "a 20 ms wait bound held the caller {took:?}");
    assert_eq!(gateway.forward_stats().forwards, 3);

    assert!(first.is_admitted(), "the idle peer cluster resolved {first:?}");
    gateway.depart(trace[0].task.id);
    gateway.depart(trace[1].task.id);
    // The dropped ticket resolved Expired on A's ledger, and drain waits
    // for the reaper to depart its late admission on cluster B.
    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway A ledger leaked: {:?}", report.metrics);
    assert_eq!((report.metrics.submitted, report.metrics.admitted, report.metrics.expired), (3, 2, 1));
    let give_up = Instant::now() + Duration::from_secs(5);
    while b_node.metrics().departed < 3 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(b_frontend.shutdown().metrics.is_conserved());
    let b = b_node.shutdown().metrics;
    assert_eq!((b.admitted, b.departed), (3, 3), "the abandoned forward leaked capacity on the peer: {b:?}");
}
