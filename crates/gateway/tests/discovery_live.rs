//! Live loopback discovery: the gateway mounted behind a real TCP
//! frontend, driven by a wire client, while the cluster changes shape
//! under it — a third node hot-joins by announcing itself *over the
//! wire* (the Announce frame a remote edge node would send), sits
//! out its probation, then absorbs traffic; a seed node gracefully
//! departs via a wire Leave frame with verdicts still in flight; and
//! the joiner's own `shutdown()` deregisters it with an automatic
//! Leave before draining. Conservation-gated end to end: every submit
//! resolves exactly once at the wire, the gateway ledger balances, and
//! every node — leaver and joiner included — conserves independently.
//! Separately, an announced node told to drain by a wire `Drain` frame
//! has left the gateway's view by the time it acknowledges.
//!
//! Runs once per frontend (threads and reactor), since the membership
//! RPCs ride the same dispatch as the data path.

mod common;

use common::{fast_config, start_node};
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_gateway::Gateway;
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, MemberState, MembershipDecision, NetConfig};
use offloadnn_serve::{Admitter, Outcome, PendingVerdict, ServiceConfig};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const REQS: usize = 240;
const WINDOW: usize = 24;
const JOIN_AT: usize = 40;
const LEAVE_AT: usize = 160;
const JOIN_INCARNATION: u64 = 7;
const RPC_TIMEOUT: Duration = Duration::from_secs(5);
const VERDICT_TIMEOUT: Duration = Duration::from_secs(30);

/// The state of `addr` in the gateway's membership view, observed over
/// the wire: a duplicate announce (same incarnation) mutates nothing
/// and returns the full member list.
fn wire_member_state(client: &Client, probe: SocketAddr, probe_inc: u64, addr: SocketAddr) -> MemberState {
    let reply = client.announce(&probe.to_string(), probe_inc, RPC_TIMEOUT).expect("membership query");
    assert_eq!(reply.decision, MembershipDecision::Duplicate, "the query announce must be a no-op");
    let want = addr.to_string();
    reply
        .members
        .into_iter()
        .find(|m| m.addr == want)
        .unwrap_or_else(|| panic!("{want} missing from wire membership view"))
        .state
}

fn run(frontend: Frontend) {
    let scenario = small_scenario(4);
    let node0 = start_node(&scenario);
    let node1 = start_node(&scenario);
    let (addr0, addr1) = (node0.local_addr(), node1.local_addr());
    let gateway = Gateway::start(&[addr0, addr1], fast_config()).expect("start gateway");
    let server = AnyServer::start_with_backend(frontend, ("127.0.0.1", 0), NetConfig::default(), gateway)
        .expect("start gateway frontend");
    let gw_addr = server.local_addr();
    let client = Client::connect(gw_addr, ClientConfig::default()).expect("connect client");

    let mut joiner: Option<AnyServer> = None;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let (mut verdicts, mut admitted) = (0u64, 0u64);
    let mut settle = |p: PendingVerdict| {
        let task = p.task();
        let outcome = p.wait_timeout(VERDICT_TIMEOUT).expect("every wire submit resolves one verdict");
        verdicts += 1;
        if let Outcome::Admitted { .. } = outcome {
            admitted += 1;
            client.depart(task).expect("depart an admitted task");
        }
    };

    for i in 0..REQS {
        if i == JOIN_AT {
            // Hot join over the wire: the node itself announces to the
            // gateway's frontend (arming its automatic shutdown Leave),
            // enters probation, and is promoted by a passing probe.
            let node = start_node(&scenario);
            let a = node.local_addr();
            let ack = node.announce_to_as(gw_addr, JOIN_INCARNATION).expect("announce over the wire");
            assert_eq!(ack.decision, MembershipDecision::Accepted);
            assert_eq!(ack.members.len(), 3, "the ack carries the full membership view");
            let deadline = Instant::now() + Duration::from_secs(5);
            while wire_member_state(&client, a, JOIN_INCARNATION, a) != MemberState::Healthy {
                assert!(Instant::now() < deadline, "joiner not promoted in time");
                std::thread::sleep(Duration::from_millis(5));
            }
            joiner = Some(node);
        }
        if i == LEAVE_AT {
            // Graceful leave of a seed node, sent by an operator client
            // (incarnation u64::MAX forces it past any live stamp). The
            // reply reflects the departure immediately; a replay is
            // idempotent.
            let reply = client.leave(&addr0.to_string(), u64::MAX, RPC_TIMEOUT).expect("leave rpc");
            assert_eq!(reply.decision, MembershipDecision::Accepted);
            let state = reply.members.iter().find(|m| m.addr == addr0.to_string()).expect("leaver listed");
            assert_eq!(state.state, MemberState::Departed);
            let replay = client.leave(&addr0.to_string(), u64::MAX, RPC_TIMEOUT).expect("leave replay");
            assert_eq!(replay.decision, MembershipDecision::Accepted, "leave must be idempotent");
        }
        let pick = i % scenario.instance.tasks.len();
        let mut task = scenario.instance.tasks[pick].clone();
        task.id = TaskId(u32::try_from(i).expect("fits"));
        let pending =
            client.submit(task, scenario.instance.options[pick].clone(), None).expect("wire submit");
        window.push_back(pending);
        if window.len() >= WINDOW {
            settle(window.pop_front().expect("non-empty window"));
        }
    }
    for p in window.drain(..) {
        settle(p);
    }
    assert_eq!(verdicts, REQS as u64, "zero verdicts lost across join + leave");

    // The joiner deregisters itself on shutdown: its armed LeaveNotice
    // sends a wire Leave before the node drains, so the gateway's view
    // flips to Departed without any operator involvement.
    let joiner = joiner.expect("node joined mid-run");
    let joiner_addr = joiner.local_addr();
    let joiner_report = joiner.shutdown();
    assert_eq!(wire_member_state(&client, addr1, 0, joiner_addr), MemberState::Departed);
    client.close();

    // Conservation, every ledger: the gateway...
    let report = server.shutdown();
    let m = &report.metrics;
    assert!(m.is_conserved(), "gateway ledger leaked: {m:?}");
    assert_eq!(m.submitted, REQS as u64);
    assert_eq!(m.admitted, admitted);
    // ...the graceful leaver (its server outlived its membership)...
    let r0 = node0.shutdown();
    assert!(r0.metrics.is_conserved(), "leaver leaked: {:?}", r0.metrics);
    assert!(r0.metrics.departed <= r0.metrics.admitted);
    // ...the surviving seed...
    let r1 = node1.shutdown();
    assert!(r1.metrics.is_conserved(), "survivor leaked: {:?}", r1.metrics);
    // ...and the hot joiner, which must actually have carried traffic.
    assert!(joiner_report.metrics.is_conserved(), "joiner leaked: {:?}", joiner_report.metrics);
    assert!(joiner_report.metrics.submitted > 0, "promoted joiner never received traffic");
    assert!(joiner_report.metrics.departed <= joiner_report.metrics.admitted);
    let node_admitted = r0.metrics.admitted + r1.metrics.admitted + joiner_report.metrics.admitted;
    assert!(node_admitted >= admitted, "nodes admitted {node_admitted} < gateway relayed {admitted}");
}

/// A node announced to the gateway, drained over the wire on a
/// `frontend` server: its leave is sent before the drain is
/// acknowledged, so the gateway already lists it `Departed`.
fn wire_drain_leaves(frontend: Frontend) {
    let scenario = small_scenario(4);
    let seed = start_node(&scenario);
    let seed_addr = seed.local_addr();
    let gateway = Gateway::start(&[seed_addr], fast_config()).expect("start gateway");
    let server =
        AnyServer::start_with_backend(Frontend::Threads, ("127.0.0.1", 0), NetConfig::default(), gateway)
            .expect("start gateway frontend");
    let gw_addr = server.local_addr();
    let client = Client::connect(gw_addr, ClientConfig::default()).expect("connect client");

    let node = AnyServer::start(
        frontend,
        ("127.0.0.1", 0),
        NetConfig::default(),
        ServiceConfig::default(),
        &scenario.instance,
    )
    .expect("start node");
    let addr = node.local_addr();
    let ack = node.announce_to_as(gw_addr, JOIN_INCARNATION).expect("announce over the wire");
    assert_eq!(ack.decision, MembershipDecision::Accepted);
    assert_ne!(wire_member_state(&client, seed_addr, 0, addr), MemberState::Departed);

    let drainer = Client::connect(addr, ClientConfig::default()).expect("connect to the node");
    let last = drainer.drain().expect("drain acknowledged");
    assert!(last.is_conserved(), "drained node leaked: {last:?}");
    assert_eq!(wire_member_state(&client, seed_addr, 0, addr), MemberState::Departed);

    drainer.close();
    client.close();
    assert!(node.shutdown().metrics.is_conserved());
    assert!(server.shutdown().metrics.is_conserved());
    assert!(seed.shutdown().metrics.is_conserved());
}

#[test]
fn hot_join_and_graceful_leave_over_the_wire_threads() {
    run(Frontend::Threads);
}

#[test]
fn hot_join_and_graceful_leave_over_the_wire_reactor() {
    run(Frontend::Reactor);
}

#[test]
fn a_wire_drain_leaves_the_gateway_threads() {
    wire_drain_leaves(Frontend::Threads);
}

#[test]
fn a_wire_drain_leaves_the_gateway_reactor() {
    wire_drain_leaves(Frontend::Reactor);
}
