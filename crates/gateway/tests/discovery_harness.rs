//! Deterministic membership-churn harness: a seeded offered trace drives
//! a gateway over a *dynamic* loopback cluster while the pool churns
//! under it — hot joins, duplicate and stale announces, graceful leaves,
//! a crash-leave (socket kill, no Leave frame) and a join during the
//! resulting failover — and the run must lose **zero verdicts**:
//!
//! * every submit resolves exactly one outcome (the harness counts
//!   them one by one);
//! * the gateway's own ledger conserves
//!   (`submitted == admitted + rejected + shed + expired`);
//! * every node's drain report conserves independently — the crashed
//!   node and the graceful leavers included — and every node but the
//!   crashed one ends with `departed == admitted`;
//! * a node that announced an address nobody answers on stays `Probing`
//!   (asserted every iteration while its address is unbound) and
//!   receives zero traffic until its server exists and a probe passes;
//! * a departed node is never resurrected by a replayed announce;
//! * the offered trace regenerates bit-identically from the seed.
//!
//! Seed control: `DISCOVERY_SEED=<u64>` overrides the default seed; the
//! seed in use is printed on stderr, so any failure is replayable with
//! `DISCOVERY_SEED=<printed> cargo test -p offloadnn-gateway --test
//! discovery_harness`.

mod common;

use common::{fast_config, offered_trace, seed, start_node};
use offloadnn_core::scenario::small_scenario;
use offloadnn_gateway::Gateway;
use offloadnn_net::{AnyServer, Frontend, MemberState, MembershipDecision, NetConfig};
use offloadnn_serve::{Admitter, Outcome, PendingVerdict, ServiceConfig};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// The state of `addr` in the gateway's current membership view.
fn member_state(gateway: &Gateway, addr: SocketAddr) -> MemberState {
    let want = addr.to_string();
    gateway
        .members()
        .into_iter()
        .find(|m| m.addr == want)
        .unwrap_or_else(|| panic!("{want} missing from membership view"))
        .state
}

/// Polls until `addr` is `Healthy` (the monitor probed and promoted or
/// readmitted it), failing the test after `within`.
fn wait_healthy(gateway: &Gateway, addr: SocketAddr, within: Duration) {
    let deadline = Instant::now() + within;
    while member_state(gateway, addr) != MemberState::Healthy {
        assert!(Instant::now() < deadline, "{addr} not promoted within {within:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn membership_churn_mid_stream_loses_zero_verdicts() {
    const TOTAL: usize = 600;
    const WINDOW: usize = 48;
    // The churn script, by offered-submit index.
    const JOIN2_AT: usize = 60;
    const LEAVE0_AT: usize = 180;
    const CRASH1_AT: usize = 330;
    const JOIN3_AT: usize = 345; // join *during* the crash failover
    const ANNOUNCE4_AT: usize = 420; // an address nobody answers on...
    const START4_AT: usize = 480; // ...until its server actually starts
    const LEAVE2_AT: usize = 520;

    let seed = seed("DISCOVERY_SEED", 0xD15C_04E2);
    eprintln!("discovery_harness seed = {seed} (override with DISCOVERY_SEED=<u64>)");
    let trace = offered_trace(seed, TOTAL);
    let scenario = small_scenario(5);

    // Two seed nodes; three more join mid-run.
    let node0 = start_node(&scenario);
    let mut node1 = Some(start_node(&scenario));
    let addr0 = node0.local_addr();
    let addr1 = node1.as_ref().unwrap().local_addr();
    let gateway = Gateway::start(&[addr0, addr1], fast_config()).expect("start gateway");
    assert_eq!(gateway.pool_size(), 2);

    let mut node2 = None;
    let mut node3 = None;
    let mut node4 = None;
    let mut addr2 = None;
    let mut addr4 = None;
    let mut node1_report = None;

    // The driver loop speaks the unified admission API only; the
    // concrete Gateway stays in scope for the management plane
    // (announce/leave/membership views, drain).
    let admitter: &dyn Admitter = &gateway;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let mut verdicts: u64 = 0;
    let mut admitted: u64 = 0;

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
        match i {
            JOIN2_AT => {
                // Hot join: server first, then announce. The node enters
                // Probing and the monitor promotes it within a sweep.
                let server = start_node(&scenario);
                let a = server.local_addr();
                let ack = gateway.announce(a, 10);
                assert_eq!(ack.decision, MembershipDecision::Accepted);
                assert_eq!(gateway.pool_size(), 3);
                // A duplicate announce (same incarnation) is a no-op...
                assert_eq!(gateway.announce(a, 10).decision, MembershipDecision::Duplicate);
                // ...and a stale one (older incarnation) is ignored.
                assert_eq!(gateway.announce(a, 9).decision, MembershipDecision::Stale);
                assert_eq!(gateway.pool_size(), 3);
                node2 = Some(server);
                addr2 = Some(a);
            }
            LEAVE0_AT => {
                // Graceful leave of a seed node with tickets in flight:
                // the gateway abandons its attempts to the reaper and
                // fails them over with the remaining deadline budget.
                assert_eq!(gateway.leave(addr0, 0).decision, MembershipDecision::Accepted);
                assert_eq!(member_state(&gateway, addr0), MemberState::Departed);
                // A replayed announce from its departed incarnation must
                // not resurrect it.
                assert_eq!(gateway.announce(addr0, 0).decision, MembershipDecision::Stale);
                assert_eq!(member_state(&gateway, addr0), MemberState::Departed);
            }
            CRASH1_AT => {
                // Crash-leave: the socket dies, no Leave frame is ever
                // sent. The data path and monitor must eject it.
                node1_report = Some(node1.take().unwrap().shutdown());
            }
            JOIN3_AT => {
                // Join while the crash failover is still settling.
                let server = start_node(&scenario);
                assert_eq!(gateway.announce(server.local_addr(), 20).decision, MembershipDecision::Accepted);
                node3 = Some(server);
            }
            ANNOUNCE4_AT => {
                // Announce an address nobody answers on (bind to reserve
                // a port, then close the listener): the node must sit in
                // Probing — zero traffic — until a server exists there.
                let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
                let a = listener.local_addr().expect("listener addr");
                drop(listener);
                assert_eq!(gateway.announce(a, 30).decision, MembershipDecision::Accepted);
                addr4 = Some(a);
            }
            START4_AT => {
                // Now the server appears on the announced address; the
                // next due probe promotes the node.
                let a = addr4.expect("announced earlier");
                assert_eq!(member_state(&gateway, a), MemberState::Probing);
                node4 = Some(
                    AnyServer::start(
                        Frontend::Threads,
                        a,
                        NetConfig::default(),
                        ServiceConfig::default(),
                        &scenario.instance,
                    )
                    .expect("bind the reserved addr"),
                );
                wait_healthy(&gateway, a, Duration::from_secs(5));
            }
            LEAVE2_AT => {
                // Graceful leave of a hot-joined node, under its join
                // incarnation.
                assert_eq!(
                    gateway.leave(addr2.expect("joined earlier"), 10).decision,
                    MembershipDecision::Accepted
                );
            }
            _ => {}
        }
        // Join-through-probation, structurally: while the announced
        // address is unbound no probe can succeed, so the node must
        // still be Probing at every single submit in between.
        if (ANNOUNCE4_AT..START4_AT).contains(&i) {
            assert_eq!(
                member_state(&gateway, addr4.expect("announced")),
                MemberState::Probing,
                "an unprobed node must stay gated at submit {i}"
            );
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

    // The final membership view: two departed leavers, the crashed node
    // ejected (it never answered another probe), two healthy joiners.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(gateway.pool_size(), 5);
    assert_eq!(member_state(&gateway, addr0), MemberState::Departed);
    assert_eq!(member_state(&gateway, addr1), MemberState::Ejected, "crashed node must be ejected");
    assert_eq!(member_state(&gateway, addr2.unwrap()), MemberState::Departed);
    assert_eq!(gateway.healthy_nodes(), 2, "node3 and node4 carry the cluster");
    // 3 joins + 2 graceful leaves applied (duplicates/stale replays
    // rejected above never count).
    assert_eq!(gateway.membership_version(), 5);

    // The gateway's ledger conserves and matches the harness counts.
    let report = gateway.drain();
    assert!(report.metrics.is_conserved(), "gateway ledger leaked: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, TOTAL as u64);
    assert_eq!(report.metrics.resolved(), TOTAL as u64);
    assert_eq!(report.metrics.admitted, admitted);
    assert!(report.metrics.departed <= admitted);

    // Each node conserves independently: the crashed node...
    let crashed = node1_report.expect("node1 was crashed");
    assert!(crashed.metrics.is_conserved(), "crashed node leaked: {:?}", crashed.metrics);
    let mut node_admitted = crashed.metrics.admitted;
    // ...the graceful leavers (their servers outlived their membership,
    // and a leave closes no connection, so the reaper collected every
    // verdict abandoned at leave time and departed each admission)...
    for leaver in [node0, node2.expect("node2 joined")] {
        let r = leaver.shutdown();
        assert!(r.metrics.is_conserved(), "leaver leaked: {:?}", r.metrics);
        assert_eq!(r.metrics.departed, r.metrics.admitted, "leaver leaked admissions");
        node_admitted += r.metrics.admitted;
    }
    // ...and the survivors, which must hold no leaked in-flight
    // capacity at all.
    let survivors = [node3.expect("node3 joined"), node4.expect("node4 joined")];
    let mut survivor_submits = 0;
    for survivor in survivors {
        let r = survivor.shutdown();
        assert!(r.metrics.is_conserved(), "survivor leaked: {:?}", r.metrics);
        assert_eq!(r.metrics.departed, r.metrics.admitted, "survivor leaked admissions");
        survivor_submits += r.metrics.submitted;
        node_admitted += r.metrics.admitted;
    }
    assert!(survivor_submits > 0, "hot-joined nodes never received traffic");
    // Every admission the gateway relayed exists on some node (backends
    // may hold more: an orphan admitted on the crashed node right as it
    // died stays on that conserved ledger only).
    assert!(node_admitted >= admitted, "nodes admitted {node_admitted} < gateway relayed {admitted}");

    // The offered trace is a pure function of the seed.
    assert_eq!(trace, offered_trace(seed, TOTAL), "trace not reproducible from seed");
}

/// A membership-only sanity check on the same engine: announcing an
/// address that never answers leaves the pool's routable set untouched
/// while every submit still resolves.
#[test]
fn an_unreachable_joiner_never_receives_traffic() {
    const TOTAL: usize = 80;
    let seed = seed("DISCOVERY_SEED", 0xD15C_04E2).wrapping_add(1);
    let trace = offered_trace(seed, TOTAL);
    let scenario = small_scenario(5);
    let node = start_node(&scenario);
    let gateway = Gateway::start(&[node.local_addr()], fast_config()).expect("start gateway");

    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let ghost = listener.local_addr().expect("listener addr");
    drop(listener);
    assert_eq!(gateway.announce(ghost, 1).decision, MembershipDecision::Accepted);

    let admitter: &dyn Admitter = &gateway;
    let mut window: VecDeque<PendingVerdict> = VecDeque::new();
    let mut verdicts = 0u64;
    let mut settle = |pending: PendingVerdict| {
        let task = pending.task();
        if let Ok(Outcome::Admitted { .. }) = pending.wait() {
            admitter.depart(task);
        }
        verdicts += 1;
    };
    for offered in &trace {
        assert_eq!(member_state(&gateway, ghost), MemberState::Probing);
        let pending = admitter
            .submit(offered.task.clone(), offered.options.clone(), None)
            .expect("gateway accepts submits");
        window.push_back(pending);
        if window.len() >= 16 {
            settle(window.pop_front().unwrap());
        }
    }
    for pending in window.drain(..) {
        settle(pending);
    }
    assert_eq!(verdicts, TOTAL as u64);
    assert_eq!(gateway.healthy_nodes(), 1);

    let report = gateway.drain();
    assert!(report.metrics.is_conserved());
    assert_eq!(report.metrics.resolved(), TOTAL as u64);
    let r = node.shutdown();
    assert!(r.metrics.is_conserved());
    assert_eq!(r.metrics.submitted, report.metrics.submitted, "the one real node saw every submit");
}
