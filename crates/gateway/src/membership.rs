//! The gateway's membership engine: the dynamic node pool behind
//! auto-discovery.
//!
//! ## Incarnations
//!
//! Every announce carries a per-node incarnation stamp (the node picks a
//! fresh one per process, e.g. startup time in nanoseconds). The engine
//! keeps, per address, the highest incarnation it has applied, and
//! orders every announce/leave against it:
//!
//! * **unknown address** — joins, `Probing` (see below).
//! * **higher incarnation** — the node restarted: it re-enters
//!   `Probing` under the new stamp with its probe history reset.
//! * **equal incarnation** — a duplicate announce (retry, multiple
//!   gateways' views crossing): a no-op — unless the node already
//!   departed under that stamp, in which case it is *stale*: a replayed
//!   announce must never resurrect a node that left.
//! * **lower incarnation** — stale (a delayed frame from a previous
//!   life); ignored.
//!
//! A leave applies when its incarnation is at least the one on record —
//! a node leaving always knows its own current stamp, and an operator
//! can force a departure with `u64::MAX`.
//!
//! ## Join-through-probation
//!
//! A joining node enters `Probing`: it is registered, visible in
//! membership views, and probed by the health monitor — but invisible to
//! routing until a probe succeeds. A node that announces an address
//! nobody answers on never receives a ticket.
//!
//! ## Pool layout
//!
//! The pool is **append-only**: a departed node keeps its index (and its
//! `Arc<Node>` stays alive) so in-flight tickets, route affinities and
//! reaper entries indexed before the departure stay valid. Routing never
//! sees it again — candidates are filtered on `Healthy` — and the
//! rendezvous minimal-disruption property means its departure remaps
//! only the keys it owned.

use crate::node::Node;
use offloadnn_net::{MemberInfo, MemberState};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What [`Membership::announce`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnounceOutcome {
    /// A new address joined the pool (in `Probing`).
    Joined,
    /// A known address re-registered under a strictly newer incarnation
    /// (back to `Probing`).
    Restarted,
    /// The same incarnation was already registered; nothing changed.
    Duplicate,
    /// Older incarnation — or a replay of one that already departed;
    /// ignored.
    Stale,
}

/// What [`Membership::leave`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveOutcome {
    /// The node is now `Departed` (idempotently so).
    Departed,
    /// The leave carried an incarnation older than the record; ignored.
    Stale,
    /// The address was never a member.
    Unknown,
}

struct PoolInner {
    /// Append-only: indices are stable for the lifetime of the gateway.
    nodes: Vec<Arc<Node>>,
    by_addr: HashMap<SocketAddr, usize>,
}

/// The dynamic node pool. Reads (routing, probing) take the lock shared;
/// membership changes take it exclusively, which are rare and cheap (a
/// map update, never I/O).
pub struct Membership {
    pool: RwLock<PoolInner>,
    /// Bumped on every applied change; cheap staleness check for
    /// observers that cache a view.
    version: AtomicU64,
}

impl Membership {
    /// Builds the pool from the seed addresses named at gateway start.
    /// Seeds are trusted immediately (`Healthy`, incarnation 0) —
    /// exactly the static-pool behaviour discovery grew out of.
    pub fn new(seeds: &[SocketAddr]) -> Self {
        let nodes: Vec<Arc<Node>> = seeds.iter().map(|&a| Arc::new(Node::new(a))).collect();
        let by_addr = nodes.iter().enumerate().map(|(i, n)| (n.addr(), i)).collect();
        Self { pool: RwLock::new(PoolInner { nodes, by_addr }), version: AtomicU64::new(0) }
    }

    /// Applies one announce. See the module docs for the ordering rules.
    pub fn announce(&self, addr: SocketAddr, incarnation: u64) -> AnnounceOutcome {
        let mut pool = self.pool.write().expect("membership pool lock");
        let outcome = match pool.by_addr.get(&addr).copied() {
            None => {
                let node = Arc::new(Node::probing(addr, incarnation));
                let index = pool.nodes.len();
                pool.nodes.push(node);
                pool.by_addr.insert(addr, index);
                AnnounceOutcome::Joined
            }
            Some(index) => {
                let node = &pool.nodes[index];
                let current = node.incarnation();
                if incarnation > current {
                    node.restart(incarnation);
                    AnnounceOutcome::Restarted
                } else if incarnation == current && node.link.state() != MemberState::Departed {
                    AnnounceOutcome::Duplicate
                } else {
                    AnnounceOutcome::Stale
                }
            }
        };
        if !matches!(outcome, AnnounceOutcome::Duplicate | AnnounceOutcome::Stale) {
            self.version.fetch_add(1, Ordering::AcqRel);
        }
        outcome
    }

    /// Applies one leave: the node departs iff `incarnation` is at least
    /// its registered stamp. Idempotent — a second leave under the same
    /// stamp still answers [`LeaveOutcome::Departed`].
    pub fn leave(&self, addr: SocketAddr, incarnation: u64) -> LeaveOutcome {
        let pool = self.pool.write().expect("membership pool lock");
        let Some(&index) = pool.by_addr.get(&addr) else {
            return LeaveOutcome::Unknown;
        };
        let node = &pool.nodes[index];
        if incarnation < node.incarnation() {
            return LeaveOutcome::Stale;
        }
        if node.link.liveness().depart() {
            self.version.fetch_add(1, Ordering::AcqRel);
        }
        LeaveOutcome::Departed
    }

    /// The node at pool position `index` (stable across churn).
    pub(crate) fn node(&self, index: usize) -> Arc<Node> {
        Arc::clone(&self.pool.read().expect("membership pool lock").nodes[index])
    }

    /// A point-in-time copy of the whole pool, for the monitor sweep.
    pub(crate) fn snapshot(&self) -> Vec<Arc<Node>> {
        self.pool.read().expect("membership pool lock").nodes.clone()
    }

    /// The current routing candidates: every `Healthy` node with its
    /// pool index, seed and weight, ready for [`crate::router::route`].
    pub fn candidates(&self) -> Vec<crate::router::Candidate> {
        self.healthy_candidates(&[])
    }

    /// Routing candidates: every `Healthy` node except the pool indices
    /// in `exclude`.
    pub(crate) fn healthy_candidates(&self, exclude: &[usize]) -> Vec<crate::router::Candidate> {
        self.pool
            .read()
            .expect("membership pool lock")
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| !exclude.contains(i) && n.link.is_healthy())
            .map(|(i, n)| n.candidate(i))
            .collect()
    }

    /// Currently routable nodes.
    pub fn healthy_count(&self) -> usize {
        self.pool.read().expect("membership pool lock").nodes.iter().filter(|n| n.link.is_healthy()).count()
    }

    /// Pool size including probing, ejected and departed members.
    pub fn len(&self) -> usize {
        self.pool.read().expect("membership pool lock").nodes.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic change counter (bumped per applied join/restart/leave).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The cluster view as it travels in a membership frame.
    pub fn members(&self) -> Vec<MemberInfo> {
        self.pool
            .read()
            .expect("membership pool lock")
            .nodes
            .iter()
            .map(|n| MemberInfo {
                addr: n.addr().to_string(),
                incarnation: n.incarnation(),
                state: n.link.state(),
            })
            .collect()
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("members", &self.members())
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn seeds(ports: &[u16]) -> Membership {
        let addrs: Vec<SocketAddr> = ports.iter().map(|&p| addr(p)).collect();
        Membership::new(&addrs)
    }

    /// The first health probe of pool member `index` succeeds.
    fn promote(m: &Membership, index: usize) {
        let now = crate::gateway::test_epoch();
        m.node(index).link.liveness().probed(now, true, 1, std::time::Duration::ZERO);
    }

    #[test]
    fn seeds_start_healthy_and_routable() {
        let m = seeds(&[9001, 9002]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.healthy_count(), 2);
        assert_eq!(m.healthy_candidates(&[]).len(), 2);
        assert!(m.members().iter().all(|i| i.state == MemberState::Healthy && i.incarnation == 0));
    }

    #[test]
    fn a_join_enters_probation_not_routing() {
        let m = seeds(&[9001]);
        assert_eq!(m.announce(addr(9002), 5), AnnounceOutcome::Joined);
        assert_eq!(m.len(), 2);
        assert_eq!(m.healthy_count(), 1, "a probing node is not routable");
        assert_eq!(m.healthy_candidates(&[]).len(), 1);
        let joined = m.node(1);
        assert_eq!(joined.link.state(), MemberState::Probing);
        assert_eq!(joined.incarnation(), 5);
    }

    #[test]
    fn duplicate_and_stale_announces_change_nothing() {
        let m = seeds(&[9001]);
        m.announce(addr(9002), 5);
        let v = m.version();
        assert_eq!(m.announce(addr(9002), 5), AnnounceOutcome::Duplicate);
        assert_eq!(m.announce(addr(9002), 4), AnnounceOutcome::Stale);
        assert_eq!(m.version(), v, "no-op announces must not bump the version");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn a_newer_incarnation_restarts_into_probation() {
        let m = seeds(&[9001]);
        m.announce(addr(9002), 5);
        promote(&m, 1);
        assert_eq!(m.healthy_count(), 2);
        assert_eq!(m.announce(addr(9002), 6), AnnounceOutcome::Restarted);
        assert_eq!(m.node(1).link.state(), MemberState::Probing, "a restarted node re-proves itself");
        assert_eq!(m.node(1).incarnation(), 6);
        assert_eq!(m.healthy_count(), 1);
    }

    #[test]
    fn leave_is_incarnation_gated_and_idempotent() {
        let m = seeds(&[9001]);
        m.announce(addr(9002), 5);
        promote(&m, 1);
        assert_eq!(m.leave(addr(9002), 4), LeaveOutcome::Stale);
        assert_eq!(m.node(1).link.state(), MemberState::Healthy);
        assert_eq!(m.leave(addr(9002), 5), LeaveOutcome::Departed);
        assert_eq!(m.node(1).link.state(), MemberState::Departed);
        assert_eq!(m.leave(addr(9002), 5), LeaveOutcome::Departed, "leave is idempotent");
        assert_eq!(m.leave(addr(9003), 1), LeaveOutcome::Unknown);
        assert_eq!(m.healthy_count(), 1);
        assert_eq!(m.len(), 2, "the pool is append-only; indices stay stable");
    }

    #[test]
    fn a_replayed_announce_never_resurrects_a_departed_node() {
        let m = seeds(&[9001]);
        m.announce(addr(9002), 5);
        promote(&m, 1);
        m.leave(addr(9002), 5);
        // The original announce arrives again (delayed in the network).
        assert_eq!(m.announce(addr(9002), 5), AnnounceOutcome::Stale);
        assert_eq!(m.node(1).link.state(), MemberState::Departed);
        // Something older still is just as dead.
        assert_eq!(m.announce(addr(9002), 3), AnnounceOutcome::Stale);
        assert_eq!(m.node(1).link.state(), MemberState::Departed);
        // Only a strictly newer incarnation — an actual restart — lives.
        assert_eq!(m.announce(addr(9002), 6), AnnounceOutcome::Restarted);
        assert_eq!(m.node(1).link.state(), MemberState::Probing);
    }

    #[test]
    fn seed_leaves_depart_with_any_incarnation() {
        let m = seeds(&[9001, 9002]);
        // Seeds register at incarnation 0, so their own leave (stamp >= 0)
        // always applies.
        assert_eq!(m.leave(addr(9001), 0), LeaveOutcome::Departed);
        assert_eq!(m.healthy_count(), 1);
    }
}
