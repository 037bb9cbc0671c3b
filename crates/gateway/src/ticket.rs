//! The ticket engine: one cluster submit's lifecycle as a state machine
//! that reads no clock, takes no lock and touches no socket.
//!
//! A [`Ticket`] is resolved by a driver (`GwPending` in `gateway.rs`)
//! that asks [`Ticket::next`] what to do, does it, and reports what it
//! did and saw through [`Ticket::begin_launch`] and [`Ticket::absorb`].
//!
//! Every policy decision lives here, over one lifecycle in which an
//! overflow forward to a federated peer is an attempt like any other:
//!
//! * **Failover** — a failed attempt is retried on the best untried
//!   healthy node, at most [`RETRY_LIMIT`] node attempts per ticket.
//! * **Expiry** — an idle ticket expires at its deadline, one with an
//!   attempt in flight at deadline + grace.
//! * **Abandon** — an attempt whose target went down may never answer:
//!   it is handed back for reaping and a surviving hedge is promoted.
//! * **Hedging** — once the primary node's trusted p99 projects past
//!   the deadline the ticket is duplicated to the next-ranked node,
//!   once; with no second node the hedge is forfeited.
//! * **Waiting** — with nothing else to do the driver waits on one
//!   attempt until the engine's next decision point: the hedge trigger
//!   (deadline − p99), a [`RECHECK`] that notices a target the health
//!   monitor ejected, and deadline + grace. Two attempts in flight are
//!   waited on in turn, [`RACE_SLICE`] each.
//! * **Overflow** — when the local cluster is out (no untried healthy
//!   node, no retries left, or a node relayed `Shed`, which skips the
//!   other nodes) the ticket goes to the best untried peer while a hop
//!   remains, else it sheds. A peer's verdict is final; a peer lost
//!   mid-forward ends federation for the ticket.

use crate::router;
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::Task;
use offloadnn_serve::Outcome;
use std::time::{Duration, Instant};

/// Maximum node submits per ticket across failovers (the first attempt
/// counts, so `3` means the primary plus two retries). Hedges and
/// forwards are not retries and do not count.
pub(crate) const RETRY_LIMIT: u32 = 3;

/// How long a wait runs before the engine looks at the cluster again:
/// an ejected target is only noticed by asking [`Cluster::is_live`].
const RECHECK: Duration = Duration::from_millis(20);

/// How long each of two in-flight attempts is waited on in turn (no
/// `select` over verdict channels, so a race alternates bounded waits).
const RACE_SLICE: Duration = Duration::from_micros(500);

/// Where an attempt was sent and, for an admission, where the task
/// lives — so its depart, or its reaping, routes back there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// A local backend node (pool index).
    Node(usize),
    /// A federated peer's cluster (peer index), via an overflow forward.
    Peer(usize),
}

/// The engine's read-only view of the cluster. Implemented by the
/// gateway's shared state; scripted in the unit tests.
pub(crate) trait Cluster {
    /// The best healthy node for `key` outside `tried`.
    fn route(&self, key: u64, tried: &[usize]) -> Option<usize>;
    /// The best live peer whose identity is not in `tried`.
    fn pick_peer(&self, tried: &[String]) -> Option<usize>;
    /// A peer's identity as it appears in `Forward` tried-sets.
    fn peer_identity(&self, peer: usize) -> String;
    /// Whether `target` is still expected to answer.
    fn is_live(&self, target: Target) -> bool;
    /// The node's p99 round trip once hedging may trust it (`None`
    /// with hedging off or too few samples).
    fn hedge_p99(&self, node: usize) -> Option<Duration>;
}

/// One in-flight submit or forward. `V` is the transport's handle to
/// the verdict.
pub(crate) struct Attempt<V> {
    pub target: Target,
    pub verdict: V,
    pub started: Instant,
    pub is_hedge: bool,
}

/// What the driver must do next (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Next {
    /// The attempt in this slot sits on a target that went down: take
    /// it with [`Ticket::abandon`] and hand it to the reaper.
    Abandon { hedge: bool },
    /// Send the task to `target`, into this slot.
    Launch { target: Target, hedge: bool },
    /// The ticket's final verdict, synthesized or relayed.
    Settle(Outcome),
    /// Wait on the attempt in this slot, at most until `until`, then ask
    /// again.
    Wait { hedge: bool, until: Instant },
}

/// The state of one cluster submit.
pub(crate) struct Ticket<V> {
    pub task: Task,
    pub options: Vec<PathOption>,
    pub born: Instant,
    pub deadline: Instant,
    pub primary: Option<Attempt<V>>,
    pub hedge: Option<Attempt<V>>,
    /// Forward hops this ticket may still take (0 = must resolve here).
    pub fwd_hops: u8,
    /// The final verdict, set by the driver when it books one.
    pub done: Option<Outcome>,
    /// Node submits launched (hedges excluded); bounded by [`RETRY_LIMIT`].
    attempts: u32,
    /// Node indices already attempted (never re-tried for this ticket).
    tried: Vec<usize>,
    /// The one-shot hedge has fired or been forfeited.
    hedged: bool,
    /// The slot the next wait takes while both are in flight.
    wait_hedge: bool,
    /// The originating gateway's identity when this ticket arrived via a
    /// `Forward` frame; `None` for locally submitted tickets.
    origin: Option<String>,
    /// Gateway identities this task has already visited (seeded from the
    /// incoming `Forward` frame's tried-set, grown per forward); a
    /// cluster in this set is never forwarded to again.
    tried_peers: Vec<String>,
    /// A node's `Shed` held back while a forward might still rescue the
    /// ticket; relayed verbatim if none does.
    relayed_shed: Option<Outcome>,
}

impl<V> Ticket<V> {
    /// A ticket with nothing launched yet. `origin` and `tried_peers`
    /// come from the `Forward` frame that brought the task here.
    pub(crate) fn new(
        task: Task,
        options: Vec<PathOption>,
        born: Instant,
        deadline: Instant,
        fwd_hops: u8,
        origin: Option<String>,
        tried_peers: Vec<String>,
    ) -> Self {
        Self {
            task,
            options,
            born,
            deadline,
            primary: None,
            hedge: None,
            fwd_hops,
            done: None,
            attempts: 0,
            tried: Vec::new(),
            hedged: false,
            wait_hedge: false,
            origin,
            tried_peers,
            relayed_shed: None,
        }
    }

    /// The primary or the hedge slot.
    pub(crate) fn slot(&mut self, hedge: bool) -> &mut Option<Attempt<V>> {
        if hedge {
            &mut self.hedge
        } else {
            &mut self.primary
        }
    }

    /// The primary's node while the one-shot hedge could still fire
    /// beside it.
    fn hedgeable(&self) -> Option<usize> {
        match self.primary {
            Some(Attempt { target: Target::Node(node), .. }) if !self.hedged && self.hedge.is_none() => {
                Some(node)
            }
            _ => None,
        }
    }

    /// The next step at `now`; `grace` is how long past the deadline an
    /// in-flight attempt is still waited for.
    pub(crate) fn next(&mut self, now: Instant, grace: Duration, cluster: &impl Cluster) -> Next {
        for hedge in [false, true] {
            if self.slot(hedge).as_ref().is_some_and(|a| !cluster.is_live(a.target)) {
                return Next::Abandon { hedge };
            }
        }
        if self.primary.is_none() {
            self.primary = self.hedge.take();
        }
        let key = router::key(self.task.id);
        if self.primary.is_none() {
            if now >= self.deadline {
                return Next::Settle(self.relayed_shed.unwrap_or(Outcome::Expired { shard: 0 }));
            }
            if self.relayed_shed.is_none() && self.attempts < RETRY_LIMIT {
                if let Some(node) = cluster.route(key, &self.tried) {
                    return Next::Launch { target: Target::Node(node), hedge: false };
                }
            }
            // The local cluster is out: overflow is the one exit that
            // isn't a Shed.
            if self.fwd_hops > 0 {
                if let Some(peer) = cluster.pick_peer(&self.tried_peers) {
                    return Next::Launch { target: Target::Peer(peer), hedge: false };
                }
            }
            return Next::Settle(self.relayed_shed.unwrap_or(Outcome::Shed { shard: 0 }));
        }
        let horizon = self.deadline + grace;
        let mut until = horizon.min(now + RECHECK);
        if let Some(p99) = self.hedgeable().and_then(|node| cluster.hedge_p99(node)) {
            match self.deadline.checked_sub(p99).filter(|trigger| now < *trigger) {
                Some(trigger) => until = until.min(trigger),
                // Waiting out another p99 would blow the deadline.
                None => match cluster.route(key, &self.tried) {
                    Some(second) => return Next::Launch { target: Target::Node(second), hedge: true },
                    None => self.hedged = true,
                },
            }
        }
        if now >= horizon {
            return Next::Settle(Outcome::Expired { shard: 0 });
        }
        let hedge = self.hedge.is_some() && self.wait_hedge;
        if self.hedge.is_some() {
            self.wait_hedge = !hedge;
            until = until.min(now + RACE_SLICE);
        }
        Next::Wait { hedge, until }
    }

    /// Books the decision to launch at `target` before the send, so a
    /// failed send still spends the retry, the node or the peer.
    /// Returns whether this is a failover (a node retry after an
    /// earlier attempt failed).
    pub(crate) fn begin_launch(&mut self, target: Target, hedge: bool, cluster: &impl Cluster) -> bool {
        match target {
            Target::Node(node) => {
                self.tried.push(node);
                if hedge {
                    self.hedged = true;
                    return false;
                }
                self.attempts += 1;
                self.attempts > 1
            }
            Target::Peer(peer) => {
                self.tried_peers.push(cluster.peer_identity(peer));
                false
            }
        }
    }

    /// The origin and tried-set of this ticket's `Forward` frame, sent
    /// by the gateway `own`. The tried-set names every cluster the task
    /// has touched — this gateway and the origin included — so the
    /// receiving peer can never bounce it back around a cycle, whatever
    /// its own peer list looks like.
    pub(crate) fn forward_header(&self, own: &str) -> (String, Vec<String>) {
        let origin = self.origin.clone().unwrap_or_else(|| own.to_owned());
        let mut tried = self.tried_peers.clone();
        for id in [own, origin.as_str()] {
            if !tried.iter().any(|t| t == id) {
                tried.push(id.to_owned());
            }
        }
        (origin, tried)
    }

    /// Takes a lost attempt — the one [`Next::Abandon`] named, or one
    /// whose transport failed — out of its slot. Losing a forward ends
    /// federation for the ticket: it falls back to a local Shed rather
    /// than chase a second cluster with what budget is left. (If the
    /// peer did admit before dying, that admission lives and dies with
    /// the peer's own ledger.)
    pub(crate) fn abandon(&mut self, hedge: bool) -> Attempt<V> {
        let attempt = self.slot(hedge).take().expect("a lost attempt must exist");
        if let Target::Peer(_) = attempt.target {
            self.fwd_hops = 0;
        }
        attempt
    }

    /// Takes a completed attempt out of its slot; `verdict` is `None`
    /// when the transport failed. Returns the attempt and, if the
    /// verdict is the ticket's final one, that outcome; otherwise
    /// [`Ticket::next`] re-routes.
    pub(crate) fn absorb(
        &mut self,
        hedge: bool,
        verdict: Option<Outcome>,
        cluster: &impl Cluster,
    ) -> (Attempt<V>, Option<Outcome>) {
        let Some(outcome) = verdict else {
            return (self.abandon(hedge), None);
        };
        let attempt = self.slot(hedge).take().expect("absorbed attempt must exist");
        // A node-relayed Shed is the cluster saying "saturated": the one
        // signal overflow forwarding exists for. A peer's verdict is final.
        let overflow = matches!((attempt.target, outcome), (Target::Node(_), Outcome::Shed { .. }))
            && self.fwd_hops > 0
            && cluster.pick_peer(&self.tried_peers).is_some();
        if overflow {
            self.relayed_shed = Some(outcome);
        }
        (attempt, (!overflow).then_some(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offloadnn_core::scenario::small_scenario;

    const GRACE: Duration = Duration::from_millis(50);
    const BUDGET: Duration = Duration::from_millis(100);
    const SHED: Outcome = Outcome::Shed { shard: 0 };
    const EXPIRED: Outcome = Outcome::Expired { shard: 0 };
    const ADMITTED: Outcome = Outcome::Admitted { admission: 1.0, rbs: 2.0, shard: 3 };

    /// A cluster whose answers the test writes down: `route` and
    /// `pick_peer` return the first live, untried entry.
    struct Script {
        nodes: Vec<bool>,
        peers: Vec<(&'static str, bool)>,
        p99: Option<Duration>,
    }

    impl Cluster for Script {
        fn route(&self, _key: u64, tried: &[usize]) -> Option<usize> {
            (0..self.nodes.len()).find(|i| self.nodes[*i] && !tried.contains(i))
        }
        fn pick_peer(&self, tried: &[String]) -> Option<usize> {
            self.peers.iter().position(|(id, live)| *live && !tried.iter().any(|t| t == id))
        }
        fn peer_identity(&self, peer: usize) -> String {
            self.peers[peer].0.to_owned()
        }
        fn is_live(&self, target: Target) -> bool {
            match target {
                Target::Node(i) => self.nodes[i],
                Target::Peer(i) => self.peers[i].1,
            }
        }
        fn hedge_p99(&self, _node: usize) -> Option<Duration> {
            self.p99
        }
    }

    fn cluster(nodes: usize, peers: &[&'static str]) -> Script {
        Script { nodes: vec![true; nodes], peers: peers.iter().map(|id| (*id, true)).collect(), p99: None }
    }

    fn ticket(t0: Instant, fwd_hops: u8) -> Ticket<()> {
        let instance = small_scenario(5).instance;
        Ticket::new(
            instance.tasks[0].clone(),
            instance.options[0].clone(),
            t0,
            t0 + BUDGET,
            fwd_hops,
            None,
            vec![],
        )
    }

    fn wait(hedge: bool, until: Instant) -> Next {
        Next::Wait { hedge, until }
    }

    /// Asks for the next step, expects a launch and performs it.
    fn launch(t: &mut Ticket<()>, c: &Script, now: Instant) -> (Target, bool) {
        let Next::Launch { target, hedge } = t.next(now, GRACE, c) else {
            panic!("expected a launch");
        };
        let failover = t.begin_launch(target, hedge, c);
        *t.slot(hedge) = Some(Attempt { target, verdict: (), started: now, is_hedge: hedge });
        (target, failover)
    }

    #[test]
    fn failover_walks_untried_nodes_up_to_the_retry_limit_then_sheds() {
        let (t0, c) = (crate::gateway::test_epoch(), cluster(5, &[]));
        let mut t = ticket(t0, 1);
        for attempt in 0..RETRY_LIMIT as usize {
            assert_eq!(launch(&mut t, &c, t0), (Target::Node(attempt), attempt > 0));
            assert_eq!(t.next(t0, GRACE, &c), wait(false, t0 + RECHECK));
            assert!(t.absorb(false, None, &c).1.is_none(), "a transport failure settles nothing");
        }
        assert_eq!(t.next(t0, GRACE, &c), Next::Settle(SHED), "two healthy nodes remain, no retry does");
        // A verdict, on the other hand, is relayed verbatim from whichever attempt got it.
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        assert_eq!(t.absorb(false, Some(ADMITTED), &c).1, Some(ADMITTED));
    }

    #[test]
    fn an_idle_ticket_expires_at_its_deadline_and_a_racing_one_at_the_grace_horizon() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(1, &[]));
        let mut idle = ticket(t0, 1);
        assert!(matches!(idle.next(t0 + BUDGET - Duration::from_nanos(1), GRACE, &c), Next::Launch { .. }));
        assert_eq!(idle.next(t0 + BUDGET, GRACE, &c), Next::Settle(EXPIRED));
        c.nodes[0] = false;
        assert_eq!(idle.next(t0, GRACE, &c), Next::Settle(SHED), "in time but nowhere to go");
        c.nodes[0] = true;

        let mut racing = ticket(t0, 1);
        launch(&mut racing, &c, t0);
        assert_eq!(
            racing.next(t0 + BUDGET, GRACE, &c),
            wait(false, t0 + BUDGET + RECHECK),
            "in flight: the deadline alone ends nothing"
        );
        assert_eq!(racing.next(t0 + BUDGET + GRACE, GRACE, &c), Next::Settle(EXPIRED));
    }

    #[test]
    fn an_attempt_on_a_downed_node_is_abandoned_and_a_surviving_hedge_promoted() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(3, &[]));
        c.p99 = Some(BUDGET);
        let mut t = ticket(t0, 1);
        assert_eq!(launch(&mut t, &c, t0), (Target::Node(0), false));
        assert_eq!(launch(&mut t, &c, t0), (Target::Node(1), false), "the hedge is no failover");
        c.nodes[0] = false;
        assert_eq!(t.next(t0, GRACE, &c), Next::Abandon { hedge: false });
        assert_eq!(t.abandon(false).target, Target::Node(0));
        assert_eq!(t.next(t0, GRACE, &c), wait(false, t0 + RECHECK));
        assert!(t.hedge.is_none());
        assert_eq!(t.primary.as_ref().map(|a| (a.target, a.is_hedge)), Some((Target::Node(1), true)));
        // With the promoted hedge gone too, the ticket fails over to the last node.
        c.nodes[1] = false;
        assert_eq!(t.next(t0, GRACE, &c), Next::Abandon { hedge: false });
        t.abandon(false);
        assert_eq!(launch(&mut t, &c, t0), (Target::Node(2), true));
    }

    #[test]
    fn the_hedge_waits_for_a_trusted_p99_fires_once_and_is_forfeited_without_a_second_node() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(2, &[]));
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        let late = t0 + BUDGET;
        assert_eq!(
            t.next(late, GRACE, &c),
            wait(false, late + RECHECK),
            "no trusted p99, no hedge — however late"
        );
        c.p99 = Some(Duration::from_millis(30));
        assert!(t.hedgeable().is_some());
        assert_eq!(
            t.next(t0 + Duration::from_millis(69), GRACE, &c),
            wait(false, t0 + Duration::from_millis(70)),
            "p99 still fits the budget"
        );
        let due = t0 + Duration::from_millis(70);
        assert_eq!(launch(&mut t, &c, due), (Target::Node(1), false));
        assert!(t.hedge.as_ref().is_some_and(|a| a.is_hedge) && t.hedgeable().is_none());
        assert_eq!(t.next(due, GRACE, &c), wait(false, due + RACE_SLICE), "one shot");
        // The hedge's transport failure leaves the primary racing, un-hedgeable.
        assert!(t.absorb(true, None, &c).1.is_none());
        assert_eq!(t.next(due, GRACE, &c), wait(false, due + RECHECK));

        // One node only: the due hedge is forfeited, not re-routed every slice.
        let solo = Script { nodes: vec![true], ..c };
        let mut t = ticket(t0, 1);
        launch(&mut t, &solo, t0);
        assert!(t.hedgeable().is_some());
        assert_eq!(t.next(due, GRACE, &solo), wait(false, due + RECHECK));
        assert!(t.hedgeable().is_none());
    }

    #[test]
    fn overflow_goes_to_an_untried_peer_only_when_the_local_cluster_is_out() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(2, &["b", "c"]));
        // A healthy node wins over any peer; its Shed skips the other node.
        let mut t = ticket(t0, 1);
        assert_eq!(launch(&mut t, &c, t0).0, Target::Node(0));
        assert!(t.absorb(false, Some(Outcome::Shed { shard: 7 }), &c).1.is_none());
        assert_eq!(launch(&mut t, &c, t0), (Target::Peer(0), false));
        assert_eq!(t.forward_header("a"), ("a".to_owned(), vec!["b".to_owned(), "a".to_owned()]));
        // A failed send spent that identity: never twice to one peer.
        *t.slot(false) = None;
        assert_eq!(launch(&mut t, &c, t0).0, Target::Peer(1));
        // A peer's verdict is final, Shed included.
        assert_eq!(t.absorb(false, Some(SHED), &c).1, Some(SHED));

        // No routable node at all: straight to the peer, spending no retry.
        c.nodes = vec![false; 2];
        let mut t = ticket(t0, 1);
        assert_eq!(launch(&mut t, &c, t0), (Target::Peer(0), false));
        // The peer dies mid-forward: federation is over for this ticket.
        assert!(t.absorb(false, None, &c).1.is_none());
        assert_eq!(t.next(t0, GRACE, &c), Next::Settle(SHED));
        // So it is when the peer is marked down under a forward in flight.
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        c.peers[0].1 = false;
        assert_eq!(t.next(t0, GRACE, &c), Next::Abandon { hedge: false });
        assert_eq!(t.abandon(false).target, Target::Peer(0));
        assert_eq!(t.next(t0, GRACE, &c), Next::Settle(SHED));
        c.peers[0].1 = true;

        // No hop left: the ticket must resolve here.
        assert_eq!(ticket(t0, 0).next(t0, GRACE, &c), Next::Settle(SHED));
        // A forwarded-in ticket never revisits a cluster in its tried-set, and keeps its origin.
        let task = ticket(t0, 1);
        let mut t = Ticket::<()>::new(
            task.task,
            task.options,
            t0,
            t0 + BUDGET,
            1,
            Some("far".into()),
            vec!["b".into()],
        );
        assert_eq!(launch(&mut t, &c, t0).0, Target::Peer(1));
        let all = ["b", "c", "a", "far"].map(String::from).to_vec();
        assert_eq!(t.forward_header("a"), ("far".to_owned(), all));
    }

    #[test]
    fn a_node_shed_with_no_hop_or_peer_left_is_relayed_verbatim() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(2, &["b"]));
        let shed = Outcome::Shed { shard: 7 };
        // No hop: the verdict settles at once.
        let mut t = ticket(t0, 0);
        launch(&mut t, &c, t0);
        assert_eq!(t.absorb(false, Some(shed), &c).1, Some(shed));
        // No live peer: likewise.
        c.peers[0].1 = false;
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        assert_eq!(t.absorb(false, Some(shed), &c).1, Some(shed));
        // Held back for a forward that then fails: the node's own verdict comes back out,
        // even past the deadline.
        c.peers[0].1 = true;
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        assert!(t.absorb(false, Some(shed), &c).1.is_none());
        assert_eq!(launch(&mut t, &c, t0).0, Target::Peer(0));
        assert!(t.absorb(false, None, &c).1.is_none());
        assert_eq!(t.next(t0, GRACE, &c), Next::Settle(shed));
        assert_eq!(t.next(t0 + BUDGET, GRACE, &c), Next::Settle(shed));
    }

    #[test]
    fn a_wait_runs_to_the_hedge_trigger_while_a_hedge_can_fire_else_to_the_recheck() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(2, &[]));
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        let ms = |n| t0 + Duration::from_millis(n);
        assert_eq!(t.next(ms(60), GRACE, &c), wait(false, ms(80)), "no trusted p99: the recheck");
        c.p99 = Some(Duration::from_millis(30));
        assert_eq!(t.next(ms(10), GRACE, &c), wait(false, ms(30)), "the trigger is past the recheck");
        assert_eq!(t.next(ms(60), GRACE, &c), wait(false, ms(70)), "the trigger at deadline - p99");
        // Once the hedge is forfeited only the recheck is left.
        c.nodes[1] = false;
        assert_eq!(t.next(ms(70), GRACE, &c), wait(false, ms(90)));
        c.nodes[1] = true;
        assert_eq!(t.next(ms(75), GRACE, &c), wait(false, ms(95)), "a forfeited hedge stays forfeited");
    }

    #[test]
    fn a_wait_never_runs_past_deadline_plus_grace() {
        let (t0, c) = (crate::gateway::test_epoch(), cluster(1, &[]));
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        let horizon = t0 + BUDGET + GRACE;
        for us in (0..(BUDGET + GRACE).as_micros() as u64).step_by(997) {
            let now = t0 + Duration::from_micros(us);
            let Next::Wait { hedge: false, until } = t.next(now, GRACE, &c) else {
                panic!("a lone attempt in time is waited on");
            };
            assert!(now < until && until <= horizon, "at {us} µs the wait runs to {:?}", until - t0);
        }
        let now = horizon - Duration::from_millis(5);
        assert_eq!(t.next(now, GRACE, &c), wait(false, horizon));
        assert_eq!(t.next(horizon, GRACE, &c), Next::Settle(EXPIRED));
    }

    #[test]
    fn two_in_flight_attempts_are_waited_on_in_turn() {
        let (t0, mut c) = (crate::gateway::test_epoch(), cluster(2, &[]));
        c.p99 = Some(BUDGET);
        let mut t = ticket(t0, 1);
        launch(&mut t, &c, t0);
        launch(&mut t, &c, t0);
        assert!(t.hedge.is_some());
        for step in 0..6_u32 {
            let now = t0 + Duration::from_millis(u64::from(step));
            assert_eq!(t.next(now, GRACE, &c), wait(step % 2 == 1, now + RACE_SLICE), "step {step}");
        }
        // The primary answers first: the hedge is all that is left to wait on.
        assert_eq!(t.absorb(false, None, &c).0.target, Target::Node(0));
        assert_eq!(t.next(t0, GRACE, &c), wait(false, t0 + RECHECK));
        assert_eq!(t.primary.as_ref().map(|a| a.target), Some(Target::Node(1)));
    }
}
