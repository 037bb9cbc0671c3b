//! The gateway proper: the node pool, the driver that runs each ticket
//! (`crate::ticket` decides — failover, hedging, overflow forwarding,
//! and which attempt to wait on until when; this module owns the clock,
//! the locks and the sockets that execute), and the [`Admitter`] +
//! [`Backend`] implementations that put the whole cluster tier behind a
//! driver or an `offloadnn-net` frontend.
//!
//! A ticket resolves one way under `poll`, `wait` and `wait_timeout`:
//! each runs the engine's steps — abandon, launch, settle, absorb — and
//! differs only in how long a wait may run (zero, unbounded, the given
//! bound) before the caller gets the ticket back unresolved.
//!
//! # Verdict conservation
//!
//! The gateway maintains the same invariant its backends do: every
//! counted submit resolves to exactly one of admitted / rejected / shed
//! / expired ([`offloadnn_serve::MetricsSnapshot::is_conserved`]).
//! Cluster-level events map onto the verdict classes:
//!
//! * a ticket that exhausts its retry budget (`RETRY_LIMIT` attempts),
//!   or finds no healthy node — and no federated peer to overflow to —
//!   resolves **Shed** (cluster backpressure);
//! * a ticket whose deadline (plus `verdict_grace`) passes before any
//!   backend answers, or that is dropped unresolved, resolves
//!   **Expired**;
//! * everything else relays the winning backend verdict verbatim.
//!
//! A ticket can have several attempts outstanding — a hedge beside its
//! primary, or one abandoned on a node or peer that went down — which
//! threatens double-counting: the dedup rule is that exactly one
//! attempt — the first to deliver a verdict — settles the ticket, and
//! every other outstanding attempt is handed to the reaper, which waits
//! out its verdict and sends a [`offloadnn_net::Client::depart`] iff the
//! loser was *admitted* where it was sent, node or peer cluster. So the
//! cluster-wide ledger stays balanced: the winner's admission is owned
//! by the caller (departed via [`Gateway`] depart like any admission),
//! the loser's admission is departed by the reaper, and loser
//! rejections/sheds/expiries need no compensation. Synthesized gateway
//! verdicts carry `shard: 0`.

use crate::config::{GatewayConfig, GatewayError};
use crate::health;
use crate::instruments::GwInstruments;
use crate::membership::{AnnounceOutcome, LeaveOutcome, Membership};
use crate::node::Link;
use crate::peer::{Peer, PeerSet};
use crate::router;
use crate::ticket::{Attempt, Cluster, Next, Target, Ticket};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use offloadnn_net::codec::ErrorCode;
use offloadnn_net::{
    Backend, ForwardInfo, MemberInfo, MembershipAck, MembershipDecision, NetError, PeerDigest, PendingVerdict,
};
use offloadnn_serve::admit::admission_budget;
use offloadnn_serve::{
    Admitter, Bell, DrainReport, MetricsSnapshot, Outcome, ReshardReport, ServeError, ServiceMetrics,
    SubmitError, VerdictError, VerdictHandle,
};
use offloadnn_telemetry::{event, span, Severity};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum forward hops a task may take from the gateway it was first
/// submitted to (1 = direct peers only). A forwarded-in task carries the
/// sender's remaining hop count, clamped to this limit less the hop it
/// already took.
const HOP_LIMIT: u8 = 1;

/// Always-on federation counters, independent of telemetry gating, so
/// harnesses and loadgens can assert overflow behaviour even in
/// telemetry-disabled builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForwardStats {
    /// Tickets the local cluster would have shed that were forwarded to
    /// a federated peer instead.
    pub forwards: u64,
    /// Forwarded tickets the peer cluster admitted.
    pub forward_wins: u64,
}

/// State shared between the gateway handle, its tickets and its threads.
pub(crate) struct GatewayInner {
    pub(crate) membership: Membership,
    pub(crate) config: GatewayConfig,
    /// The gateway's own conservation ledger (one verdict per submit).
    pub(crate) metrics: ServiceMetrics,
    draining: AtomicBool,
    /// Where each live admitted task went, so departs route back there.
    routes: Mutex<HashMap<TaskId, Target>>,
    /// Federated peer gateways (`None` without [`GatewayConfig::federation`]).
    pub(crate) peers: Option<PeerSet>,
    /// This gateway process's incarnation stamp, sent in `PeerHello`.
    pub(crate) incarnation: u64,
    /// Always-on forward counter (see [`ForwardStats`]).
    forwards: AtomicU64,
    /// Always-on forward-win counter (see [`ForwardStats`]).
    forward_wins: AtomicU64,
    /// Hand-off to the reaper thread; `None` once drain has begun (late
    /// losers are then reaped inline).
    reaper_tx: Mutex<Option<Sender<Loser>>>,
    instruments: Option<GwInstruments>,
}

impl GatewayInner {
    /// Publishes the `gw.nodes.healthy`, `gw.membership.size` and
    /// `gw.peers.healthy` gauges.
    pub(crate) fn publish_gauges(&self) {
        if let Some(ins) = &self.instruments {
            ins.nodes_healthy.set(self.membership.healthy_count() as u64);
            ins.membership_size.set(self.membership.len() as u64);
            ins.peers_healthy.set(self.peers.as_ref().map_or(0, PeerSet::healthy_count) as u64);
        }
    }

    /// The peer set behind a [`Target::Peer`], which only a federated
    /// gateway's [`Cluster::pick_peer`] hands out.
    fn federation(&self) -> &PeerSet {
        self.peers.as_ref().expect("a peer target implies federation")
    }

    fn peer(&self, index: usize) -> &Peer {
        &self.federation().peers[index]
    }

    /// Runs `f` on the link to wherever `target` lives.
    fn link<R>(&self, target: Target, f: impl FnOnce(&Link) -> R) -> R {
        match target {
            Target::Node(index) => f(&self.membership.node(index).link),
            Target::Peer(index) => f(&self.peer(index).link),
        }
    }

    /// A data-path transport failure against `target` (a failed send, a
    /// dropped connection, a draining refusal — stronger evidence than a
    /// missed probe): drops the data connection and ejects.
    fn data_failed(&self, target: Target, why: &NetError, now: Instant) {
        self.link(target, |link| {
            if link.data_failed(now, self.config.probation) {
                event!(Severity::Warn, "gw.failover", "ejected {}: {why}", link.addr);
            }
        });
        self.publish_gauges();
    }
}

impl Cluster for GatewayInner {
    fn route(&self, key: u64, tried: &[usize]) -> Option<usize> {
        let _route = span!("gw.route");
        router::route(key, &self.membership.healthy_candidates(tried))
    }

    fn pick_peer(&self, tried: &[String]) -> Option<usize> {
        self.peers.as_ref()?.pick(tried).map(|(index, _)| index)
    }

    fn peer_identity(&self, peer: usize) -> String {
        self.peer(peer).addr.clone()
    }

    fn is_live(&self, target: Target) -> bool {
        self.link(target, Link::is_healthy)
    }

    fn hedge_p99(&self, node: usize) -> Option<Duration> {
        let hedge = &self.config.hedge;
        let rtt = hedge.enabled.then(|| self.membership.node(node).rtt.snapshot())?;
        (rtt.count >= hedge.min_samples).then(|| rtt.quantile(0.99))
    }
}

/// A duplicate or abandoned in-flight attempt whose verdict must still
/// be accounted for (see the conservation notes in the module docs).
struct Loser {
    attempt: Attempt<PendingVerdict>,
    task: TaskId,
    /// When the reaper stops waiting for the verdict.
    give_up: Instant,
}

/// How often the reaper sweeps the losers it holds.
const REAP_SWEEP: Duration = Duration::from_millis(1);

/// Waits up to `wait` for a loser's verdict and reports whether it
/// arrived; an admitted duplicate is departed where it was admitted —
/// node or peer cluster — so no capacity leaks.
fn reaped(inner: &GatewayInner, loser: &Loser, wait: Duration) -> bool {
    let Some(verdict) = loser.attempt.verdict.poll_wait(wait) else { return false };
    if let Ok(Outcome::Admitted { .. }) = verdict {
        if let Ok(client) = inner.link(loser.attempt.target, Link::data) {
            let _ = client.depart(loser.task);
        }
    }
    true
}

/// The `gw-reaper` thread: holds every loser handed to it and sweeps
/// them all, so each is departed as soon as its own verdict lands — a
/// loser on a hung node delays no other. Blocks on the channel while it
/// holds none; once drain closes the channel, waits out the rest.
fn reaper_loop(inner: &GatewayInner, losers: &Receiver<Loser>) {
    let mut held: Vec<Loser> = Vec::new();
    loop {
        let next = if held.is_empty() {
            losers.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            losers.recv_timeout(REAP_SWEEP)
        };
        match next {
            Ok(loser) => held.push(loser),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        held.retain(|loser| !reaped(inner, loser, Duration::ZERO) && now < loser.give_up);
    }
    for loser in &held {
        reaped(inner, loser, loser.give_up.saturating_duration_since(Instant::now()));
    }
}

/// A pending cluster verdict: the gateway's [`VerdictHandle`], and the
/// driver of one [`Ticket`] — it owns the clock and the sockets the
/// engine does without. Resolution happens lazily inside
/// [`VerdictHandle::poll`], [`VerdictHandle::wait`] and
/// [`VerdictHandle::wait_timeout`], on the caller's thread, and runs the
/// same steps under all three.
struct GwPending {
    inner: Arc<GatewayInner>,
    /// The handle has one owner (`dyn VerdictHandle` is `Send`, not
    /// `Sync`), so the ticket needs no lock.
    state: RefCell<GwTicket>,
    /// Rung by every attempt, hedges and failovers included, once a
    /// polling holder hands it over ([`VerdictHandle::ring_on_resolve`]).
    bell: OnceCell<Bell>,
}

/// A ticket whose attempts are wire requests.
type GwTicket = Ticket<PendingVerdict>;

impl GwPending {
    /// Sends the task to `target` with the *remaining* deadline budget:
    /// a `Submit` to a node, or a `Forward` to a peer carrying the wire
    /// tried-set and one hop fewer. A failed send leaves the slot empty
    /// and the target ejected, and [`Ticket::next`] re-routes.
    fn launch(inner: &GatewayInner, st: &mut GwTicket, now: Instant, target: Target, hedge: bool) {
        let failover = st.begin_launch(target, hedge, inner);
        if let Some(ins) = &inner.instruments {
            if hedge {
                ins.hedges.inc();
            } else if failover {
                ins.failover.inc();
            }
        }
        let remaining = Some(st.deadline.saturating_duration_since(now));
        let sent = inner.link(target, Link::data).and_then(|client| match target {
            Target::Node(_) => client.submit_borrowed(&st.task, &st.options, remaining),
            Target::Peer(_) => {
                let (origin, tried) = st.forward_header(&inner.federation().identity);
                client.forward(&st.task, &st.options, remaining, st.fwd_hops - 1, &origin, &tried)
            }
        });
        match sent {
            Ok(pv) => {
                if let Target::Peer(index) = target {
                    inner.forwards.fetch_add(1, Ordering::Relaxed);
                    if let Some(ins) = &inner.instruments {
                        ins.forwards.inc();
                    }
                    let peer = inner.peer(index);
                    event!(Severity::Info, "gw.federation", "forwarded {:?} to {}", st.task.id, peer.addr);
                }
                *st.slot(hedge) = Some(Attempt { target, verdict: pv, started: now, is_hedge: hedge });
            }
            Err(err) => inner.data_failed(target, &err, now),
        }
    }

    /// Hands an outstanding attempt to the reaper thread, which departs
    /// it iff its verdict still surfaces as an admission (reaped inline
    /// once that thread is gone, i.e. during drain).
    fn abandon(inner: &GatewayInner, st: &GwTicket, attempt: Attempt<PendingVerdict>) {
        let give_up = st.deadline + inner.config.verdict_grace + Duration::from_millis(10);
        let loser = Loser { attempt, task: st.task.id, give_up };
        let unsent = match inner.reaper_tx.lock().expect("reaper tx lock poisoned").as_ref() {
            Some(tx) => tx.send(loser).map_err(|e| e.0).err(),
            None => Some(loser),
        };
        if let Some(loser) = unsent {
            reaped(inner, &loser, loser.give_up.saturating_duration_since(Instant::now()));
        }
    }

    /// Books the final verdict: abandons every other outstanding attempt,
    /// counts the verdict on the gateway ledger (conservation is
    /// per-gateway: a forwarded ticket still resolves exactly one verdict
    /// here, while the peer counts its own submit + verdict on its own
    /// ledger) and records where an admission lives so a later depart
    /// reaches it. `won` is the attempt that delivered the verdict
    /// (`None` for one the gateway synthesized).
    fn settle(
        inner: &GatewayInner,
        st: &mut GwTicket,
        outcome: Outcome,
        won: Option<&Attempt<PendingVerdict>>,
    ) {
        for attempt in st.primary.take().into_iter().chain(st.hedge.take()) {
            Self::abandon(inner, st, attempt);
        }
        if let (Outcome::Admitted { .. }, Some(won)) = (outcome, won) {
            inner.routes.lock().expect("routes lock poisoned").insert(st.task.id, won.target);
            match (won.target, &inner.instruments) {
                (Target::Peer(_), ins) => {
                    inner.forward_wins.fetch_add(1, Ordering::Relaxed);
                    if let Some(ins) = ins {
                        ins.forward_wins.inc();
                    }
                }
                (Target::Node(_), Some(ins)) if won.is_hedge => ins.hedge_wins.inc(),
                (Target::Node(_), _) => {}
            }
        }
        inner.metrics.book(&outcome, st.born.elapsed());
        st.done = Some(outcome);
    }

    /// Handles a completed attempt: the engine decides whether its
    /// verdict settles the ticket, the driver books what the result says
    /// about the target's health.
    fn absorb(inner: &GatewayInner, st: &mut GwTicket, hedge: bool, result: Result<Outcome, NetError>) {
        let now = Instant::now();
        let (attempt, settled) = st.absorb(hedge, result.as_ref().ok().copied(), inner);
        match (attempt.target, &result) {
            (Target::Node(index), Ok(_)) => {
                inner.membership.node(index).rtt.record(now.saturating_duration_since(attempt.started));
            }
            (Target::Peer(_), Ok(_)) => {}
            // Node-local request failure (e.g. a chaos-killed worker):
            // retry elsewhere, leave node health to the prober.
            (Target::Node(_), Err(NetError::Server(e))) if e.code != ErrorCode::Draining => {}
            // The remote refused deliberately (draining) or died
            // mid-request: stop routing to it.
            (target, Err(err)) => inner.data_failed(target, err, now),
        }
        if let Some(outcome) = settled {
            Self::settle(inner, st, outcome, Some(&attempt));
        }
    }

    /// Runs the ticket: asks the engine for the next step and executes
    /// it until the ticket settles or a wait reaches `bound` from now,
    /// which gives the caller back an unresolved `None`. A zero bound is
    /// a poll and no bound a blocking wait; every ticket still resolves
    /// by deadline + grace.
    fn resolve(&self, bound: Option<Duration>) -> Option<Outcome> {
        let inner = &*self.inner;
        let st = &mut *self.state.borrow_mut();
        let mut now = Instant::now();
        let limit = bound.map(|b| now + b);
        while st.done.is_none() {
            match st.next(now, inner.config.verdict_grace, inner) {
                Next::Abandon { hedge } => {
                    let attempt = st.abandon(hedge);
                    Self::abandon(inner, st, attempt);
                }
                Next::Launch { target, hedge } => {
                    Self::launch(inner, st, now, target, hedge);
                    if let (Some(bell), Some(attempt)) = (self.bell.get(), st.slot(hedge).as_ref()) {
                        attempt.verdict.ring_on_resolve(bell);
                    }
                }
                Next::Settle(outcome) => Self::settle(inner, st, outcome, None),
                Next::Wait { hedge, until } => {
                    let bounded = limit.filter(|l| *l <= until);
                    let attempt = st.slot(hedge).as_ref().expect("a wait names an attempt in flight");
                    match attempt.verdict.poll_wait(bounded.unwrap_or(until).saturating_duration_since(now)) {
                        Some(result) => Self::absorb(inner, st, hedge, result),
                        None if bounded.is_some() => return None,
                        None => {}
                    }
                }
            }
            now = Instant::now();
        }
        st.done
    }
}

impl Drop for GwPending {
    /// A ticket dropped unresolved still owes its one verdict: it
    /// settles `Expired`, which hands whatever is in flight to the
    /// reaper. (Dropped after [`Gateway::drain`], with the reaper gone,
    /// that reaping runs inline, on the dropping thread.)
    fn drop(&mut self) {
        let st = self.state.get_mut();
        if st.done.is_none() {
            Self::settle(&self.inner, st, Outcome::Expired { shard: 0 }, None);
        }
    }
}

impl VerdictHandle for GwPending {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        self.resolve(Some(Duration::ZERO)).map(Ok)
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        self.resolve(None).ok_or(VerdictError::Lost)
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        self.resolve(Some(timeout)).ok_or(VerdictError::TimedOut)
    }

    /// Also rings at once, so the holder's next poll takes whatever step
    /// is due before any reply lands.
    fn ring_on_resolve(&self, bell: &Bell) {
        let _ = self.bell.set(Arc::clone(bell));
        let st = self.state.borrow();
        for attempt in st.primary.iter().chain(&st.hedge) {
            attempt.verdict.ring_on_resolve(bell);
        }
        bell();
    }
}

/// A cluster frontend over a pool of backend serve nodes.
///
/// See the crate docs for the architecture; in one line: weighted
/// rendezvous routing over health-checked nodes, failover with the
/// remaining deadline budget, optional deadline-aware hedging, and a
/// conservation ledger equivalent to a single node's.
pub struct Gateway {
    inner: Arc<GatewayInner>,
    monitor: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    /// Dropping this stops the health monitor.
    shutdown_tx: Option<Sender<()>>,
}

/// Process-wide gateway incarnation stamps (sent in `PeerHello` frames).
static GW_INCARNATION: AtomicU64 = AtomicU64::new(1);

impl Gateway {
    /// Starts a gateway over `addrs` (each the address of a running
    /// `offloadnn-net` frontend). Nodes start healthy with weight 1 and
    /// are dialled lazily; the first health sweep corrects both.
    ///
    /// # Errors
    ///
    /// [`GatewayError::NoNodes`] for an empty pool,
    /// [`GatewayError::InvalidConfig`] from config validation.
    pub fn start(addrs: &[SocketAddr], config: GatewayConfig) -> Result<Self, GatewayError> {
        config.validate()?;
        if addrs.is_empty() {
            return Err(GatewayError::NoNodes);
        }
        let membership = Membership::new(addrs);
        let (reaper_tx, reaper_rx) = channel::unbounded();
        let peers = config.federation.as_ref().map(|fed| PeerSet::new(&fed.peers, fed.identity.clone()));
        let inner = Arc::new(GatewayInner {
            membership,
            config,
            metrics: ServiceMetrics::new(),
            draining: AtomicBool::new(false),
            routes: Mutex::new(HashMap::new()),
            peers,
            incarnation: GW_INCARNATION.fetch_add(1, Ordering::Relaxed),
            forwards: AtomicU64::new(0),
            forward_wins: AtomicU64::new(0),
            reaper_tx: Mutex::new(Some(reaper_tx)),
            instruments: GwInstruments::new(),
        });
        inner.publish_gauges();
        let (shutdown_tx, shutdown_rx) = channel::bounded::<()>(1);
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gw-health".into())
                .spawn(move || health::monitor_loop(&inner, &shutdown_rx))
                .expect("spawn gw-health thread")
        };
        let reaper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gw-reaper".into())
                .spawn(move || reaper_loop(&inner, &reaper_rx))
                .expect("spawn gw-reaper thread")
        };
        Ok(Self { inner, monitor: Some(monitor), reaper: Some(reaper), shutdown_tx: Some(shutdown_tx) })
    }

    /// Nodes currently eligible for routing.
    pub fn healthy_nodes(&self) -> usize {
        self.inner.membership.healthy_count()
    }

    /// The pool size including probing, ejected and departed members
    /// (the pool is append-only; see [`crate::membership`]).
    pub fn pool_size(&self) -> usize {
        self.inner.membership.len()
    }

    /// The cluster view as it travels in a membership frame.
    pub fn members(&self) -> Vec<MemberInfo> {
        self.inner.membership.members()
    }

    /// Monotonic membership change counter (bumped per applied
    /// join/restart/leave).
    pub fn membership_version(&self) -> u64 {
        self.inner.membership.version()
    }

    /// Applies a node's announce (an `Announce` frame, or
    /// called directly in-process). A new address joins in `Probing` —
    /// invisible to routing until a health probe succeeds; a strictly
    /// newer incarnation of a known address re-enters `Probing`;
    /// duplicates and stale incarnations are ignored. See
    /// [`crate::membership`] for the ordering rules.
    pub fn announce(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        let outcome = self.inner.membership.announce(addr, incarnation);
        let decision = match outcome {
            AnnounceOutcome::Joined | AnnounceOutcome::Restarted => {
                if let Some(ins) = &self.inner.instruments {
                    ins.joins.inc();
                }
                event!(Severity::Info, "gw.membership", "announce {addr} inc {incarnation}: {outcome:?}");
                MembershipDecision::Accepted
            }
            AnnounceOutcome::Duplicate => MembershipDecision::Duplicate,
            AnnounceOutcome::Stale => MembershipDecision::Stale,
        };
        self.inner.publish_gauges();
        MembershipAck { decision, members: self.inner.membership.members() }
    }

    /// Applies a node's graceful leave (a `Leave` frame, or
    /// called directly in-process). The node departs iff the incarnation
    /// is at least its registered stamp; in-flight tickets against it
    /// fail over to survivors with their remaining deadline budget, and
    /// a later replay of its old announce cannot resurrect it.
    pub fn leave(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        let before = self.inner.membership.version();
        let outcome = self.inner.membership.leave(addr, incarnation);
        let decision = match outcome {
            LeaveOutcome::Departed => {
                // Count only the first, applied leave — the version
                // bumps exactly then.
                if self.inner.membership.version() != before {
                    if let Some(ins) = &self.inner.instruments {
                        ins.leaves.inc();
                    }
                    event!(Severity::Info, "gw.membership", "leave {addr} inc {incarnation}");
                }
                MembershipDecision::Accepted
            }
            LeaveOutcome::Stale | LeaveOutcome::Unknown => MembershipDecision::Stale,
        };
        self.inner.publish_gauges();
        MembershipAck { decision, members: self.inner.membership.members() }
    }

    /// Point-in-time snapshot of the gateway's own ledger.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// The one submit path, for both local submits (`forwarded` `None`)
    /// and tasks arriving via a `Forward` frame (`forwarded`
    /// carries the origin identity, remaining hops and tried-set).
    fn submit_inner(
        &self,
        task: Task,
        options: Vec<PathOption>,
        budget: Option<Duration>,
        forwarded: Option<ForwardInfo>,
    ) -> Result<offloadnn_serve::PendingVerdict, SubmitError> {
        // Invalid requests are refused here, not on a node: a node's
        // refusal reads as "retry elsewhere", which would walk one hostile
        // request over the fleet. A forwarded task's budget is the
        // *remaining* budget its origin put on the wire, clamped the same
        // way.
        let policy = self.inner.config.default_deadline;
        let budget = admission_budget(self.is_draining(), &task, &options, budget, policy)?;
        self.inner.metrics.submitted.inc();
        let now = Instant::now();
        // Federation seeds: a local ticket may take `HOP_LIMIT` hops and
        // has visited no cluster. A forwarded one inherits the sender's
        // tried-set (so re-forwarding only reaches clusters the task has
        // never seen) and the tighter of the hop count on the wire —
        // outside input — and what `HOP_LIMIT` leaves after the hop that
        // brought it here, the rule deadlines follow. (At `HOP_LIMIT` = 1
        // that clamp is the constant 0, hence the allow.)
        #[allow(clippy::unnecessary_min_or_max)]
        let (fwd_hops, origin, tried_peers) = match forwarded {
            Some(info) => (info.hops.min(HOP_LIMIT - 1), Some(info.origin), info.tried),
            None => (HOP_LIMIT, None, Vec::new()),
        };
        let id = task.id;
        let inner = &*self.inner;
        let mut st = Ticket::new(task, options, now, now + budget, fwd_hops, origin, tried_peers);
        // Launch eagerly so tickets pipeline: the submit — or, with no
        // routable node, the forward — is on the wire when this returns,
        // and `wait` only collects (or fails over).
        let grace = inner.config.verdict_grace;
        while let Next::Launch { target, hedge } = st.next(Instant::now(), grace, inner) {
            GwPending::launch(inner, &mut st, Instant::now(), target, hedge);
        }
        let pending =
            GwPending { inner: Arc::clone(&self.inner), state: RefCell::new(st), bell: OnceCell::new() };
        Ok(offloadnn_serve::PendingVerdict::new(id, Box::new(pending)))
    }

    /// Always-on federation counters (see [`ForwardStats`]); zero for a
    /// non-federated gateway.
    pub fn forward_stats(&self) -> ForwardStats {
        ForwardStats {
            forwards: self.inner.forwards.load(Ordering::Relaxed),
            forward_wins: self.inner.forward_wins.load(Ordering::Relaxed),
        }
    }

    /// Federated peers currently answering probes (zero without
    /// federation).
    pub fn healthy_peers(&self) -> usize {
        self.inner.peers.as_ref().map_or(0, PeerSet::healthy_count)
    }

    /// Drains the gateway: stops the monitor, lets the reaper finish
    /// deduplicating, and reports the gateway's final ledger. The
    /// *backend nodes are not drained* — the gateway routes to them but
    /// does not own their lifecycle.
    pub fn drain(mut self) -> DrainReport {
        self.begin_drain();
        self.stop_threads();
        DrainReport {
            metrics: self.inner.metrics.snapshot(),
            shards: Vec::new(),
            retired: Vec::new(),
            lost_shards: 0,
            plan_cache: None,
        }
    }

    /// Stops and joins the monitor and reaper threads; idempotent (drain
    /// runs it, then `Drop` finds nothing left).
    fn stop_threads(&mut self) {
        drop(self.shutdown_tx.take());
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        // Disconnect the reaper only after the monitor is gone: every
        // ticket has resolved by the time a frontend calls drain, so no
        // new losers can arrive (a dropped gateway's late losers are
        // reaped inline).
        *self.inner.reaper_tx.lock().expect("reaper tx lock poisoned") = None;
        if let Some(handle) = self.reaper.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("membership", &self.inner.membership)
            .field("draining", &self.is_draining())
            .finish_non_exhaustive()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // A dropped (not drained) gateway must not leave threads parked
        // forever.
        self.stop_threads();
    }
}

impl Admitter for Gateway {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<offloadnn_serve::PendingVerdict, SubmitError> {
        self.submit_inner(task, options, deadline, None)
    }

    /// Forwards a departure to wherever the task was admitted — a local
    /// backend node, or (for a forwarded-then-admitted task) the peer
    /// gateway whose cluster took it, so the work departs on exactly one
    /// cluster. A no-op for tasks the gateway never admitted.
    fn depart(&self, task: TaskId) {
        let route = self.inner.routes.lock().expect("routes lock poisoned").remove(&task);
        let client = route.and_then(|target| self.inner.link(target, Link::data).ok());
        if client.is_some_and(|c| c.depart(task).is_ok()) {
            self.inner.metrics.departed.inc();
        }
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(Gateway::metrics(self))
    }

    /// Stops accepting submits (already-issued tickets still resolve).
    fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    fn tier(&self) -> &'static str {
        "gateway"
    }
}

impl Backend for Gateway {
    fn is_draining(&self) -> bool {
        Gateway::is_draining(self)
    }

    /// Broadcasts a reshard to every healthy node; the report aggregates
    /// the per-node responses (summed migrations, max generation).
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`] after drain began;
    /// [`ServeError::InvalidConfig`] for a zero target or when no
    /// healthy node accepted the reshard.
    fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        if shards == 0 {
            return Err(ServeError::InvalidConfig("gateway scale target must be at least one shard"));
        }
        let target =
            u32::try_from(shards).map_err(|_| ServeError::InvalidConfig("scale target too large"))?;
        let mut report: Option<ReshardReport> = None;
        for node in self.inner.membership.snapshot().iter().filter(|n| n.link.is_healthy()) {
            match node.link.control().and_then(|c| c.scale_to(target)) {
                Ok(r) => {
                    let agg = report.get_or_insert(ReshardReport {
                        from_shards: r.from_shards as usize,
                        to_shards: shards,
                        migrated: 0,
                        generation: 0,
                    });
                    agg.migrated += r.migrated;
                    agg.generation = agg.generation.max(r.generation);
                }
                Err(_) => node.link.control_failed(),
            }
        }
        match report {
            Some(r) => {
                self.inner.metrics.reshards.inc();
                self.inner.metrics.migrated.add(r.migrated);
                self.inner.metrics.generation.set(r.generation);
                Ok(r)
            }
            None => Err(ServeError::InvalidConfig("no healthy node accepted the reshard")),
        }
    }

    fn announce(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        Gateway::announce(self, addr, incarnation)
    }

    fn leave(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        Gateway::leave(self, addr, incarnation)
    }

    fn forward(
        &self,
        task: Task,
        options: Vec<PathOption>,
        budget: Option<Duration>,
        info: ForwardInfo,
    ) -> Result<offloadnn_serve::PendingVerdict, SubmitError> {
        self.submit_inner(task, options, budget, Some(info))
    }

    fn peer_load(&self, peer_addr: &str, peer_incarnation: u64) -> Option<PeerDigest> {
        // Any gateway can answer a digest, federated or not (a
        // non-federated gateway simply never *sends* one). The digest is
        // the overflow picker's ranking signal on the asking side:
        // healthy-node count and aggregate routing weight say how much
        // capacity is here, the verdict-latency p50 says how fast this
        // cluster answers, and the membership version tells the asker
        // when this cluster's pool changed.
        event!(Severity::Info, "gw.federation", "digest for peer {peer_addr} inc {peer_incarnation}");
        let remaining_budget: f64 =
            self.inner.membership.healthy_candidates(&[]).iter().map(|c| c.weight).sum();
        let round_ms_p50 = self.inner.metrics.latency.snapshot().quantile(0.5).as_secs_f64() * 1e3;
        Some(PeerDigest {
            healthy_nodes: u32::try_from(self.inner.membership.healthy_count()).unwrap_or(u32::MAX),
            remaining_budget,
            round_ms_p50,
            epoch: self.inner.membership.version(),
        })
    }

    fn ledger(&self) -> MetricsSnapshot {
        Gateway::metrics(self)
    }

    fn drain(self) -> DrainReport {
        Gateway::drain(self)
    }
}

/// An arbitrary instant for the clock-free modules' unit tests to
/// offset: only the drivers read the clock, even under test.
#[cfg(test)]
pub(crate) fn test_epoch() -> Instant {
    Instant::now()
}
