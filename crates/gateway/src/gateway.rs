//! The gateway proper: the node pool, the submit path with failover and
//! hedging, and the [`Admitter`] + [`Backend`] implementations that put
//! the whole cluster tier behind a driver or an `offloadnn-net` frontend.
//!
//! # Verdict conservation
//!
//! The gateway maintains the same invariant its backends do: every
//! counted submit resolves to exactly one of admitted / rejected / shed
//! / expired ([`offloadnn_serve::MetricsSnapshot::is_conserved`]).
//! Cluster-level events map onto the verdict classes:
//!
//! * a ticket that exhausts its retry budget ([`RETRY_LIMIT`] attempts),
//!   or finds no healthy node, resolves **Shed** (cluster backpressure);
//! * a ticket whose deadline (plus `verdict_grace`) passes before any
//!   backend answers resolves **Expired**;
//! * everything else relays the winning backend verdict verbatim.
//!
//! Hedging introduces *duplicate* backend submits, which threatens
//! double-counting: the dedup rule is that exactly one attempt — the
//! first to deliver a verdict — settles the ticket, and every other
//! outstanding attempt is handed to the reaper, which waits out its
//! verdict and sends a [`offloadnn_net::Client::depart`] iff the loser
//! was *admitted* on its node. So the cluster-wide ledger stays
//! balanced: the winner's admission is owned by the caller (departed via
//! [`Gateway`] depart like any admission), the loser's admission is
//! departed by the reaper, and loser rejections/sheds/expiries need no
//! compensation. Synthesized gateway verdicts carry `shard: 0`.

use crate::config::{GatewayConfig, GatewayError};
use crate::health;
use crate::instruments::GwInstruments;
use crate::membership::{AnnounceOutcome, LeaveOutcome, Membership};
use crate::peer::{self, PeerSet};
use crate::router::{self, Candidate};
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use offloadnn_net::codec::ErrorCode;
use offloadnn_net::{
    Backend, ForwardInfo, MemberInfo, MembershipAck, MembershipDecision, NetError, PeerDigest, PendingVerdict,
};
use offloadnn_serve::{
    Admitter, DrainReport, MetricsSnapshot, Outcome, ReshardReport, ServeError, ServiceMetrics, SubmitError,
    VerdictError, VerdictHandle,
};
use offloadnn_telemetry::{event, span, Severity};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Polling slice while racing two in-flight attempts (no `select` over
/// verdict channels, so the ticket alternates bounded waits).
const RACE_SLICE: Duration = Duration::from_micros(500);

/// Maximum submit attempts per ticket across failovers (the first
/// attempt counts, so `3` means the primary plus two retries).
const RETRY_LIMIT: u32 = 3;

/// Maximum forward hops a task may take from the gateway it was first
/// submitted to (1 = direct peers only). A forwarded-in task carries the
/// sender's remaining hop count, clamped to this limit less the hop it
/// already took.
const HOP_LIMIT: u8 = 1;

/// Where an admitted task lives, so its depart routes back there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Admitted on a local backend node (pool index).
    Node(usize),
    /// Admitted on a federated peer's cluster (peer index) after an
    /// overflow forward.
    Peer(usize),
}

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
    routes: Mutex<HashMap<TaskId, Route>>,
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
    /// Routable candidates: healthy nodes minus the `exclude`d indices.
    fn healthy_candidates(&self, exclude: &[usize]) -> Vec<Candidate> {
        self.membership.healthy_candidates(exclude)
    }

    /// Publishes the `gw.nodes.healthy` and `gw.membership.size` gauges.
    pub(crate) fn publish_membership_gauges(&self) {
        if let Some(ins) = &self.instruments {
            ins.nodes_healthy.set(self.membership.healthy_count() as u64);
            ins.membership_size.set(self.membership.len() as u64);
        }
    }

    /// Ejects a node from the data path (dropped connection or failed
    /// send — stronger evidence than a missed probe).
    fn eject_node(&self, index: usize, why: &NetError) {
        let node = self.membership.node(index);
        if node.eject(self.config.probation) {
            event!(Severity::Warn, "gw.failover", "ejected {}: {why}", node.addr);
        }
        self.publish_membership_gauges();
    }

    /// Publishes the `gw.peers.healthy` gauge.
    pub(crate) fn publish_peer_gauges(&self) {
        if let (Some(ins), Some(peers)) = (&self.instruments, &self.peers) {
            ins.peers_healthy.set(peers.healthy_count() as u64);
        }
    }

    /// Counts an overflow forward handed to a peer.
    fn count_forward(&self) {
        self.forwards.fetch_add(1, Ordering::Relaxed);
        if let Some(ins) = &self.instruments {
            ins.forwards.inc();
        }
    }

    /// Counts a forwarded ticket the peer admitted.
    fn count_forward_win(&self) {
        self.forward_wins.fetch_add(1, Ordering::Relaxed);
        if let Some(ins) = &self.instruments {
            ins.forward_wins.inc();
        }
    }

    /// Hands a losing attempt to the reaper thread (inline once the
    /// reaper is gone, i.e. during drain).
    fn hand_to_reaper(&self, loser: Loser) {
        let sent = {
            let guard = self.reaper_tx.lock().expect("reaper tx lock poisoned");
            match guard.as_ref() {
                Some(tx) => tx.send(loser).map_err(|e| e.0).err(),
                None => Some(loser),
            }
        };
        if let Some(loser) = sent {
            reap(self, &loser);
        }
    }
}

/// A duplicate or abandoned in-flight attempt whose verdict must still
/// be accounted for (see the conservation notes in the module docs).
struct Loser {
    node: usize,
    task: TaskId,
    pv: PendingVerdict,
    /// How long the reaper waits for the verdict before giving up.
    deadline: Instant,
}

/// Waits out a loser's verdict; an admitted duplicate is departed on its
/// node so the cluster doesn't leak the capacity.
fn reap(inner: &GatewayInner, loser: &Loser) {
    let wait = loser.deadline.saturating_duration_since(Instant::now()) + Duration::from_millis(10);
    if let Some(Ok(Outcome::Admitted { .. })) = loser.pv.poll_wait(wait) {
        if let Ok(client) = inner.membership.node(loser.node).client.get() {
            let _ = client.depart(loser.task);
        }
    }
}

/// The reaper thread body: drains losers until the gateway closes the
/// channel at drain time.
fn reaper_loop(inner: &Arc<GatewayInner>, rx: &Receiver<Loser>) {
    while let Ok(loser) = rx.recv() {
        reap(inner, &loser);
    }
}

/// One in-flight backend submit owned by a [`GwPending`].
struct Attempt {
    node: usize,
    pv: PendingVerdict,
    started: Instant,
    is_hedge: bool,
}

/// What [`GwPending::launch`] did.
enum Launch {
    /// An attempt is in flight.
    Launched,
    /// No healthy untried node remains.
    NoCandidate,
    /// The send failed (the node was ejected); the caller retries.
    Failed,
}

/// Mutable ticket state behind the [`GwPending`] lock.
struct PendState {
    task: Task,
    options: Vec<PathOption>,
    born: Instant,
    deadline: Instant,
    /// Failover submits launched (hedges excluded); bounded by
    /// [`RETRY_LIMIT`].
    attempts: u32,
    /// Node indices already attempted (never re-tried for this ticket).
    tried: Vec<usize>,
    primary: Option<Attempt>,
    hedge: Option<Attempt>,
    /// The one-shot hedge has fired (or been forfeited).
    hedged: bool,
    /// Forward hops this ticket may still take (0 = must resolve here).
    fwd_hops: u8,
    /// The originating gateway's identity when this ticket arrived via a
    /// `Forward` frame; `None` for locally submitted tickets.
    origin: Option<String>,
    /// Gateway identities this task has already visited (seeded from the
    /// incoming `Forward` frame's tried-set, grown per forward attempt);
    /// a cluster in this set is never forwarded to again.
    tried_peers: Vec<String>,
    /// A node relayed Shed during a *non-blocking* poll: the verdict was
    /// consumed but settling is deferred so the next blocking wait can
    /// try an overflow forward first (dialling a peer must not happen on
    /// the poll path).
    shed_pending: bool,
    done: Option<Outcome>,
}

/// A pending cluster verdict: the gateway-side analogue of
/// [`offloadnn_serve::Ticket`]. Resolution (including failover retries
/// and hedging) happens lazily inside [`VerdictHandle::wait`] /
/// [`VerdictHandle::poll`], on the caller's thread.
struct GwPending {
    inner: Arc<GatewayInner>,
    state: Mutex<PendState>,
}

impl GwPending {
    /// Routes and launches one backend submit. `poll` never calls this
    /// (dialling blocks); `wait` does.
    fn launch(&self, st: &mut PendState, now: Instant, is_hedge: bool) -> Launch {
        let pick = {
            let _route = span!("gw.route");
            router::route(u64::from(st.task.id.0), &self.inner.healthy_candidates(&st.tried))
        };
        let Some(index) = pick else {
            return Launch::NoCandidate;
        };
        st.tried.push(index);
        if is_hedge {
            st.hedged = true;
            if let Some(ins) = &self.inner.instruments {
                ins.hedges.inc();
            }
        } else {
            if st.attempts > 0 {
                // A prior attempt failed and this ticket moves to a
                // survivor with whatever deadline budget remains.
                if let Some(ins) = &self.inner.instruments {
                    ins.failover.inc();
                }
            }
            st.attempts += 1;
        }
        let remaining = st.deadline.saturating_duration_since(now);
        let node = self.inner.membership.node(index);
        match node.client.get().and_then(|c| c.submit_borrowed(&st.task, &st.options, Some(remaining))) {
            Ok(pv) => {
                let attempt = Attempt { node: index, pv, started: now, is_hedge };
                if is_hedge {
                    st.hedge = Some(attempt);
                } else {
                    st.primary = Some(attempt);
                }
                Launch::Launched
            }
            Err(err) => {
                self.inner.eject_node(index, &err);
                Launch::Failed
            }
        }
    }

    /// Whether the deadline-aware hedger should fire now: the primary
    /// node's observed p99 (once trustworthy) projects past the
    /// ticket's deadline, i.e. waiting out another p99 would blow it.
    fn hedge_due(&self, st: &PendState, now: Instant) -> bool {
        let config = &self.inner.config;
        if !self.could_hedge(st) {
            return false;
        }
        let Some(primary) = &st.primary else {
            return false;
        };
        let rtt = self.inner.membership.node(primary.node).rtt.snapshot();
        if rtt.count < config.hedge.min_samples {
            return false;
        }
        now + rtt.quantile(0.99) >= st.deadline
    }

    /// Hands an outstanding attempt to the reaper, which departs it iff
    /// its verdict still surfaces as an admission.
    fn abandon(&self, st: &PendState, attempt: Attempt) {
        self.inner.hand_to_reaper(Loser {
            node: attempt.node,
            task: st.task.id,
            pv: attempt.pv,
            deadline: st.deadline + self.inner.config.verdict_grace,
        });
    }

    /// Books the final verdict: abandons every other outstanding attempt,
    /// counts the verdict on the gateway ledger (conservation is
    /// per-gateway: a forwarded ticket still resolves exactly one verdict
    /// here, while the peer counts its own submit + verdict on its own
    /// ledger) and records where an admission lives so a later depart
    /// reaches it. `route` is who delivered the verdict (`None` for one
    /// the gateway synthesized).
    fn settle(&self, st: &mut PendState, outcome: Outcome, route: Option<Route>, hedge_won: bool) -> Outcome {
        for attempt in st.primary.take().into_iter().chain(st.hedge.take()) {
            self.abandon(st, attempt);
        }
        let metrics = &self.inner.metrics;
        match outcome {
            Outcome::Admitted { .. } => {
                metrics.admitted.inc();
                if let Some(route) = route {
                    self.inner.routes.lock().expect("routes lock poisoned").insert(st.task.id, route);
                    match (route, &self.inner.instruments) {
                        (Route::Peer(_), _) => self.inner.count_forward_win(),
                        (Route::Node(_), Some(ins)) if hedge_won => ins.hedge_wins.inc(),
                        (Route::Node(_), _) => {}
                    }
                }
            }
            Outcome::Rejected { .. } => metrics.rejected.inc(),
            Outcome::Shed { .. } => metrics.shed.inc(),
            Outcome::Expired { .. } => metrics.expired.inc(),
        }
        metrics.latency.record(st.born.elapsed());
        st.done = Some(outcome);
        outcome
    }

    /// Whether an overflow forward could still rescue this ticket: the
    /// gateway is federated, hops remain, and an untried live peer
    /// exists. Cheap (no I/O) — used to decide between shedding now and
    /// deferring to a blocking wait that can actually forward.
    fn could_forward(&self, st: &PendState) -> bool {
        match &self.inner.peers {
            Some(peers) => st.fwd_hops > 0 && peers.pick(&st.tried_peers).is_some(),
            None => false,
        }
    }

    /// Attempts to rescue a ticket the local cluster would shed by
    /// forwarding it to the least-loaded untried peer with the
    /// *remaining* deadline budget. `Some(outcome)` settled the ticket
    /// with the peer's verdict (counted on this gateway's ledger — a
    /// forwarded ticket still resolves exactly one verdict at its
    /// origin); `None` means no peer could take it — federation off, no
    /// hops or budget left, every eligible peer tried, or the chosen
    /// peer crashed mid-forward — and the caller sheds locally.
    fn try_forward(&self, st: &mut PendState) -> Option<Outcome> {
        let peers = self.inner.peers.as_ref()?;
        if st.fwd_hops == 0 {
            return None;
        }
        loop {
            let remaining = st.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (index, chosen) = peers.pick(&st.tried_peers)?;
            st.tried_peers.push(chosen.addr.clone());
            let origin = st.origin.clone().unwrap_or_else(|| peers.identity.clone());
            // The wire tried-set names every cluster this task has
            // touched — this gateway and the origin included — so the
            // receiving peer can never bounce the task back around a
            // cycle, whatever its own peer list looks like.
            let mut tried = st.tried_peers.clone();
            if !tried.contains(&peers.identity) {
                tried.push(peers.identity.clone());
            }
            if !tried.contains(&origin) {
                tried.push(origin.clone());
            }
            let sent = chosen.client.get().and_then(|c| {
                c.forward(&st.task, &st.options, Some(remaining), st.fwd_hops - 1, &origin, &tried)
            });
            match sent {
                Ok(pv) => {
                    self.inner.count_forward();
                    event!(Severity::Info, "gw.federation", "forwarded {:?} to {}", st.task.id, chosen.addr);
                    let horizon = st.deadline + self.inner.config.verdict_grace;
                    let wait = horizon.saturating_duration_since(Instant::now());
                    match pv.poll_wait(wait) {
                        Some(Ok(outcome)) => {
                            return Some(self.settle(st, outcome, Some(Route::Peer(index)), false))
                        }
                        Some(Err(_)) | None => {
                            // The peer died (or went silent) mid-forward:
                            // fall back to a local Shed so the ticket is
                            // never lost to federation. If the peer did
                            // admit before crashing, that admission lives
                            // and dies with the peer's own ledger.
                            chosen.note_forward_failed();
                            return None;
                        }
                    }
                }
                Err(_) => {
                    // Could not even hand the task over; nothing is in
                    // flight there, so the next-best peer may be tried.
                    chosen.note_forward_failed();
                }
            }
        }
    }

    /// Handles a completed attempt. `Some(outcome)` settles the ticket;
    /// `None` means the attempt failed in a retryable way and was
    /// cleared (the resolve loop re-routes), or — for a node-relayed
    /// Shed during a non-blocking poll — settling was deferred behind
    /// `shed_pending` so a blocking wait can try a forward first.
    fn absorb(
        &self,
        st: &mut PendState,
        winner_is_hedge: bool,
        result: Result<Outcome, NetError>,
        block: bool,
    ) -> Option<Outcome> {
        let taken = if winner_is_hedge { st.hedge.take() } else { st.primary.take() };
        let attempt = taken.expect("absorbed attempt must exist");
        match result {
            Ok(outcome) => {
                self.inner.membership.node(attempt.node).rtt.record(attempt.started.elapsed());
                // A node-relayed Shed is the cluster saying "saturated":
                // the one signal overflow forwarding exists for.
                if matches!(outcome, Outcome::Shed { .. }) && self.could_forward(st) {
                    if block {
                        if let Some(out) = self.try_forward(st) {
                            return Some(out);
                        }
                    } else {
                        st.shed_pending = true;
                        return None;
                    }
                }
                Some(self.settle(st, outcome, Some(Route::Node(attempt.node)), attempt.is_hedge))
            }
            Err(err) => {
                match &err {
                    // The node refused deliberately (draining) or died
                    // mid-request: stop routing to it and retry the
                    // ticket elsewhere.
                    NetError::Server(e) if e.code == ErrorCode::Draining => {
                        self.inner.eject_node(attempt.node, &err);
                    }
                    NetError::Server(_) => {
                        // Node-local request failure (e.g. a chaos-killed
                        // worker): retry elsewhere, leave node health to
                        // the prober.
                    }
                    _ => self.inner.eject_node(attempt.node, &err),
                }
                None
            }
        }
    }

    /// The resolution engine. With `block` false this is a cheap poll
    /// (no dialling, no sleeping) that may leave the ticket mid-failover
    /// for the next `wait` to finish. A `limit` bounds how long a
    /// blocking resolve may run before giving the caller back an
    /// unresolved `None` (the [`VerdictHandle::wait_timeout`] contract);
    /// every ticket still resolves by deadline + grace without one.
    fn resolve(&self, block: bool, limit: Option<Instant>) -> Option<Outcome> {
        let mut st = self.state.lock().expect("pending state lock poisoned");
        loop {
            if let Some(done) = st.done {
                return Some(done);
            }
            let now = Instant::now();
            if block && limit.is_some_and(|l| now >= l) {
                return None;
            }
            // A node relayed Shed during an earlier non-blocking poll:
            // the deferred decision — forward or accept the shed — runs
            // now that blocking (and therefore dialling) is allowed.
            if st.shed_pending {
                if !block {
                    return None;
                }
                st.shed_pending = false;
                if let Some(out) = self.try_forward(&mut st) {
                    return Some(out);
                }
                return Some(self.settle(&mut st, Outcome::Shed { shard: 0 }, None, false));
            }
            // An attempt whose node has been ejected (by the health
            // monitor or another ticket's failure) or departed (graceful
            // leave) may never resolve — the connection could be
            // half-dead or the node on its way down. Abandon it to the
            // reaper (which departs it iff a verdict does surface as an
            // admission) and fail over with the remaining budget.
            for is_hedge in [false, true] {
                let slot = if is_hedge { &mut st.hedge } else { &mut st.primary };
                if slot.as_ref().is_some_and(|a| !self.inner.membership.node(a.node).is_healthy()) {
                    let attempt = slot.take().expect("checked above");
                    self.abandon(&st, attempt);
                }
            }
            // Promote a surviving hedge if the primary slot is empty.
            if st.primary.is_none() {
                if let Some(hedge) = st.hedge.take() {
                    st.primary = Some(hedge);
                }
            }
            if st.primary.is_none() {
                // Nothing in flight: either give the ticket its terminal
                // verdict or (blocking mode) launch the next attempt.
                if now >= st.deadline {
                    return Some(self.settle(&mut st, Outcome::Expired { shard: 0 }, None, false));
                }
                if st.attempts >= RETRY_LIMIT {
                    // The local cluster is out of retries: the one exit
                    // that isn't a Shed is an overflow forward to a
                    // federated peer (blocking mode only — a poll defers
                    // the decision to the next wait).
                    if block {
                        if let Some(out) = self.try_forward(&mut st) {
                            return Some(out);
                        }
                    } else if self.could_forward(&st) {
                        return None;
                    }
                    return Some(self.settle(&mut st, Outcome::Shed { shard: 0 }, None, false));
                }
                if !block {
                    return None;
                }
                match self.launch(&mut st, now, false) {
                    Launch::Launched => {}
                    Launch::NoCandidate => {
                        // No healthy local node remains; a federated peer
                        // may still have capacity.
                        if let Some(out) = self.try_forward(&mut st) {
                            return Some(out);
                        }
                        return Some(self.settle(&mut st, Outcome::Shed { shard: 0 }, None, false));
                    }
                    Launch::Failed => continue,
                }
            }
            // Fire the one-shot hedge when the primary's tail projects
            // past the deadline. A failed hedge launch is forfeited
            // (`launch` marked `hedged`), never retried.
            if block && self.hedge_due(&st, now) {
                let _ = self.launch(&mut st, now, true);
            }
            // Abandon the ticket once deadline + grace has passed with
            // attempts still in flight.
            if now >= st.deadline + self.inner.config.verdict_grace {
                return Some(self.settle(&mut st, Outcome::Expired { shard: 0 }, None, false));
            }
            // Poll / race the in-flight attempts.
            let two = st.hedge.is_some();
            if let Some(primary) = &st.primary {
                let slice = if !block {
                    Duration::ZERO
                } else if two || self.could_hedge(&st) {
                    RACE_SLICE
                } else {
                    // Nothing can preempt the primary: sleep toward the
                    // grace horizon in one bounded chunk.
                    (st.deadline + self.inner.config.verdict_grace)
                        .saturating_duration_since(now)
                        .min(Duration::from_millis(20))
                };
                let slice = match limit {
                    Some(l) => slice.min(l.saturating_duration_since(now)),
                    None => slice,
                };
                let polled = if slice.is_zero() { primary.pv.poll() } else { primary.pv.poll_wait(slice) };
                if let Some(result) = polled {
                    if let Some(out) = self.absorb(&mut st, false, result, block) {
                        return Some(out);
                    }
                    continue;
                }
            }
            if let Some(hedge) = &st.hedge {
                let polled = if block { hedge.pv.poll_wait(RACE_SLICE) } else { hedge.pv.poll() };
                if let Some(result) = polled {
                    if let Some(out) = self.absorb(&mut st, true, result, block) {
                        return Some(out);
                    }
                    continue;
                }
            }
            if !block {
                return None;
            }
        }
    }

    /// Whether a hedge could still fire later (keeps the race loop on
    /// short slices so the trigger isn't slept past).
    fn could_hedge(&self, st: &PendState) -> bool {
        self.inner.config.hedge.enabled && !st.hedged && st.hedge.is_none()
    }
}

impl VerdictHandle for GwPending {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        self.resolve(false, None).map(Ok)
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        self.resolve(true, None).ok_or(VerdictError::Lost)
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        self.resolve(true, Some(Instant::now() + timeout)).ok_or(VerdictError::TimedOut)
    }
}

impl std::fmt::Debug for GwPending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GwPending").finish_non_exhaustive()
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
    /// The federation digest thread (`None` without federation).
    digest: Option<JoinHandle<()>>,
    /// Dropping this stops the health monitor and the digest thread.
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
        inner.publish_membership_gauges();
        inner.publish_peer_gauges();
        let (shutdown_tx, shutdown_rx) = channel::bounded::<()>(1);
        let monitor = {
            let inner = Arc::clone(&inner);
            let shutdown_rx = shutdown_rx.clone();
            std::thread::Builder::new()
                .name("gw-health".into())
                .spawn(move || health::monitor_loop(&inner, &shutdown_rx))
                .expect("spawn gw-health thread")
        };
        // The digest thread shares the monitor's shutdown channel:
        // shutdown is signalled by dropping the sender, which wakes every
        // cloned receiver.
        let digest = inner.peers.as_ref().map(|_| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gw-digest".into())
                .spawn(move || peer::digest_loop(&inner, &shutdown_rx))
                .expect("spawn gw-digest thread")
        });
        let reaper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gw-reaper".into())
                .spawn(move || reaper_loop(&inner, &reaper_rx))
                .expect("spawn gw-reaper thread")
        };
        Ok(Self {
            inner,
            monitor: Some(monitor),
            reaper: Some(reaper),
            digest,
            shutdown_tx: Some(shutdown_tx),
        })
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
        self.inner.publish_membership_gauges();
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
        self.inner.publish_membership_gauges();
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
        if self.is_draining() {
            return Err(SubmitError::Draining);
        }
        if options.is_empty() {
            return Err(SubmitError::NoOptions);
        }
        // Refused here, not on a node: a node's refusal reads as "retry
        // elsewhere", which would walk one hostile request over the fleet.
        offloadnn_serve::validate_request(&task, &options)?;
        // A client can tighten its admission window but never extend it
        // past the gateway policy — the same rule serve applies. A
        // forwarded task's budget is the *remaining* budget its origin
        // put on the wire, tightened the same way.
        let policy = self.inner.config.default_deadline;
        let budget = budget.map_or(policy, |b| b.min(policy));
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
        let pending = GwPending {
            inner: Arc::clone(&self.inner),
            state: Mutex::new(PendState {
                task,
                options,
                born: now,
                deadline: now + budget,
                attempts: 0,
                tried: Vec::new(),
                primary: None,
                hedge: None,
                hedged: false,
                fwd_hops,
                origin,
                tried_peers,
                shed_pending: false,
                done: None,
            }),
        };
        // Launch the first attempt eagerly so tickets pipeline: the
        // submit is on the wire when this returns, and `wait` only
        // collects (or fails over). A ticket that cannot launch here
        // (all sends fail, or no healthy node) resolves in `wait`.
        {
            let mut st = pending.state.lock().expect("pending state lock poisoned");
            while st.primary.is_none() && st.attempts < RETRY_LIMIT {
                match pending.launch(&mut st, Instant::now(), false) {
                    Launch::Launched | Launch::NoCandidate => break,
                    Launch::Failed => {}
                }
            }
        }
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

    /// Federated peers currently answering load digests (zero without
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

    /// Stops and joins the monitor, digest and reaper threads; idempotent
    /// (drain runs it, then `Drop` finds nothing left).
    fn stop_threads(&mut self) {
        drop(self.shutdown_tx.take());
        for handle in [self.monitor.take(), self.digest.take()].into_iter().flatten() {
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
        let client = match route {
            Some(Route::Node(index)) => self.inner.membership.node(index).client.get().ok(),
            Some(Route::Peer(index)) => {
                self.inner.peers.as_ref().and_then(|peers| peers.peers[index].client.get().ok())
            }
            None => None,
        };
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
        for node in self.inner.membership.snapshot().iter().filter(|n| n.is_healthy()) {
            match node.client.get().and_then(|c| c.scale_to(target)) {
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
                Err(_) => node.client.clear(),
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
        let remaining_budget: f64 = self.inner.healthy_candidates(&[]).iter().map(|c| c.weight).sum();
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
