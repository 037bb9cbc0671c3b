//! Per-backend-node state: lazy client (a [`ClientSlot`], which peers
//! use too), lifecycle state machine, incarnation stamp, routing weight
//! and the RTT histogram feeding the hedger.
//!
//! The lifecycle state machine per node (states are the wire-level
//! [`MemberState`]):
//!
//! ```text
//!                    announce           probe succeeds
//!        (unknown) ──────────▶ Probing ───────────────▶ Healthy
//!                                 ▲                    │      ▲
//!   announce with a               │     K missed probes or    │
//!   higher incarnation            │     a data-path failure   │ probe succeeds
//!   (a restarted node             │                    ▼      │ after probation
//!   re-proves itself)             │                  Ejected ─┘
//!                                 │                    │
//!                                 │        leave       ▼
//!                                 └─────────────── Departed  (terminal but for
//!                                                             a *newer* incarnation)
//! ```
//!
//! Only `Healthy` is routable. `Probing` is the join-through-probation
//! gate: an announced node receives zero traffic until a health probe
//! succeeds. `Departed` is terminal under the node's current
//! incarnation — every transition out of it demands a strictly newer
//! one, so a delayed or replayed announce can never resurrect a node
//! that left. The data path may eject a node directly (a dropped
//! connection is stronger evidence than a missed probe); only the
//! health monitor promotes or readmits.

use crate::router::Candidate;
use offloadnn_net::{Client, ClientConfig, MemberState, NetError};
use offloadnn_telemetry::Histogram;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive failed probes of an unhealthy (probing or ejected) node
/// after which the monitor starts backing off: past this count the probe
/// stride doubles per failure, so a long-dead node stops costing a
/// connect timeout every sweep.
const PROBE_BACKOFF_AFTER: u32 = 4;

/// Cap on the probe-backoff stride, in monitor sweeps. A long-dead node
/// is still probed at least once per this many sweeps, bounding how
/// stale its revival can go unnoticed.
const PROBE_BACKOFF_LIMIT: u32 = 64;

/// Transport tuning for the gateway's backend connections (nodes and
/// peers alike). Fails fast — one connect attempt, short timeout: the
/// failover path, not the transport retry loop, owns recovery from a
/// dead node.
fn fail_fast_client_config() -> ClientConfig {
    ClientConfig {
        connect_attempts: 1,
        connect_timeout: Duration::from_millis(500),
        ..ClientConfig::default()
    }
}

/// A lazily dialled shared client to one backend (a node or a peer
/// gateway), dropped on transport failure so the next use re-dials.
pub(crate) struct ClientSlot {
    addr: SocketAddr,
    slot: Mutex<Option<Arc<Client>>>,
}

impl ClientSlot {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Self { addr, slot: Mutex::new(None) }
    }

    /// The shared client, dialling on first use (or after a
    /// [`ClientSlot::clear`]).
    ///
    /// # Errors
    ///
    /// Propagates [`Client::connect`] failures; the slot stays empty.
    pub(crate) fn get(&self) -> Result<Arc<Client>, NetError> {
        let mut slot = self.slot.lock().expect("client slot lock poisoned");
        if let Some(c) = slot.as_ref() {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(Client::connect(self.addr, fail_fast_client_config())?);
        *slot = Some(Arc::clone(&c));
        Ok(c)
    }

    /// Forgets the cached client (its connection is suspect); the next
    /// [`ClientSlot::get`] re-dials.
    pub(crate) fn clear(&self) {
        *self.slot.lock().expect("client slot lock poisoned") = None;
    }
}

fn state_tag(state: MemberState) -> u8 {
    match state {
        MemberState::Probing => 0,
        MemberState::Healthy => 1,
        MemberState::Ejected => 2,
        MemberState::Departed => 3,
    }
}

fn state_from_tag(tag: u8) -> MemberState {
    match tag {
        0 => MemberState::Probing,
        1 => MemberState::Healthy,
        2 => MemberState::Ejected,
        _ => MemberState::Departed,
    }
}

/// One backend serve node in the gateway's pool.
pub(crate) struct Node {
    /// Where the node's `offloadnn-net` frontend listens.
    pub addr: SocketAddr,
    /// Stable rendezvous seed (hash of the address string).
    pub seed: u64,
    /// The connection to the node's frontend.
    pub client: ClientSlot,
    /// Lifecycle state ([`MemberState`] tag). Transitions go through
    /// compare-exchange so a concurrent departure always sticks:
    /// promote/readmit/eject can never overwrite `Departed`.
    state: AtomicU8,
    /// The incarnation stamp under which the node is registered.
    /// Mutated only under the membership pool's write lock.
    incarnation: AtomicU64,
    /// Consecutive missed health probes while healthy.
    misses: AtomicU32,
    /// Consecutive failed probes while *unhealthy* (probing/ejected);
    /// drives the probe backoff.
    probe_failures: AtomicU32,
    /// Monitor sweeps left to skip before the next probe attempt.
    probe_skips: AtomicU32,
    /// Earliest instant a probe may readmit the node after an ejection.
    probation_until: Mutex<Option<Instant>>,
    /// Routing weight as f64 bits (headroom from the last health probe).
    weight_bits: AtomicU64,
    /// Gateway-observed submit→verdict round trips against this node;
    /// its p99 drives the deadline-aware hedger.
    pub rtt: Histogram,
}

impl Node {
    fn with_state(addr: SocketAddr, state: MemberState, incarnation: u64) -> Self {
        Self {
            addr,
            seed: crate::router::node_seed(&addr.to_string()),
            client: ClientSlot::new(addr),
            state: AtomicU8::new(state_tag(state)),
            incarnation: AtomicU64::new(incarnation),
            misses: AtomicU32::new(0),
            probe_failures: AtomicU32::new(0),
            probe_skips: AtomicU32::new(0),
            probation_until: Mutex::new(None),
            weight_bits: AtomicU64::new(1.0f64.to_bits()),
            rtt: Histogram::new(),
        }
    }

    /// A seed node named at gateway start: trusted immediately
    /// (incarnation 0, `Healthy`), exactly the pre-discovery behaviour.
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Self::with_state(addr, MemberState::Healthy, 0)
    }

    /// A node that announced itself at runtime: starts `Probing` and is
    /// invisible to routing until a health probe succeeds.
    pub(crate) fn probing(addr: SocketAddr, incarnation: u64) -> Self {
        Self::with_state(addr, MemberState::Probing, incarnation)
    }

    pub(crate) fn state(&self) -> MemberState {
        state_from_tag(self.state.load(Ordering::Acquire))
    }

    /// Routable = `Healthy`, nothing else.
    pub(crate) fn is_healthy(&self) -> bool {
        self.state.load(Ordering::Acquire) == state_tag(MemberState::Healthy)
    }

    pub(crate) fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::Acquire)
    }

    fn transition(&self, from: MemberState, to: MemberState) -> bool {
        self.state
            .compare_exchange(state_tag(from), state_tag(to), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    pub(crate) fn weight(&self) -> f64 {
        f64::from_bits(self.weight_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn set_weight(&self, w: f64) {
        self.weight_bits.store(w.to_bits(), Ordering::Relaxed);
    }

    /// This node as a routing candidate at pool position `index`.
    pub(crate) fn candidate(&self, index: usize) -> Candidate {
        Candidate { index, seed: self.seed, weight: self.weight() }
    }

    /// Records a successful health probe: clears the miss streak and any
    /// probe backoff.
    pub(crate) fn note_probe_ok(&self) {
        self.misses.store(0, Ordering::Relaxed);
        self.probe_failures.store(0, Ordering::Relaxed);
        self.probe_skips.store(0, Ordering::Relaxed);
    }

    /// Records a missed health probe; returns `true` if this miss
    /// crossed the ejection threshold (the caller ejects).
    pub(crate) fn note_probe_miss(&self, eject_after: u32) -> bool {
        self.misses.fetch_add(1, Ordering::Relaxed) + 1 >= eject_after
    }

    /// Records a failed probe of an *unhealthy* (probing or ejected)
    /// node and schedules the backoff: after [`PROBE_BACKOFF_AFTER`]
    /// consecutive failures the probe stride doubles per failure, capped
    /// at [`PROBE_BACKOFF_LIMIT`] sweeps, so a long-dead node costs a
    /// vanishing fraction of the monitor's budget instead of a
    /// full-cadence probe (and its connect timeout) every sweep.
    pub(crate) fn note_probe_failed(&self) {
        let failures = self.probe_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let stride = if failures <= PROBE_BACKOFF_AFTER {
            1
        } else {
            let doublings = (failures - PROBE_BACKOFF_AFTER).min(16);
            (1u32 << doublings).min(PROBE_BACKOFF_LIMIT)
        };
        self.probe_skips.store(stride - 1, Ordering::Relaxed);
    }

    /// Whether this sweep should probe the node, consuming one skip
    /// otherwise. Healthy nodes are always due (backoff only applies to
    /// probing/ejected ones).
    pub(crate) fn probe_due(&self) -> bool {
        let skips = self.probe_skips.load(Ordering::Relaxed);
        if skips == 0 {
            return true;
        }
        self.probe_skips.store(skips - 1, Ordering::Relaxed);
        false
    }

    /// Consecutive failed probes while unhealthy (tests, diagnostics).
    #[cfg(test)]
    pub(crate) fn probe_failures(&self) -> u32 {
        self.probe_failures.load(Ordering::Relaxed)
    }

    /// Ejects the node: unroutable until a probe readmits it after the
    /// probation window. Only a healthy node can be ejected (a departed
    /// one stays departed); returns `true` only on the healthy→ejected
    /// transition so callers can log/count it once.
    pub(crate) fn eject(&self, now: Instant, probation: Duration) -> bool {
        let flipped = self.transition(MemberState::Healthy, MemberState::Ejected);
        if flipped {
            *self.probation_until.lock().expect("probation lock poisoned") = Some(now + probation);
            self.client.clear();
        }
        flipped
    }

    /// Whether the probation window has elapsed at `now` (only
    /// meaningful while ejected).
    pub(crate) fn probation_over(&self, now: Instant) -> bool {
        match *self.probation_until.lock().expect("probation lock poisoned") {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Restarts the probation window after a failed readmission probe.
    pub(crate) fn extend_probation(&self, now: Instant, probation: Duration) {
        *self.probation_until.lock().expect("probation lock poisoned") = Some(now + probation);
    }

    /// Readmits the node after a successful post-probation probe;
    /// `false` if it was not ejected (e.g. departed meanwhile).
    pub(crate) fn readmit(&self) -> bool {
        if !self.transition(MemberState::Ejected, MemberState::Healthy) {
            return false;
        }
        self.note_probe_ok();
        *self.probation_until.lock().expect("probation lock poisoned") = None;
        true
    }

    /// Promotes a probing node whose first health probe succeeded;
    /// `false` if it was not probing (e.g. departed meanwhile).
    pub(crate) fn promote(&self) -> bool {
        if !self.transition(MemberState::Probing, MemberState::Healthy) {
            return false;
        }
        self.note_probe_ok();
        true
    }

    /// Marks the node departed. Unconditional from every live state —
    /// the membership engine has already judged the incarnation — and
    /// idempotent; returns `true` on the first transition.
    pub(crate) fn depart(&self) -> bool {
        let prev = self.state.swap(state_tag(MemberState::Departed), Ordering::AcqRel);
        let flipped = prev != state_tag(MemberState::Departed);
        if flipped {
            self.client.clear();
        }
        flipped
    }

    /// Re-registers the node under a strictly newer incarnation (the
    /// membership engine verified the ordering under its write lock): it
    /// re-enters probation-gated `Probing` with a clean probe history,
    /// whatever state — including `Departed` — it was in.
    pub(crate) fn restart(&self, incarnation: u64) {
        self.incarnation.store(incarnation, Ordering::Release);
        self.misses.store(0, Ordering::Relaxed);
        self.probe_failures.store(0, Ordering::Relaxed);
        self.probe_skips.store(0, Ordering::Relaxed);
        *self.probation_until.lock().expect("probation lock poisoned") = None;
        self.set_weight(1.0);
        self.client.clear();
        self.state.store(state_tag(MemberState::Probing), Ordering::Release);
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("addr", &self.addr)
            .field("state", &self.state())
            .field("incarnation", &self.incarnation())
            .field("weight", &self.weight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new("127.0.0.1:9999".parse().unwrap())
    }

    #[test]
    fn misses_accumulate_to_the_threshold() {
        let n = node();
        assert!(!n.note_probe_miss(3));
        assert!(!n.note_probe_miss(3));
        assert!(n.note_probe_miss(3));
        n.note_probe_ok();
        assert!(!n.note_probe_miss(3));
    }

    #[test]
    fn eject_is_reported_once_and_probation_gates_readmission() {
        let (n, t0, probation) = (node(), crate::gateway::test_epoch(), Duration::from_millis(20));
        assert!(n.is_healthy());
        assert!(n.eject(t0, probation));
        assert!(!n.eject(t0 + probation, probation), "second eject must not re-report");
        assert!(!n.is_healthy());
        assert_eq!(n.state(), MemberState::Ejected);
        assert!(!n.probation_over(t0 + probation - Duration::from_nanos(1)));
        assert!(n.probation_over(t0 + probation), "a re-eject must not restart the window either");
        assert!(n.readmit());
        assert!(n.is_healthy());
    }

    #[test]
    fn weight_round_trips_through_bits() {
        let n = node();
        n.set_weight(0.125);
        assert_eq!(n.weight(), 0.125);
        assert_eq!(n.candidate(2).weight, 0.125);
        assert_eq!(n.candidate(2).index, 2);
    }

    #[test]
    fn a_probing_node_is_not_routable_until_promoted() {
        let n = Node::probing("127.0.0.1:9998".parse().unwrap(), 7);
        assert_eq!(n.state(), MemberState::Probing);
        assert!(!n.is_healthy());
        assert_eq!(n.incarnation(), 7);
        assert!(n.promote());
        assert!(n.is_healthy());
        assert!(!n.promote(), "promote is a one-shot transition");
    }

    #[test]
    fn departed_is_terminal_for_every_monitor_transition() {
        let n = node();
        assert!(n.depart());
        assert!(!n.depart(), "second depart must not re-report");
        assert_eq!(n.state(), MemberState::Departed);
        assert!(!n.eject(crate::gateway::test_epoch(), Duration::ZERO), "a departed node cannot be ejected");
        assert!(!n.readmit(), "a departed node cannot be readmitted");
        assert!(!n.promote(), "a departed node cannot be promoted");
        assert_eq!(n.state(), MemberState::Departed);
        // Only a restart under a newer incarnation revives it — into
        // probation, not straight to routable.
        n.restart(9);
        assert_eq!(n.state(), MemberState::Probing);
        assert_eq!(n.incarnation(), 9);
        assert!(!n.is_healthy());
    }

    #[test]
    fn probe_backoff_doubles_after_the_grace_failures_and_caps() {
        let n = Node::probing("127.0.0.1:9998".parse().unwrap(), 1);
        // Within the grace window every sweep probes.
        for _ in 0..PROBE_BACKOFF_AFTER {
            assert!(n.probe_due());
            n.note_probe_failed();
        }
        // First failure past the window: stride 2 ⇒ skip one sweep.
        assert!(n.probe_due());
        n.note_probe_failed();
        assert!(!n.probe_due());
        assert!(n.probe_due());
        // The next one: stride 4 ⇒ skip three.
        n.note_probe_failed();
        for _ in 0..3 {
            assert!(!n.probe_due());
        }
        assert!(n.probe_due());
        // Far past the window the stride is capped at the limit.
        for _ in 0..40 {
            n.note_probe_failed();
        }
        let mut skips = 0;
        while !n.probe_due() {
            skips += 1;
        }
        assert_eq!(skips, PROBE_BACKOFF_LIMIT - 1, "stride caps at the limit (N sweeps ⇒ N - 1 skips)");
        // A success clears the backoff entirely.
        n.note_probe_ok();
        assert_eq!(n.probe_failures(), 0);
        assert!(n.probe_due());
    }
}
