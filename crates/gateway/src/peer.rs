//! Federated peer gateways: the digest loop and the overflow-target
//! picker.
//!
//! A federated gateway ([`crate::FederationConfig`]) keeps one [`Peer`]
//! per configured peer gateway. A dedicated digest thread sweeps the
//! peer set every `digest_interval`, sending a `PeerHello`
//! and recording the `PeerLoad` answer: healthy-node count, aggregate
//! remaining budget, verdict-latency p50 and the peer's membership epoch.
//! The digest is what makes overflow forwarding *informed* — when the
//! local cluster sheds, [`PeerSet::pick`] ranks the untried, live peers
//! by their advertised headroom and the forward goes to the best one,
//! not to a random neighbour.
//!
//! Peer liveness follows the same philosophy as node health
//! ([`crate::health`]) but is deliberately simpler: `eject_after`
//! consecutive missed digests marks a peer down (no forwards routed to
//! it), and a single successful digest brings it back. There is no
//! probation — a forward to a half-dead peer fails fast and falls back
//! to a local Shed, so the cost of optimism is bounded.

use crate::gateway::GatewayInner;
use crate::node::ClientSlot;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use offloadnn_net::PeerDigest;
use offloadnn_telemetry::{event, Severity};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// One federated peer gateway.
pub(crate) struct Peer {
    /// The peer gateway's frontend address as it appears in `Forward`
    /// tried-sets (string equality is the loop-prevention rule).
    pub addr: String,
    /// The connection to the peer gateway's frontend.
    pub client: ClientSlot,
    /// Whether the peer currently answers digests. Starts `true`: a
    /// freshly configured peer is given the benefit of the doubt until
    /// `eject_after` digests have actually missed.
    healthy: AtomicBool,
    /// Consecutive missed digests.
    misses: AtomicU32,
    /// Last load digest the peer answered (`None` until the first).
    digest: Mutex<Option<PeerDigest>>,
}

impl Peer {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Self {
            addr: addr.to_string(),
            client: ClientSlot::new(addr),
            healthy: AtomicBool::new(true),
            misses: AtomicU32::new(0),
            digest: Mutex::new(None),
        }
    }

    pub(crate) fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// The last answered digest, if any.
    pub(crate) fn digest(&self) -> Option<PeerDigest> {
        *self.digest.lock().expect("peer digest lock poisoned")
    }

    /// Records an answered digest; returns the previous digest so the
    /// caller can detect an epoch change. The digest is wire input: one
    /// whose budget or latency is negative or not a finite number would
    /// score NaN, infinity or below zero and capture or poison every
    /// [`PeerSet::pick`], so it is recorded as a missed digest instead of
    /// being stored (logged once, when it takes the peer down).
    fn note_digest(&self, d: PeerDigest, eject_after: u32) -> Option<PeerDigest> {
        let sane = |x: f64| x.is_finite() && x >= 0.0;
        if !sane(d.remaining_budget) || !sane(d.round_ms_p50) {
            if self.note_miss(eject_after) {
                event!(Severity::Warn, "gw.federation", "peer {} down: nonsense digest {d:?}", self.addr);
            }
            return None;
        }
        self.misses.store(0, Ordering::Relaxed);
        self.healthy.store(true, Ordering::Release);
        self.digest.lock().expect("peer digest lock poisoned").replace(d)
    }

    /// Records a missed digest; returns `true` on the healthy→down
    /// transition (the caller logs it once).
    fn note_miss(&self, eject_after: u32) -> bool {
        let missed = self.misses.fetch_add(1, Ordering::Relaxed) + 1;
        if missed >= eject_after {
            return self.healthy.swap(false, Ordering::AcqRel);
        }
        false
    }

    /// Records a failed forward (send error or mid-flight crash): the
    /// connection is suspect, and the peer is pessimistically marked
    /// down until the next successful digest — a data-path failure is
    /// stronger evidence than a missed digest, exactly the node rule.
    pub(crate) fn note_forward_failed(&self) {
        self.client.clear();
        self.healthy.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for Peer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Peer")
            .field("addr", &self.addr)
            .field("healthy", &self.is_healthy())
            .finish_non_exhaustive()
    }
}

/// The federated peer pool plus this gateway's own federation identity.
pub(crate) struct PeerSet {
    pub(crate) peers: Vec<Peer>,
    /// This gateway's identity in `Forward` origin/tried fields.
    pub(crate) identity: String,
}

impl PeerSet {
    pub(crate) fn new(addrs: &[SocketAddr], identity: String) -> Self {
        Self { peers: addrs.iter().copied().map(Peer::new).collect(), identity }
    }

    /// Peers currently answering digests.
    pub(crate) fn healthy_count(&self) -> usize {
        self.peers.iter().filter(|p| p.is_healthy()).count()
    }

    /// The least-loaded live peer not yet in `tried`, or `None` when
    /// every eligible peer has been tried (or none is live). Load
    /// ranking uses the advertised digest —
    /// `remaining_budget / (1 + round_ms_p50)`, zero headroom excluded —
    /// and a live peer that has not answered a digest yet ranks last
    /// (score 0) rather than being skipped, so forwarding still works in
    /// the window before the first digest sweep completes.
    pub(crate) fn pick(&self, tried: &[String]) -> Option<(usize, &Peer)> {
        let mut best: Option<(usize, &Peer, f64)> = None;
        for (index, peer) in self.peers.iter().enumerate() {
            if !peer.is_healthy() || tried.contains(&peer.addr) {
                continue;
            }
            let score = match peer.digest() {
                Some(d) => {
                    if d.healthy_nodes == 0 || d.remaining_budget <= 0.0 {
                        continue; // advertises no capacity: a forward there is a guaranteed shed
                    }
                    d.remaining_budget / (1.0 + d.round_ms_p50)
                }
                None => 0.0,
            };
            if best.is_none_or(|(_, _, b)| score > b) {
                best = Some((index, peer, score));
            }
        }
        best.map(|(index, peer, _)| (index, peer))
    }
}

/// One digest sweep across the peer set.
fn sweep(inner: &GatewayInner, peers: &PeerSet) {
    let Some(fed) = &inner.config.federation else { return };
    for peer in &peers.peers {
        let answer = peer
            .client
            .get()
            .and_then(|c| c.peer_hello(&peers.identity, inner.incarnation, fed.digest_timeout));
        match answer {
            Ok(digest) => {
                let prev = peer.note_digest(digest, fed.eject_after);
                // A changed epoch means the peer's cluster membership
                // moved.
                if prev.is_some_and(|p| p.epoch != digest.epoch) {
                    event!(Severity::Info, "gw.federation", "peer {} epoch -> {}", peer.addr, digest.epoch);
                }
            }
            Err(err) => {
                peer.client.clear();
                if peer.note_miss(fed.eject_after) {
                    event!(Severity::Warn, "gw.federation", "peer {} down: {err}", peer.addr);
                }
            }
        }
    }
    inner.publish_peer_gauges();
}

/// The digest thread body: sweep, publish the gauge, sleep until the
/// next tick or shutdown (the sender side of `shutdown_rx` is dropped by
/// [`crate::Gateway`] drain).
pub(crate) fn digest_loop(inner: &Arc<GatewayInner>, shutdown_rx: &Receiver<()>) {
    let Some(peers) = inner.peers.as_ref() else { return };
    let Some(fed) = &inner.config.federation else { return };
    loop {
        sweep(inner, peers);
        match shutdown_rx.recv_timeout(fed.digest_interval) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(budget: f64, round_ms: f64) -> PeerDigest {
        PeerDigest { healthy_nodes: 2, remaining_budget: budget, round_ms_p50: round_ms, epoch: 0 }
    }

    fn set(n: usize) -> PeerSet {
        let addrs: Vec<SocketAddr> =
            (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i).parse().unwrap()).collect();
        PeerSet::new(&addrs, "127.0.0.1:7000".into())
    }

    #[test]
    fn pick_prefers_the_most_headroom_per_round_millisecond() {
        let peers = set(3);
        peers.peers[0].note_digest(digest(1.0, 0.0), 3);
        peers.peers[1].note_digest(digest(4.0, 1.0), 3); // score 2.0 — best
        peers.peers[2].note_digest(digest(1.5, 0.0), 3);
        let (index, _) = peers.pick(&[]).expect("a peer must be picked");
        assert_eq!(index, 1);
    }

    #[test]
    fn pick_skips_tried_down_and_capacity_less_peers() {
        let peers = set(3);
        peers.peers[0].note_digest(digest(8.0, 0.0), 3);
        peers.peers[1].note_digest(digest(4.0, 0.0), 3);
        peers.peers[2].note_digest(
            PeerDigest { healthy_nodes: 0, remaining_budget: 9.0, round_ms_p50: 0.0, epoch: 0 },
            3,
        );
        // Best is tried, the zero-node peer is ineligible: second-best wins.
        let tried = vec![peers.peers[0].addr.clone()];
        assert_eq!(peers.pick(&tried).expect("peer 1 eligible").0, 1);
        // Down peers are skipped even when untried.
        peers.peers[1].note_forward_failed();
        assert!(peers.pick(&tried).is_none(), "no eligible peer remains");
    }

    /// A digest is wire input. Stored, a NaN budget on the first
    /// candidate would score NaN, which no later score displaces
    /// (`x > NaN` is false), and a latency of -1 ms would divide by zero
    /// and score infinity: either one would capture every forward. Both
    /// count as missed digests instead and are never ranked.
    #[test]
    fn a_nonsense_digest_never_captures_the_pick() {
        let peers = set(3);
        peers.peers[0].note_digest(digest(f64::NAN, 0.0), 3);
        peers.peers[1].note_digest(digest(1.0, -1.0), 3);
        peers.peers[2].note_digest(digest(4.0, 1.0), 3);
        assert_eq!(peers.pick(&[]).expect("the sane peer is eligible").0, 2);
        assert!(peers.peers[0].digest().is_none() && peers.peers[1].digest().is_none());
        // Recorded as misses: enough of them take the peer down.
        for _ in 0..2 {
            peers.peers[0].note_digest(digest(f64::INFINITY, 0.0), 3);
        }
        assert!(!peers.peers[0].is_healthy());
    }

    #[test]
    fn an_undigested_peer_is_a_last_resort_not_a_hole() {
        let peers = set(2);
        // No digest answered yet anywhere: forwarding must still find a
        // target (score 0 beats nothing).
        assert!(peers.pick(&[]).is_some());
        peers.peers[1].note_digest(digest(0.5, 0.0), 3);
        assert_eq!(peers.pick(&[]).expect("digested peer wins").0, 1);
    }

    #[test]
    fn misses_accumulate_and_one_digest_restores() {
        let peers = set(1);
        let p = &peers.peers[0];
        assert!(!p.note_miss(3));
        assert!(!p.note_miss(3));
        assert!(p.note_miss(3), "third miss reports the transition");
        assert!(!p.is_healthy());
        assert!(!p.note_miss(3), "already down: no re-report");
        assert!(p.note_digest(digest(1.0, 0.0), 3).is_none());
        assert!(p.is_healthy());
    }
}
