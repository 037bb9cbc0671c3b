//! Federated peer gateways and the overflow-target picker.
//!
//! A federated gateway ([`crate::FederationConfig`]) keeps one [`Peer`]
//! per configured peer gateway: a [`Link`] like a node's, probed by the
//! same health monitor under the same liveness rule, plus the load
//! digest its probe records. A peer's probe is a `PeerHello` on the
//! control connection, answered by a `PeerLoad` digest: healthy-node
//! count, aggregate remaining budget, verdict-latency p50 and the peer's
//! membership epoch. The digest is what makes overflow forwarding
//! *informed* — when the local cluster sheds, [`PeerSet::pick`] ranks the
//! untried, healthy peers by their advertised headroom and the forward
//! goes to the best one, not to a random neighbour.
//!
//! A configured peer starts `Healthy` — given the benefit of the doubt
//! until probes actually miss — and is never probing or departed.

use crate::node::Link;
use offloadnn_net::{MemberState, PeerDigest};
use offloadnn_telemetry::{event, Severity};
use std::net::SocketAddr;
use std::sync::Mutex;

/// One federated peer gateway.
pub(crate) struct Peer {
    pub link: Link,
    /// The peer gateway's frontend address as it appears in `Forward`
    /// tried-sets (string equality is the loop-prevention rule).
    pub addr: String,
    /// Last load digest the peer answered (`None` until the first).
    digest: Mutex<Option<PeerDigest>>,
}

impl Peer {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Self { link: Link::new(addr, MemberState::Healthy), addr: addr.to_string(), digest: Mutex::new(None) }
    }

    /// The last answered digest, if any.
    pub(crate) fn digest(&self) -> Option<PeerDigest> {
        *self.digest.lock().expect("peer digest lock poisoned")
    }

    /// Records an answered digest. The digest is wire input: one whose
    /// budget or latency is negative or not a finite number would score
    /// NaN, infinity or below zero and capture or poison every
    /// [`PeerSet::pick`], so it is refused instead of stored, and the
    /// probe that fetched it counts as missed.
    pub(crate) fn note_digest(&self, d: PeerDigest) -> Result<(), String> {
        let sane = |x: f64| x.is_finite() && x >= 0.0;
        if !sane(d.remaining_budget) || !sane(d.round_ms_p50) {
            return Err(format!("nonsense digest {d:?}"));
        }
        let prev = self.digest.lock().expect("peer digest lock poisoned").replace(d);
        // A changed epoch means the peer's cluster membership moved.
        if prev.is_some_and(|p| p.epoch != d.epoch) {
            event!(Severity::Info, "gw.federation", "peer {} epoch -> {}", self.addr, d.epoch);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Peer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Peer")
            .field("addr", &self.addr)
            .field("state", &self.link.state())
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

    /// Peers currently answering probes.
    pub(crate) fn healthy_count(&self) -> usize {
        self.peers.iter().filter(|p| p.link.is_healthy()).count()
    }

    /// The least-loaded healthy peer not yet in `tried`, or `None` when
    /// every eligible peer has been tried (or none is healthy). Load
    /// ranking uses the advertised digest —
    /// `remaining_budget / (1 + round_ms_p50)`, zero headroom excluded —
    /// and a healthy peer that has not answered a digest yet ranks last
    /// (score 0) rather than being skipped, so forwarding still works in
    /// the window before its first probe completes.
    pub(crate) fn pick(&self, tried: &[String]) -> Option<(usize, &Peer)> {
        let mut best: Option<(usize, &Peer, f64)> = None;
        for (index, peer) in self.peers.iter().enumerate() {
            if !peer.link.is_healthy() || tried.contains(&peer.addr) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
        peers.peers[0].note_digest(digest(1.0, 0.0)).unwrap();
        peers.peers[1].note_digest(digest(4.0, 1.0)).unwrap(); // score 2.0 — best
        peers.peers[2].note_digest(digest(1.5, 0.0)).unwrap();
        let (index, _) = peers.pick(&[]).expect("a peer must be picked");
        assert_eq!(index, 1);
    }

    #[test]
    fn pick_skips_tried_down_and_capacity_less_peers() {
        let peers = set(3);
        peers.peers[0].note_digest(digest(8.0, 0.0)).unwrap();
        peers.peers[1].note_digest(digest(4.0, 0.0)).unwrap();
        let no_nodes = PeerDigest { healthy_nodes: 0, remaining_budget: 9.0, round_ms_p50: 0.0, epoch: 0 };
        peers.peers[2].note_digest(no_nodes).unwrap();
        // Best is tried, the zero-node peer is ineligible: second-best wins.
        let tried = vec![peers.peers[0].addr.clone()];
        assert_eq!(peers.pick(&tried).expect("peer 1 eligible").0, 1);
        // Down peers are skipped even when untried.
        assert!(peers.peers[1].link.data_failed(crate::gateway::test_epoch(), Duration::ZERO));
        assert!(peers.pick(&tried).is_none(), "no eligible peer remains");
        assert_eq!(peers.healthy_count(), 2);
    }

    /// A digest is wire input. Stored, a NaN budget on the first
    /// candidate would score NaN, which no later score displaces
    /// (`x > NaN` is false), and a latency of -1 ms would divide by zero
    /// and score infinity: either one would capture every forward. Both
    /// are refused instead, and never ranked.
    #[test]
    fn a_nonsense_digest_never_captures_the_pick() {
        let peers = set(3);
        assert!(peers.peers[0].note_digest(digest(f64::NAN, 0.0)).is_err());
        assert!(peers.peers[1].note_digest(digest(1.0, -1.0)).is_err());
        assert!(peers.peers[0].note_digest(digest(f64::INFINITY, 0.0)).is_err());
        peers.peers[2].note_digest(digest(4.0, 1.0)).unwrap();
        assert_eq!(peers.pick(&[]).expect("the sane peer is eligible").0, 2);
        assert!(peers.peers[0].digest().is_none() && peers.peers[1].digest().is_none());
    }

    #[test]
    fn an_undigested_peer_is_a_last_resort_not_a_hole() {
        let peers = set(2);
        // No digest answered yet anywhere: forwarding must still find a
        // target (score 0 beats nothing).
        assert!(peers.pick(&[]).is_some());
        peers.peers[1].note_digest(digest(0.5, 0.0)).unwrap();
        assert_eq!(peers.pick(&[]).expect("digested peer wins").0, 1);
    }
}
