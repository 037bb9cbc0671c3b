//! The gateway's handle on every remote it dials — a [`Link`] — and the
//! per-node state built on one: incarnation stamp, routing weight and the
//! RTT histogram feeding the hedger.
//!
//! A link holds two lazily dialled connections and one
//! [`Liveness`] state machine (see `liveness.rs`):
//!
//! * the **data** connection carries `Submit`, `Forward` and `Depart`
//!   frames, so it holds every verdict in flight to the remote;
//! * the **control** connection carries health probes (`Snapshot`,
//!   `PeerHello`) and `Scale`, which the remote answers without queueing
//!   behind those verdicts.
//!
//! A control failure clears only the control slot. The data slot is
//! cleared only by a data-path transport failure
//! ([`Link::data_failed`]) and by a newer incarnation
//! ([`Link::restart`]): ejection by missed probes and a graceful leave
//! clear neither, because the remote may still deliver verdicts the
//! gateway's tickets and reaper are waiting for. A [`Client`] is one
//! socket for its whole life, so the rule holds for the socket itself:
//! nothing beneath a slot redials.

use crate::liveness::Liveness;
use crate::router::Candidate;
use offloadnn_net::{Client, ClientConfig, MemberState, NetError};
use offloadnn_telemetry::Histogram;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Transport tuning for the gateway's connections: a short dial
/// timeout, since the failover path and the liveness engine, not the
/// dial, own recovery from a dead remote.
fn fail_fast_client_config() -> ClientConfig {
    ClientConfig { connect_timeout: Duration::from_millis(500) }
}

/// A lazily dialled shared client, dropped on failure so the next use
/// re-dials.
#[derive(Default)]
struct ClientSlot(Mutex<Option<Arc<Client>>>);

impl ClientSlot {
    /// The shared client, dialling `addr` on first use (or after a
    /// [`ClientSlot::clear`]). A failed dial leaves the slot empty.
    fn get(&self, addr: SocketAddr) -> Result<Arc<Client>, NetError> {
        let mut slot = self.0.lock().expect("client slot lock poisoned");
        if let Some(c) = slot.as_ref() {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(Client::connect(addr, fail_fast_client_config())?);
        *slot = Some(Arc::clone(&c));
        Ok(c)
    }

    /// Forgets the cached client. Dropping the last handle closes its
    /// connection and fails every reply still pending on it.
    fn clear(&self) {
        *self.0.lock().expect("client slot lock poisoned") = None;
    }
}

/// One remote the gateway dials: a serve node or a peer gateway.
pub(crate) struct Link {
    /// Where the remote's `offloadnn-net` frontend listens.
    pub addr: SocketAddr,
    data: ClientSlot,
    control: ClientSlot,
    liveness: Mutex<Liveness>,
}

impl Link {
    pub(crate) fn new(addr: SocketAddr, state: MemberState) -> Self {
        Self {
            addr,
            data: ClientSlot::default(),
            control: ClientSlot::default(),
            liveness: Mutex::new(Liveness::new(state)),
        }
    }

    /// The liveness state machine, locked; never held across I/O.
    pub(crate) fn liveness(&self) -> MutexGuard<'_, Liveness> {
        self.liveness.lock().expect("liveness lock poisoned")
    }

    pub(crate) fn state(&self) -> MemberState {
        self.liveness().state()
    }

    /// Routable = `Healthy`, nothing else.
    pub(crate) fn is_healthy(&self) -> bool {
        self.state() == MemberState::Healthy
    }

    /// The data connection (`Submit`, `Forward`, `Depart`).
    pub(crate) fn data(&self) -> Result<Arc<Client>, NetError> {
        self.data.get(self.addr)
    }

    /// The control connection (probes, `Scale`).
    pub(crate) fn control(&self) -> Result<Arc<Client>, NetError> {
        self.control.get(self.addr)
    }

    /// A control request failed: only the control connection is suspect.
    pub(crate) fn control_failed(&self) {
        self.control.clear();
    }

    /// A data-path transport failure at `now`: the data connection is
    /// dropped and a healthy remote ejected. Returns `true` on the
    /// healthy → ejected transition.
    pub(crate) fn data_failed(&self, now: Instant, probation: Duration) -> bool {
        self.data.clear();
        self.liveness().data_failed(now, probation)
    }

    /// A newer incarnation of the remote: both connections belong to the
    /// old process, and it re-enters `Probing`.
    pub(crate) fn restart(&self) {
        self.data.clear();
        self.control.clear();
        self.liveness().restart();
    }
}

/// One backend serve node in the gateway's pool.
pub(crate) struct Node {
    pub link: Link,
    /// Stable rendezvous seed (hash of the address string).
    pub seed: u64,
    /// The incarnation stamp under which the node is registered.
    /// Mutated only under the membership pool's write lock.
    incarnation: AtomicU64,
    /// Routing weight as f64 bits (headroom from the last health probe).
    weight_bits: AtomicU64,
    /// Gateway-observed submit→verdict round trips against this node;
    /// its p99 drives the deadline-aware hedger.
    pub rtt: Histogram,
}

impl Node {
    fn with_state(addr: SocketAddr, state: MemberState, incarnation: u64) -> Self {
        Self {
            link: Link::new(addr, state),
            seed: crate::router::node_seed(&addr.to_string()),
            incarnation: AtomicU64::new(incarnation),
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

    pub(crate) fn addr(&self) -> SocketAddr {
        self.link.addr
    }

    pub(crate) fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::Acquire)
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

    /// Re-registers the node under a strictly newer incarnation (the
    /// membership engine verified the ordering under its write lock).
    pub(crate) fn restart(&self, incarnation: u64) {
        self.incarnation.store(incarnation, Ordering::Release);
        self.set_weight(1.0);
        self.link.restart();
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("addr", &self.addr())
            .field("state", &self.link.state())
            .field("incarnation", &self.incarnation())
            .field("weight", &self.weight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_round_trips_through_bits() {
        let n = Node::new("127.0.0.1:9999".parse().unwrap());
        n.set_weight(0.125);
        assert_eq!(n.weight(), 0.125);
        assert_eq!(n.candidate(2).weight, 0.125);
        assert_eq!(n.candidate(2).index, 2);
    }

    #[test]
    fn a_restart_re_enters_probation_under_the_new_incarnation() {
        let n = Node::probing("127.0.0.1:9998".parse().unwrap(), 7);
        assert_eq!((n.link.state(), n.incarnation()), (MemberState::Probing, 7));
        assert!(n.link.liveness().depart());
        n.set_weight(0.5);
        n.restart(9);
        assert_eq!((n.link.state(), n.incarnation(), n.weight()), (MemberState::Probing, 9, 1.0));
    }
}
