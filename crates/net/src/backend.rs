//! What a tier adds to [`Admitter`] to be *served* over TCP.
//!
//! A tier implements [`offloadnn_serve::Admitter`] once — that is its
//! data plane (submit, depart, metrics, the drain fence), the same
//! calls whether a driver holds it as `&dyn Admitter` or a frontend
//! dispatches wire frames onto it. [`Backend`] extends it with what a
//! driver must not see: the control plane of the wire protocol (scale,
//! membership, federation) and the final, consuming drain. `Service`
//! and the gateway crate's `Gateway` implement both.
//!
//! ## Deadline ownership
//!
//! The wire protocol ships a Submit's deadline budget as
//! `deadline_us == 0` for "no client deadline", which reaches
//! [`Admitter::submit`] as `None`: the *default* budget is the tier's
//! policy, and an explicit budget is clamped to never exceed it.

use crate::client::{Client, ClientConfig};
use crate::codec::{MemberInfo, MembershipDecision, MembershipResponse, PeerDigest};
use crate::error::NetError;
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::Task;
use offloadnn_serve::{
    Admitter, DrainReport, MetricsSnapshot, PendingVerdict, ReshardReport, ServeError, Service, SubmitError,
};
use std::net::SocketAddr;
use std::time::Duration;

/// The answer to a membership request ([`Backend::announce`] /
/// [`Backend::leave`]): the decision plus the backend's cluster view,
/// exactly what travels back in a [`crate::Frame::Membership`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipAck {
    /// How the request was judged.
    pub decision: MembershipDecision,
    /// The cluster after applying the request (empty when the backend
    /// manages no membership).
    pub members: Vec<MemberInfo>,
}

impl MembershipAck {
    /// The ack of a backend that manages no cluster membership.
    pub fn unsupported() -> Self {
        MembershipAck { decision: MembershipDecision::Unsupported, members: Vec::new() }
    }
}

/// The federation metadata riding on a [`crate::Frame::Forward`]:
/// everything beyond an ordinary submit that the receiving backend
/// needs for loop-free re-forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardInfo {
    /// The gateway where the task first arrived.
    pub origin: String,
    /// Every gateway that has already held this task, origin included.
    pub tried: Vec<String>,
    /// Remaining hop budget (0 = the receiver must decide locally).
    pub hops: u8,
}

/// The control-plane extension of [`Admitter`] a TCP frontend serves.
///
/// Together the two traits mirror the wire protocol's request frames
/// one-to-one; `crate::dispatch` is the single place that maps one onto
/// the other. Implementations are called from many connection threads
/// concurrently, and [`Backend::drain`] is called exactly once after
/// every connection has flushed.
pub trait Backend: Admitter + Sized + 'static {
    /// Whether a drain has begun.
    fn is_draining(&self) -> bool;

    /// Reshapes the backend to `shards` workers at runtime.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the reshape is refused (zero shards,
    /// draining, no healthy capacity).
    fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError>;

    /// A node registering itself ([`crate::Frame::Announce`]).
    /// Backends that manage no cluster membership — a plain serve node —
    /// keep the default, which answers `Unsupported`.
    fn announce(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        let _ = (addr, incarnation);
        MembershipAck::unsupported()
    }

    /// A node deregistering ahead of a graceful drain
    /// ([`crate::Frame::Leave`]). Same default as [`Backend::announce`].
    fn leave(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
        let _ = (addr, incarnation);
        MembershipAck::unsupported()
    }

    /// An overflow admission forwarded from a peer gateway
    /// ([`crate::Frame::Forward`]). The default treats it as an ordinary
    /// submit: a backend that manages no federation ignores the hop and
    /// tried-set metadata and decides locally, which is exactly the
    /// hop-budget-exhausted behaviour a federated gateway also falls
    /// back to. `budget` is the *remaining* deadline carried over from
    /// the origin, never the origin's policy default.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for requests refused at ingress, exactly as
    /// [`Admitter::submit`].
    fn forward(
        &self,
        task: Task,
        options: Vec<PathOption>,
        budget: Option<Duration>,
        info: ForwardInfo,
    ) -> Result<PendingVerdict, SubmitError> {
        let _ = info;
        self.submit(task, options, budget)
    }

    /// A peer gateway asking for this backend's load digest
    /// ([`crate::Frame::PeerHello`]), answered as the [`PeerDigest`] of a
    /// [`crate::Frame::PeerLoad`]. `None` — the default — means the
    /// backend is not a federation member (e.g. a plain serve node was
    /// addressed); the frontend answers an error frame and the asking
    /// peer marks the address unusable as a forwarding target.
    fn peer_load(&self, peer_addr: &str, peer_incarnation: u64) -> Option<PeerDigest> {
        let _ = (peer_addr, peer_incarnation);
        None
    }

    /// The backend's own ledger, read locally and infallibly — what a
    /// `Snapshot` or `Drain` frame answers. ([`Admitter::metrics`] is
    /// `Option` because a wire tier may be unable to reach its endpoint;
    /// a served tier never is.)
    fn ledger(&self) -> MetricsSnapshot;

    /// Drains outstanding work and returns the final report. The
    /// frontend calls this once, after the last connection closed.
    fn drain(self) -> DrainReport;
}

/// A pending gateway deregistration, armed by a frontend's
/// `announce_to` and fired at most once — firing consumes it — by the
/// frontend when a wire `Drain` is acknowledged or on shutdown,
/// whichever comes first. Firing dials the gateway fail-fast and sends
/// a [`crate::Frame::Leave`]; errors are swallowed (a gateway that
/// cannot be reached will notice the departure through its health
/// probes, exactly as a crash-leave).
#[derive(Debug)]
pub struct LeaveNotice {
    gateway: SocketAddr,
    addr: String,
    incarnation: u64,
}

impl LeaveNotice {
    /// Announces the node listening on `local_addr` to `gateway` and
    /// returns the gateway's answer with the matching, still unfired
    /// leave.
    pub(crate) fn announce(
        local_addr: SocketAddr,
        gateway: SocketAddr,
        incarnation: u64,
    ) -> Result<(MembershipResponse, Self), NetError> {
        let client = Client::connect(gateway, membership_client_config())?;
        let addr = local_addr.to_string();
        let reply = client.announce(&addr, incarnation, MEMBERSHIP_RPC_TIMEOUT)?;
        Ok((reply, Self { gateway, addr, incarnation }))
    }

    /// Sends the leave, best-effort.
    pub fn fire(self) {
        if let Ok(client) = Client::connect(self.gateway, membership_client_config()) {
            let _ = client.leave(&self.addr, self.incarnation, MEMBERSHIP_RPC_TIMEOUT);
        }
    }
}

/// How long a frontend waits for the gateway's answer to an announce or
/// leave before giving up (best-effort either way).
const MEMBERSHIP_RPC_TIMEOUT: Duration = Duration::from_secs(2);

/// The fail-fast dialing profile for membership traffic: a gateway that
/// cannot be dialed within a short timeout is treated as unreachable —
/// registration is re-attemptable and deregistration is best-effort.
fn membership_client_config() -> ClientConfig {
    ClientConfig { connect_timeout: Duration::from_millis(500) }
}

/// A fresh incarnation stamp: startup wall-clock nanoseconds, monotonic
/// across restarts of the same node (modulo clock regression), which is
/// all the incarnation ordering needs.
pub(crate) fn fresh_incarnation() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .max(1)
}

impl Backend for Service {
    fn is_draining(&self) -> bool {
        Service::is_draining(self)
    }

    fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
        Service::scale_to(self, shards)
    }

    fn ledger(&self) -> MetricsSnapshot {
        Service::metrics(self)
    }

    fn drain(self) -> DrainReport {
        Service::drain(self)
    }
}
