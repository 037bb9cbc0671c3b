//! The client library: one pipelining connection to a
//! [`crate::AnyServer`] with per-request deadline propagation.
//!
//! A [`Client`] is an [`Admitter`] and is driven like every other tier:
//! `client.submit(task, options, None)?.wait()?`. A redemption tells
//! apart a verdict still in flight when its wait bound elapsed
//! ([`VerdictError::TimedOut`]), a typed server refusal
//! ([`VerdictError::Refused`]) and a connection that died first
//! ([`VerdictError::Transport`]).
//!
//! ## Pipelining
//!
//! A submit writes the request and returns its pending verdict
//! immediately; any number of requests may be in flight at once. A
//! background reader thread delivers each response into the
//! connection's reply table (`replies.rs`) by correlation id, so
//! verdicts can be redeemed in any order. The server bounds each
//! connection's in-flight window — a client pipelining past it is
//! simply not read until verdicts flush, and the backpressure reaches
//! the submit through the blocked socket write.
//!
//! ## Deadline propagation
//!
//! The optional per-submit deadline travels in the frame as a budget in
//! microseconds. The server applies the *tighter* of that budget and its
//! own policy deadline ([`offloadnn_serve::ServiceConfig::admission_deadline`]),
//! so a client can shrink its admission window but never extend it.
//!
//! ## Dialing
//!
//! A [`Client`] owns exactly one TCP connection for its whole life.
//! [`Client::connect`] dials once, bounded by
//! [`ClientConfig::connect_timeout`], and nothing redials after that:
//! once the connection dies, every request pending on it resolves as
//! [`NetError::Disconnected`] and so does every later one — a submit is
//! not idempotent, so the client never silently replays one. A caller
//! that outlives its server builds a new `Client`; when and how often
//! to try is the caller's policy (the gateway's lives in its liveness
//! engine).

use crate::codec::{
    self, AnnounceRequest, DepartRequest, DrainRequest, Frame, LeaveRequest, MembershipResponse, PeerDigest,
    PeerHelloRequest, ScaleRequest, ScaleResponse, SnapshotRequest,
};
use crate::error::NetError;
use crate::replies::{Delivery, Replies};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use offloadnn_serve::{Admitter, Bell, Mailbox, MetricsSnapshot, Outcome, SubmitError, VerdictError};
use offloadnn_telemetry::{event, Histogram, Severity};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect timeout of the one dial.
    pub connect_timeout: Duration,
}

/// Socket write timeout; a server that cannot absorb a request this long
/// (window full and never draining it) fails the send.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

impl Default for ClientConfig {
    fn default() -> Self {
        Self { connect_timeout: Duration::from_secs(1) }
    }
}

impl ClientConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.connect_timeout.is_zero() {
            return Err(NetError::InvalidConfig("connect_timeout must be > 0"));
        }
        Ok(())
    }
}

/// One connection to a [`crate::AnyServer`], for the client's whole
/// life. Submissions pipeline: each submit returns a pending verdict
/// redeemable in any order. All methods take `&self` and are
/// thread-safe; requests from multiple threads share the one connection
/// and its in-flight window.
#[derive(Debug)]
pub struct Client {
    /// The write half, locked per frame so frames stay whole on the
    /// stream.
    stream: Mutex<TcpStream>,
    /// The replies owed on the connection; the reader delivers into it.
    replies: Arc<Mutex<Replies>>,
    reader: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

/// Handle to one pipelined submit, redeemed through
/// [`offloadnn_serve::PendingVerdict`] (or, without consuming it,
/// [`PendingVerdict::poll_wait`]).
#[derive(Debug)]
pub struct PendingVerdict {
    rx: Mailbox<Frame>,
    sent_at: Instant,
}

impl PendingVerdict {
    /// [`redeem`]s the verdict, recording every reply the server sent on
    /// the `net.rtt` histogram (submit write to verdict arrival).
    fn redeem(&self, bound: Option<Duration>) -> Option<Result<Outcome, NetError>> {
        static RTT: OnceLock<Arc<Histogram>> = OnceLock::new();
        let verdict = redeem(&self.rx, bound, "the verdict", |f| match f {
            Frame::Outcome(r) => Some(r.outcome),
            _ => None,
        });
        if offloadnn_telemetry::enabled() && matches!(verdict, Some(Ok(_) | Err(NetError::Server(_)))) {
            RTT.get_or_init(|| offloadnn_telemetry::global().phase("net.rtt")).record(self.sent_at.elapsed());
        }
        verdict
    }

    /// Blocks up to `timeout` (zero only polls) without consuming the
    /// handle — how the gateway races and reaps attempts. `None` strictly
    /// means the request is still in flight; [`NetError::Server`] keeps
    /// the server's typed refusal. Once `Some(...)` has been returned the
    /// verdict is consumed and further calls report the connection
    /// closed.
    pub fn poll_wait(&self, timeout: Duration) -> Option<Result<Outcome, NetError>> {
        self.redeem(Some(timeout))
    }
}

/// The one way a reply is redeemed: waits on `rx` up to `bound`
/// (forever when `None`; a zero bound only polls) and unwraps the frame
/// kind `pick` accepts. `None` means the bound elapsed with the request
/// still in flight. An error frame surfaces as [`NetError::Server`]; any
/// other frame, or a connection that died first, as
/// [`NetError::Disconnected`] (a late reply is dropped by the reader).
fn redeem<T>(
    rx: &Mailbox<Frame>,
    bound: Option<Duration>,
    what: &str,
    pick: impl FnOnce(Frame) -> Option<T>,
) -> Option<Result<T, NetError>> {
    Some(match rx.take(bound)? {
        Err(_) => Err(NetError::Disconnected(format!("connection died waiting for {what}"))),
        Ok(Frame::Error(e)) => Err(NetError::Server(e)),
        Ok(other) => {
            let got = other.type_name();
            pick(other)
                .ok_or_else(|| NetError::Disconnected(format!("unexpected {got} frame in place of {what}")))
        }
    })
}

fn metrics(frame: Frame) -> Option<MetricsSnapshot> {
    match frame {
        Frame::Metrics(m) => Some(m.metrics),
        _ => None,
    }
}

fn membership(frame: Frame) -> Option<MembershipResponse> {
    match frame {
        Frame::Membership(m) => Some(m),
        _ => None,
    }
}

impl Client {
    /// Resolves `addr`, dials it once and starts the connection's reader
    /// thread.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if `addr` does not resolve,
    /// [`NetError::Disconnected`] when the dial failed or timed out.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, NetError> {
        config.validate()?;
        let addr =
            addr.to_socket_addrs()?.next().ok_or(NetError::InvalidConfig("address resolved to nothing"))?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout).map_err(|e| {
            event!(Severity::Warn, "net.client", "dial {addr} failed: {e}");
            NetError::Disconnected(format!("dialing {addr} failed: {e}"))
        })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let read_half = stream.try_clone()?;
        let replies = Arc::new(Mutex::new(Replies::new()));
        let driven = Arc::clone(&replies);
        let reader = std::thread::Builder::new()
            .name("net-client-reader".into())
            .spawn(move || read_responses(read_half, &driven))?;
        Ok(Self { stream: Mutex::new(stream), replies, reader: Some(reader), next_id: AtomicU64::new(1) })
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Writes one encoded frame whole. A frame cut off mid-write leaves
    /// the stream's framing untrustworthy, so a failed write shuts the
    /// socket down; the reader wakes on it and closes the reply table.
    fn write(&self, bytes: &[u8]) -> Result<(), NetError> {
        let mut stream = self.stream.lock().expect("stream lock");
        stream.write_all(bytes).map_err(|e| {
            let _ = stream.shutdown(Shutdown::Both);
            NetError::Io(e)
        })
    }

    /// Sends request `id`: opens its reply slot, then writes its frame.
    /// A failed write cancels the slot.
    fn request(&self, id: u64, bytes: &[u8]) -> Result<Mailbox<Frame>, NetError> {
        let rx = self.replies.lock().expect("reply table lock").register(id)?;
        self.write(bytes)
            .map(|()| rx)
            .inspect_err(|_| self.replies.lock().expect("reply table lock").cancel(id))
    }

    /// Sends the request `build` makes of a fresh correlation id and
    /// [`redeem`]s the frame kind `pick` accepts; a `bound` that elapses
    /// first fails [`NetError::Disconnected`].
    fn call<T>(
        &self,
        build: impl FnOnce(u64) -> Frame,
        bound: Option<Duration>,
        what: &str,
        pick: impl FnOnce(Frame) -> Option<T>,
    ) -> Result<T, NetError> {
        let id = self.next_id();
        let rx = self.request(id, &codec::encode(&build(id)))?;
        let timed_out = || NetError::Disconnected(format!("timed out waiting for {what}"));
        redeem(&rx, bound, what, pick).unwrap_or_else(|| Err(timed_out()))
    }

    /// Sends the admission frame `encode` makes of a fresh correlation id
    /// and hands back its verdict slot.
    fn pend(&self, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<PendingVerdict, NetError> {
        let id = self.next_id();
        let bytes = encode(id);
        let sent_at = Instant::now();
        Ok(PendingVerdict { rx: self.request(id, &bytes)?, sent_at })
    }

    /// Submits an admission request, pipelined: returns as soon as the
    /// frame is written. `deadline` is the admission budget shipped to
    /// the server (`None` = the server's policy deadline); the server
    /// enforces the tighter of the two. The frame is encoded straight
    /// from the borrowed request, so a caller that keeps its task and
    /// options (a gateway ticket that may have to fail over) copies
    /// nothing; [`Admitter::submit`] is this call on an owned request.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] once the connection has died,
    /// [`NetError::Io`] when the frame could not be written.
    pub fn submit_borrowed(
        &self,
        task: &Task,
        options: &[PathOption],
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, NetError> {
        self.pend(|id| codec::encode_submit(id, budget_us(deadline), task, options))
    }

    /// Forwards an overflow admission to a peer gateway. Pipelined and
    /// borrowed exactly like [`Client::submit_borrowed`] — the peer
    /// answers with an ordinary outcome frame. `remaining` is the
    /// deadline budget left on the origin gateway (`None` = the task
    /// never had one), `hops` the remaining forward budget, and `tried`
    /// every gateway that has already held the task (origin included).
    ///
    /// # Errors
    ///
    /// As [`Client::submit_borrowed`].
    pub fn forward(
        &self,
        task: &Task,
        options: &[PathOption],
        remaining: Option<Duration>,
        hops: u8,
        origin: &str,
        tried: &[String],
    ) -> Result<PendingVerdict, NetError> {
        self.pend(|id| codec::encode_forward(id, budget_us(remaining), hops, origin, tried, task, options))
    }

    /// Asks a peer gateway for its load digest, blocking
    /// up to `timeout` — the shape the federation digest loop needs: a
    /// peer that cannot answer within the timeout counts as a missed
    /// digest instead of wedging the loop. `addr` / `incarnation`
    /// identify the *asking* gateway, so the peer can dial it back.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit_borrowed`];
    /// [`NetError::Server`] when the addressed backend is not a
    /// federation gateway; [`NetError::Disconnected`] when `timeout`
    /// elapses first.
    pub fn peer_hello(
        &self,
        addr: &str,
        incarnation: u64,
        timeout: Duration,
    ) -> Result<PeerDigest, NetError> {
        let hello = |request_id| {
            Frame::PeerHello(PeerHelloRequest { request_id, addr: addr.to_owned(), incarnation })
        };
        self.call(hello, Some(timeout), "a load digest", |f| match f {
            Frame::PeerLoad(r) => Some(r.digest),
            _ => None,
        })
    }

    /// Sends a departure notice for an admitted task. Fire-and-forget:
    /// the server releases the capacity and sends no response.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the frame could not be written.
    pub fn depart(&self, task: TaskId) -> Result<(), NetError> {
        self.write(&codec::encode(&Frame::Depart(DepartRequest { request_id: self.next_id(), task })))
    }

    /// Fetches a point-in-time metrics snapshot from the server
    /// (blocking; pipelines fine behind in-flight submits).
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit_borrowed`];
    /// [`NetError::Disconnected`] if the connection dies first.
    pub fn snapshot(&self) -> Result<MetricsSnapshot, NetError> {
        self.call(|request_id| Frame::Snapshot(SnapshotRequest { request_id }), None, "metrics", metrics)
    }

    /// Like [`Client::snapshot`] with a bound on the blocking time — the
    /// shape a health prober needs: a node that cannot answer a metrics
    /// request within the timeout counts as a missed check instead of
    /// wedging the prober.
    ///
    /// # Errors
    ///
    /// As [`Client::snapshot`], plus [`NetError::Disconnected`] when the
    /// timeout elapses first (the response is discarded by the reader if
    /// it arrives later).
    pub fn snapshot_timeout(&self, timeout: Duration) -> Result<MetricsSnapshot, NetError> {
        let snapshot = |request_id| Frame::Snapshot(SnapshotRequest { request_id });
        self.call(snapshot, Some(timeout), "metrics", metrics)
    }

    /// Asks the server to drain gracefully and blocks for the final
    /// metrics snapshot, which the server sends only after every verdict
    /// owed to this connection has been flushed.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit_borrowed`].
    pub fn drain(&self) -> Result<MetricsSnapshot, NetError> {
        self.call(|request_id| Frame::Drain(DrainRequest { request_id }), None, "metrics", metrics)
    }

    /// Asks the server to reshape its shard fleet to `shards` workers
    /// and blocks for the [`ScaleResponse`]. Pipelines fine behind
    /// in-flight submits: traffic keeps flowing while the server
    /// reshards.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] with [`crate::codec::ErrorCode::InvalidScale`]
    /// if the server refused (zero shards, draining); transport errors as
    /// for [`Client::submit_borrowed`].
    pub fn scale_to(&self, shards: u32) -> Result<ScaleResponse, NetError> {
        let scale = |request_id| Frame::Scale(ScaleRequest { request_id, shards });
        self.call(scale, None, "a scale response", |f| match f {
            Frame::Scaled(r) => Some(r),
            _ => None,
        })
    }

    /// Announces a serve node to a gateway: "`addr` is alive under
    /// `incarnation`, dial it". Blocks for the [`MembershipResponse`].
    /// The caller is typically the node's own frontend
    /// ([`crate::AnyServer::announce_to`]) rather than an
    /// admission client.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit_borrowed`];
    /// [`NetError::Disconnected`] when `timeout` elapses first or the
    /// peer answers with something other than a membership frame.
    pub fn announce(
        &self,
        addr: &str,
        incarnation: u64,
        timeout: Duration,
    ) -> Result<MembershipResponse, NetError> {
        let announce =
            |request_id| Frame::Announce(AnnounceRequest { request_id, addr: addr.to_owned(), incarnation });
        self.call(announce, Some(timeout), "a membership response", membership)
    }

    /// Deregisters a serve node from a gateway ahead of a graceful
    /// drain. Blocks for the [`MembershipResponse`], which the gateway
    /// sends once it has stopped routing new work to the node.
    ///
    /// # Errors
    ///
    /// As [`Client::announce`].
    pub fn leave(
        &self,
        addr: &str,
        incarnation: u64,
        timeout: Duration,
    ) -> Result<MembershipResponse, NetError> {
        let leave =
            |request_id| Frame::Leave(LeaveRequest { request_id, addr: addr.to_owned(), incarnation });
        self.call(leave, Some(timeout), "a membership response", membership)
    }

    /// Closes the connection and joins the reader thread. Pending
    /// verdicts resolve as [`NetError::Disconnected`]. Dropping the
    /// client does the same.
    pub fn close(self) {
        drop(self);
    }
}

/// A deadline budget as shipped on the wire: whole µs, at least 1 (0
/// means "no budget given").
fn budget_us(budget: Option<Duration>) -> u64 {
    budget.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1))
}

/// Maps a tier-specific wire failure onto the unified
/// [`VerdictError`] vocabulary: typed server refusals stay
/// distinguishable from transport deaths, so the cross-tier drivers
/// keep their separate tallies (and the conservation cross-checks that
/// depend on them).
fn verdict_error(e: NetError) -> VerdictError {
    match e {
        NetError::Server(err) => VerdictError::Refused(err.message),
        other => VerdictError::Transport(other.to_string()),
    }
}

impl offloadnn_serve::VerdictHandle for PendingVerdict {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        self.redeem(Some(Duration::ZERO)).map(|r| r.map_err(verdict_error))
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        self.redeem(None).map_or(Err(VerdictError::TimedOut), |r| r.map_err(verdict_error))
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        self.redeem(Some(timeout)).map_or(Err(VerdictError::TimedOut), |r| r.map_err(verdict_error))
    }

    /// Rung by the connection's reader thread when the reply lands, or
    /// when the connection dies first.
    fn ring_on_resolve(&self, bell: &Bell) {
        self.rx.ring_on_resolve(bell);
    }
}

impl Admitter for Client {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<offloadnn_serve::PendingVerdict, SubmitError> {
        match self.submit_borrowed(&task, &options, deadline) {
            Ok(pending) => Ok(offloadnn_serve::PendingVerdict::new(task.id, Box::new(pending))),
            // A submit that could not be written was never accepted
            // anywhere: the unified ingress refusal, not a lost verdict.
            Err(_) => Err(SubmitError::Unavailable),
        }
    }

    fn depart(&self, task: TaskId) {
        // Fire-and-forget on the trait: a transport error here is
        // indistinguishable from a client that crashed after admission,
        // which the server side already tolerates.
        let _ = Client::depart(self, task);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.snapshot().ok()
    }

    fn begin_drain(&self) {
        // The wire protocol's drain is a full fence + final snapshot;
        // discarding the snapshot leaves exactly the fence semantics
        // the trait asks for. Best-effort, as for depart.
        let _ = self.drain();
    }

    fn tier(&self) -> &'static str {
        "net"
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // The shutdown wakes the reader's blocked read; it closes the
        // reply table on its way out.
        let stream = self.stream.get_mut().unwrap_or_else(PoisonError::into_inner);
        let _ = stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The connection's driver: blocks in `read`, decodes outside the table
/// lock and delivers each frame under it. On EOF, a socket or protocol
/// error, or a connection-level server error it closes the table —
/// failing every request still pending and refusing later ones — and
/// shuts the socket down, so later writes fail too.
fn read_responses(mut stream: TcpStream, replies: &Mutex<Replies>) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match codec::decode(&buf) {
            Ok(Some((frame, consumed))) => {
                buf.drain(..consumed);
                let delivery = replies.lock().expect("reply table lock").deliver(frame);
                match delivery {
                    Delivery::Delivered => {}
                    Delivery::Unknown(id) => {
                        event!(Severity::Warn, "net.client", "response for unknown request {id}");
                    }
                    Delivery::ConnectionError(frame) => {
                        event!(Severity::Warn, "net.client", "connection-level server error: {frame:?}");
                        break;
                    }
                }
            }
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            },
            Err(e) => {
                event!(Severity::Warn, "net.client", "protocol error from server, disconnecting: {e}");
                break;
            }
        }
    }
    replies.lock().expect("reply table lock").close();
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_invalid_field_is_rejected_and_named() {
        assert!(ClientConfig::default().validate().is_ok());
        let refused = ClientConfig { connect_timeout: Duration::ZERO }.validate();
        assert!(
            matches!(refused, Err(NetError::InvalidConfig(what)) if what.starts_with("connect_timeout")),
            "{refused:?}"
        );
    }
}
