//! The client library: a pipelining connection to a [`crate::AnyServer`]
//! with per-request deadline propagation and reconnect with capped
//! exponential backoff.
//!
//! ## Pipelining
//!
//! [`Client::submit`] writes the request and returns a
//! [`PendingVerdict`] immediately; any number of requests may be in
//! flight at once. A background reader thread demultiplexes responses by
//! correlation id, so verdicts can be redeemed in any order. The server
//! bounds each connection's in-flight window — a client pipelining past
//! it is simply not read until verdicts flush, and the backpressure
//! reaches [`Client::submit`] through the blocked socket write.
//!
//! ## Deadline propagation
//!
//! The optional per-submit deadline travels in the frame as a budget in
//! microseconds. The server applies the *tighter* of that budget and its
//! own policy deadline ([`offloadnn_serve::ServiceConfig::admission_deadline`]),
//! so a client can shrink its admission window but never extend it.
//!
//! ## Reconnect
//!
//! Dialing (initial connect and any redial after the connection dies)
//! retries with capped exponential backoff *with decorrelated jitter*:
//! each pause is drawn uniformly from `[backoff_base, min(backoff_cap,
//! 3 × previous)]`, for at most [`ClientConfig::connect_attempts`]
//! attempts. The jitter matters at fleet scale — a deterministic
//! doubling schedule makes every client of a dead server sleep the same
//! amounts from the same trigger and stampede it in lockstep the moment
//! it recovers. Requests that were in flight when a connection died
//! resolve as [`NetError::Disconnected`] — a submit is not idempotent,
//! so the client never silently replays one; the *next* request dials
//! afresh.

use crate::backoff::{entropy_seed, ReconnectBackoff};
use crate::codec::{
    self, AnnounceRequest, DepartRequest, DrainRequest, Frame, LeaveRequest, MembershipResponse, PeerDigest,
    PeerHelloRequest, ScaleRequest, ScaleResponse, SnapshotRequest,
};
use crate::error::NetError;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use offloadnn_serve::{Admitter, MetricsSnapshot, Outcome, SubmitError, VerdictError};
use offloadnn_telemetry::{event, Histogram, Severity};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Dial attempts (initial connect or redial) before giving up with
    /// [`NetError::Disconnected`].
    pub connect_attempts: u32,
    /// Lower bound of every reconnect pause (and the bound the jittered
    /// envelope grows from).
    pub backoff_base: Duration,
    /// Backoff ceiling — every jittered pause is clamped here.
    pub backoff_cap: Duration,
}

/// Socket read timeout — the cadence at which the reader thread rechecks
/// the close flag while idle.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Socket write timeout; a server that cannot absorb a request this long
/// (window full and never draining it) fails the send.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            connect_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
        }
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
        if self.connect_attempts == 0 {
            return Err(NetError::InvalidConfig("connect_attempts must be >= 1"));
        }
        if self.backoff_base.is_zero() {
            return Err(NetError::InvalidConfig("backoff_base must be > 0"));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(NetError::InvalidConfig("backoff_cap must be >= backoff_base"));
        }
        Ok(())
    }
}

/// The round-trip latency histogram (`net.rtt` on the global telemetry
/// registry): submit write to verdict arrival.
fn rtt_histogram() -> &'static Arc<Histogram> {
    static RTT: OnceLock<Arc<Histogram>> = OnceLock::new();
    RTT.get_or_init(|| offloadnn_telemetry::global().phase("net.rtt"))
}

/// Responses owed on one connection incarnation, keyed by correlation
/// id. Owned jointly by the facade (inserts) and that incarnation's
/// reader thread (removes + delivers; clears on exit). Per-incarnation
/// so a reader that dies can only fail *its own* requests, never ones
/// registered after a redial.
type ReplyMap = Arc<Mutex<HashMap<u64, Sender<Frame>>>>;

/// One live connection: write half, reader thread, and the requests in
/// flight on it.
struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    /// Set by the reader when the connection dies (EOF, socket error,
    /// protocol error or a connection-level server error).
    dead: Arc<AtomicBool>,
    pending: ReplyMap,
}

/// A connection to a [`crate::AnyServer`]. Submissions pipeline: each
/// [`Client::submit`] returns a [`PendingVerdict`] redeemable in any
/// order, and a dead connection is redialed (with backoff) on the next
/// request. All methods take `&self` and are thread-safe; requests from
/// multiple threads share the one connection and its in-flight window.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Mutex<Option<Conn>>,
    /// Tells the reader thread(s) to exit at their next timeout tick.
    closing: Arc<AtomicBool>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Handle to one pipelined submit; redeem it with
/// [`PendingVerdict::wait`].
#[derive(Debug)]
pub struct PendingVerdict {
    rx: Receiver<Frame>,
    sent_at: Instant,
    /// Id of the submitted task.
    pub task: TaskId,
    /// Correlation id the response will carry.
    pub request_id: u64,
}

impl PendingVerdict {
    fn interpret_ref(&self, frame: Frame) -> Result<Outcome, NetError> {
        if offloadnn_telemetry::enabled() {
            rtt_histogram().record(self.sent_at.elapsed());
        }
        match frame {
            Frame::Outcome(r) => Ok(r.outcome),
            Frame::Error(e) => Err(NetError::Server(e)),
            other => Err(NetError::Disconnected(format!(
                "unexpected {} frame in place of a verdict",
                other.type_name()
            ))),
        }
    }

    /// Blocks until the verdict (or a server error) arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] if the server answered with an error frame
    /// (e.g. it is draining), [`NetError::Disconnected`] if the
    /// connection died before the verdict arrived.
    pub fn wait(self) -> Result<Outcome, NetError> {
        let frame = self
            .rx
            .recv()
            .map_err(|_| NetError::Disconnected("connection died before the verdict".into()))?;
        self.interpret_ref(frame)
    }

    /// Like [`PendingVerdict::wait`] with a bound on the blocking time.
    ///
    /// # Errors
    ///
    /// As [`PendingVerdict::wait`], plus [`NetError::Disconnected`] on
    /// timeout (the verdict may still arrive later; the handle is
    /// consumed either way).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Outcome, NetError> {
        let frame = self
            .rx
            .recv_timeout(timeout)
            .map_err(|_| NetError::Disconnected("no verdict within the timeout".into()))?;
        self.interpret_ref(frame)
    }

    /// Non-blocking, non-consuming check: `None` while the verdict is
    /// still in flight, `Some(...)` once it resolved. Racing two
    /// submissions (a hedged request) needs exactly this shape — the
    /// vendored channel has no `select`, so the racer alternates polls
    /// on both handles.
    ///
    /// Once `Some(...)` has been returned, the verdict is consumed and
    /// further polls report the connection as closed.
    pub fn poll(&self) -> Option<Result<Outcome, NetError>> {
        match self.rx.try_recv() {
            Ok(frame) => Some(self.interpret_ref(frame)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                Some(Err(NetError::Disconnected("connection died before the verdict".into())))
            }
        }
    }

    /// Like [`PendingVerdict::poll`] but blocks up to `timeout` for the
    /// verdict. `None` strictly means the timeout elapsed with the
    /// request still in flight.
    pub fn poll_wait(&self, timeout: Duration) -> Option<Result<Outcome, NetError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Some(self.interpret_ref(frame)),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                Some(Err(NetError::Disconnected("connection died before the verdict".into())))
            }
        }
    }
}

impl Client {
    /// Resolves `addr` and dials it (with the configured backoff
    /// schedule), returning a connected client.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if `addr` does not resolve,
    /// [`NetError::Disconnected`] when every dial attempt failed.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, NetError> {
        config.validate()?;
        let addr =
            addr.to_socket_addrs()?.next().ok_or(NetError::InvalidConfig("address resolved to nothing"))?;
        let client = Self {
            addr,
            config,
            conn: Mutex::new(None),
            closing: Arc::new(AtomicBool::new(false)),
            next_id: AtomicU64::new(1),
        };
        // Fail fast on an unreachable server instead of on first use.
        let first = client.dial()?;
        *client.conn.lock().expect("conn lock") = Some(first);
        Ok(client)
    }

    /// The server address this client dials.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Dials with capped, decorrelated-jitter backoff and spawns the
    /// connection's reader thread.
    fn dial(&self) -> Result<Conn, NetError> {
        let mut backoff =
            ReconnectBackoff::new(self.config.backoff_base, self.config.backoff_cap, entropy_seed());
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.config.connect_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
            }
            match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let read_half = stream.try_clone().map_err(NetError::Io)?;
                    read_half.set_read_timeout(Some(READ_TIMEOUT)).map_err(NetError::Io)?;
                    let dead = Arc::new(AtomicBool::new(false));
                    let pending: ReplyMap = Arc::new(Mutex::new(HashMap::new()));
                    let reader = {
                        let pending = Arc::clone(&pending);
                        let dead = Arc::clone(&dead);
                        let closing = Arc::clone(&self.closing);
                        std::thread::Builder::new()
                            .name("net-client-reader".into())
                            .spawn(move || read_responses(read_half, &pending, &dead, &closing))
                            .map_err(NetError::Io)?
                    };
                    event!(
                        Severity::Info,
                        "net.client",
                        "connected to {} (attempt {})",
                        self.addr,
                        attempt + 1
                    );
                    return Ok(Conn { stream, reader, dead, pending });
                }
                Err(e) => {
                    event!(
                        Severity::Warn,
                        "net.client",
                        "dial {} failed (attempt {}): {e}",
                        self.addr,
                        attempt + 1
                    );
                    last = Some(e);
                }
            }
        }
        Err(NetError::Disconnected(format!(
            "gave up dialing {} after {} attempt(s): {}",
            self.addr,
            self.config.connect_attempts,
            last.map_or_else(|| "no attempt made".to_owned(), |e| e.to_string()),
        )))
    }

    /// Writes one encoded frame on the live connection — redialing first
    /// if the previous connection died — and, when the frame expects a
    /// response, registers its correlation id on that same incarnation's
    /// pending map (atomically with the write, so a reader death can
    /// never orphan the slot on the wrong incarnation).
    fn send(
        &self,
        request_id: u64,
        bytes: &[u8],
        want_reply: bool,
    ) -> Result<Option<Receiver<Frame>>, NetError> {
        let mut guard = self.conn.lock().expect("conn lock");
        // Reap a dead connection before writing (its reader has already
        // failed the requests pending on that incarnation).
        if guard.as_ref().is_some_and(|c| c.dead.load(Ordering::Acquire)) {
            if let Some(old) = guard.take() {
                let _ = old.reader.join();
            }
        }
        if guard.is_none() {
            *guard = Some(self.dial()?);
        }
        let conn = guard.as_mut().expect("connection just established");
        let rx = if want_reply {
            let (tx, rx) = channel::bounded(1);
            conn.pending.lock().expect("pending lock").insert(request_id, tx);
            Some(rx)
        } else {
            None
        };
        match conn.stream.write_all(bytes) {
            Ok(()) => Ok(rx),
            Err(e) => {
                // The write failed mid-frame: the connection's framing
                // can no longer be trusted; tear it down. The reader's
                // exit fails every other request pending on it.
                conn.pending.lock().expect("pending lock").remove(&request_id);
                conn.dead.store(true, Ordering::Release);
                let _ = conn.stream.shutdown(Shutdown::Both);
                Err(NetError::Io(e))
            }
        }
    }

    /// Submits an admission request, pipelined: returns as soon as the
    /// frame is written. `deadline` is the admission budget shipped to
    /// the server (`None` = the server's policy deadline); the server
    /// enforces the tighter of the two.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Disconnected`] when the frame
    /// could not be written (after any redial attempts).
    pub fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, NetError> {
        self.submit_borrowed(&task, &options, deadline)
    }

    /// [`Client::submit`] for a caller that keeps its task and options
    /// (a gateway ticket that may have to fail over): the frame is
    /// encoded straight from the borrowed request, nothing is copied.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_borrowed(
        &self,
        task: &Task,
        options: &[PathOption],
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, NetError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = codec::encode_submit(request_id, budget_us(deadline), task, options);
        self.send_request(request_id, &bytes, task.id)
    }

    /// Forwards an overflow admission to a peer gateway.
    /// Pipelined exactly like [`Client::submit`] — the peer answers with
    /// an ordinary outcome frame. `remaining` is the deadline budget
    /// left on the origin gateway (`None` = the task never had one),
    /// `hops` the remaining forward budget, and `tried` every gateway
    /// that has already held the task (origin included). Task and
    /// options are borrowed, as in [`Client::submit_borrowed`].
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn forward(
        &self,
        task: &Task,
        options: &[PathOption],
        remaining: Option<Duration>,
        hops: u8,
        origin: &str,
        tried: &[String],
    ) -> Result<PendingVerdict, NetError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes =
            codec::encode_forward(request_id, budget_us(remaining), hops, origin, tried, task, options);
        self.send_request(request_id, &bytes, task.id)
    }

    /// Writes an encoded admission frame and hands back its verdict slot.
    fn send_request(&self, request_id: u64, bytes: &[u8], task: TaskId) -> Result<PendingVerdict, NetError> {
        let sent_at = Instant::now();
        let rx = self.send(request_id, bytes, true)?.expect("reply slot requested");
        Ok(PendingVerdict { rx, sent_at, task, request_id })
    }

    /// Asks a peer gateway for its load digest, blocking
    /// up to `timeout` — the shape the federation digest loop needs: a
    /// peer that cannot answer within the timeout counts as a missed
    /// digest instead of wedging the loop. `addr` / `incarnation`
    /// identify the *asking* gateway, so the peer can dial it back.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit`]; [`NetError::Server`]
    /// when the addressed backend is not a federation gateway;
    /// [`NetError::Disconnected`] when `timeout` elapses first.
    pub fn peer_hello(
        &self,
        addr: &str,
        incarnation: u64,
        timeout: Duration,
    ) -> Result<PeerDigest, NetError> {
        let rx = self.request(|request_id| {
            Frame::PeerHello(PeerHelloRequest { request_id, addr: addr.to_owned(), incarnation })
        })?;
        Self::reply(&rx, Some(timeout), "a load digest", |f| match f {
            Frame::PeerLoad(r) => Some(r.digest),
            _ => None,
        })
    }

    /// Sends a departure notice for an admitted task. Fire-and-forget:
    /// the server releases the capacity and sends no response.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Disconnected`] when the frame
    /// could not be written.
    pub fn depart(&self, task: TaskId) -> Result<(), NetError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::Depart(DepartRequest { request_id, task });
        self.send(request_id, &codec::encode(&frame), false).map(|_| ())
    }

    /// Fetches a point-in-time metrics snapshot from the server
    /// (blocking; pipelines fine behind in-flight submits).
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit`];
    /// [`NetError::Disconnected`] if the connection dies first.
    pub fn snapshot(&self) -> Result<MetricsSnapshot, NetError> {
        let rx = self.request(|request_id| Frame::Snapshot(SnapshotRequest { request_id }))?;
        Self::metrics_reply(&rx, None)
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
        let rx = self.request(|request_id| Frame::Snapshot(SnapshotRequest { request_id }))?;
        Self::metrics_reply(&rx, Some(timeout))
    }

    /// Asks the server to drain gracefully and blocks for the final
    /// metrics snapshot, which the server sends only after every verdict
    /// owed to this connection has been flushed.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`Client::submit`].
    pub fn drain(&self) -> Result<MetricsSnapshot, NetError> {
        let rx = self.request(|request_id| Frame::Drain(DrainRequest { request_id }))?;
        Self::metrics_reply(&rx, None)
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
    /// for [`Client::submit`].
    pub fn scale_to(&self, shards: u32) -> Result<ScaleResponse, NetError> {
        let rx = self.request(|request_id| Frame::Scale(ScaleRequest { request_id, shards }))?;
        Self::reply(&rx, None, "a scale response", |f| match f {
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
    /// Transport errors as for [`Client::submit`];
    /// [`NetError::Disconnected`] when `timeout` elapses first or the
    /// peer answers with something other than a membership frame.
    pub fn announce(
        &self,
        addr: &str,
        incarnation: u64,
        timeout: Duration,
    ) -> Result<MembershipResponse, NetError> {
        let rx = self.request(|request_id| {
            Frame::Announce(AnnounceRequest { request_id, addr: addr.to_owned(), incarnation })
        })?;
        Self::membership_reply(&rx, timeout)
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
        let rx = self.request(|request_id| {
            Frame::Leave(LeaveRequest { request_id, addr: addr.to_owned(), incarnation })
        })?;
        Self::membership_reply(&rx, timeout)
    }

    /// Sends the request `build` makes of a fresh correlation id and
    /// returns the channel its reply will arrive on.
    fn request(&self, build: impl FnOnce(u64) -> Frame) -> Result<Receiver<Frame>, NetError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = codec::encode(&build(request_id));
        Ok(self.send(request_id, &bytes, true)?.expect("reply slot requested"))
    }

    /// Blocks (up to `timeout`, if any) for the reply on `rx` and unwraps
    /// the frame kind `pick` accepts. An error frame surfaces as
    /// [`NetError::Server`]; any other frame, a timeout or a dead
    /// connection as [`NetError::Disconnected`] (a late reply is
    /// discarded by the reader).
    fn reply<T>(
        rx: &Receiver<Frame>,
        timeout: Option<Duration>,
        what: &str,
        pick: impl FnOnce(Frame) -> Option<T>,
    ) -> Result<T, NetError> {
        let died = || NetError::Disconnected(format!("connection died waiting for {what}"));
        let frame = match timeout {
            None => rx.recv().map_err(|_| died())?,
            Some(timeout) => rx.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => NetError::Disconnected(format!("timed out waiting for {what}")),
                RecvTimeoutError::Disconnected => died(),
            })?,
        };
        match frame {
            Frame::Error(e) => Err(NetError::Server(e)),
            other => {
                let got = other.type_name();
                pick(other).ok_or_else(|| {
                    NetError::Disconnected(format!("unexpected {got} frame in place of {what}"))
                })
            }
        }
    }

    fn metrics_reply(rx: &Receiver<Frame>, timeout: Option<Duration>) -> Result<MetricsSnapshot, NetError> {
        Self::reply(rx, timeout, "metrics", |f| match f {
            Frame::Metrics(m) => Some(m.metrics),
            _ => None,
        })
    }

    fn membership_reply(rx: &Receiver<Frame>, timeout: Duration) -> Result<MembershipResponse, NetError> {
        Self::reply(rx, Some(timeout), "a membership response", |f| match f {
            Frame::Membership(m) => Some(m),
            _ => None,
        })
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
        PendingVerdict::poll(self).map(|r| r.map_err(verdict_error))
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        PendingVerdict::wait(*self).map_err(verdict_error)
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        // poll_wait distinguishes "bound elapsed" from "connection
        // died", which the consuming wait_timeout folds together.
        match PendingVerdict::poll_wait(&self, timeout) {
            Some(r) => r.map_err(verdict_error),
            None => Err(VerdictError::TimedOut),
        }
    }
}

impl Admitter for Client {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<offloadnn_serve::PendingVerdict, SubmitError> {
        let task_id = task.id;
        match Client::submit(self, task, options, deadline) {
            Ok(pending) => Ok(offloadnn_serve::PendingVerdict::new(task_id, Box::new(pending))),
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
        self.closing.store(true, Ordering::Release);
        if let Some(conn) = self.conn.lock().expect("conn lock").take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = conn.reader.join();
        }
    }
}

/// The reader thread of one connection incarnation: decodes response
/// frames and routes each to its pending request by correlation id. On
/// exit (EOF, socket error, protocol error or client close), every
/// request still pending on this incarnation is failed by dropping its
/// sender.
fn read_responses(
    mut stream: TcpStream,
    pending: &ReplyMap,
    dead: &Arc<AtomicBool>,
    closing: &Arc<AtomicBool>,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    'conn: loop {
        loop {
            match codec::decode(&buf) {
                Ok(Some((frame, consumed))) => {
                    buf.drain(..consumed);
                    let id = frame.request_id();
                    // A connection-level error (id 0) has no owner; the
                    // server closes the connection after sending it.
                    if id == 0 {
                        event!(Severity::Warn, "net.client", "connection-level server error: {frame:?}");
                        break 'conn;
                    }
                    let slot = pending.lock().expect("pending lock").remove(&id);
                    match slot {
                        Some(tx) => {
                            let _ = tx.send(frame);
                        }
                        None => {
                            event!(Severity::Warn, "net.client", "response for unknown request {id}");
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    event!(Severity::Warn, "net.client", "protocol error from server, closing: {e}");
                    break 'conn;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break 'conn,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                if closing.load(Ordering::Acquire) {
                    break 'conn;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break 'conn,
        }
    }
    dead.store(true, Ordering::Release);
    let _ = stream.shutdown(Shutdown::Both);
    // Fail everything this incarnation still owes: dropping the senders
    // disconnects the receivers, surfacing NetError::Disconnected.
    pending.lock().expect("pending lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_invalid_field_is_rejected_and_named() {
        let base = ClientConfig::default();
        assert!(base.validate().is_ok());
        let cases = [
            ("connect_timeout", ClientConfig { connect_timeout: Duration::ZERO, ..base }),
            ("connect_attempts", ClientConfig { connect_attempts: 0, ..base }),
            ("backoff_base", ClientConfig { backoff_base: Duration::ZERO, ..base }),
            ("backoff_cap", ClientConfig { backoff_cap: base.backoff_base / 2, ..base }),
        ];
        for (field, cfg) in cases {
            let refused = cfg.validate();
            assert!(
                matches!(refused, Err(NetError::InvalidConfig(what)) if what.starts_with(field)),
                "{field}: {refused:?}"
            );
        }
    }
}
