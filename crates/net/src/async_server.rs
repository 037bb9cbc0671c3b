//! The one connection engine behind both [`crate::Frontend`]s: an epoll
//! event loop over nonblocking sockets (`offloadnn-reactor`).
//! [`crate::Frontend::Reactor`] runs a fixed pool of [`EVENT_LOOPS`]
//! loops fed connections round-robin, so thousands of mostly idle UEs
//! cost no thread each; [`crate::Frontend::Threads`] runs one loop per
//! connection, on a thread that exits with it.
//!
//! ```text
//! event loop: epoll_wait (1 ms while a reply is owed, else 50 ms) → read
//!             → decode → dispatcher → write the reply, or owe it (owed.rs)
//!             → write each owed reply whose bell rang → every 1 ms poll
//!             every owed reply → flush (partial writes resume on EPOLLOUT)
//! helper:     one short-lived thread per Scale or drain acknowledgement
//! ```
//!
//! Replies leave in resolution order: a loop never waits on a verdict.
//! It hands each one a [`Bell`] that notes the reply and wakes the loop
//! when the verdict resolves, so one slow verdict delays no other, on
//! its connection or its loop. The poll every [`TURN`] keeps a gateway
//! ticket's hedge trigger, recheck and deadline firing and resolves a
//! handle that never rings. What may block — a reshard, or a drain
//! acknowledgement that dials the gateway to leave — runs on a helper
//! thread whose reply is owed like a verdict; a loop joins its helpers
//! before it exits. A connection owing `INFLIGHT_WINDOW` replies, or
//! with [`WBUF_PAUSE`] bytes unflushed, loses read interest, so
//! backpressure reaches the client through its TCP window.

use crate::backend::Backend;
use crate::codec::{self, Frame};
use crate::dispatch::{dispatch, Action, Job, Owe};
use crate::owed::{Entry, Owed};
use crate::shared::{Shared, INFLIGHT_WINDOW, WRITE_TIMEOUT};
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_reactor::{Epoll, Event, Events, Interest, Waker};
use offloadnn_serve::{mailbox, Bell};
use offloadnn_telemetry::{event, Severity};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The epoll token reserved for each loop's waker pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Reads drained per readiness event before yielding to other
/// connections (level-triggered epoll re-reports leftover readiness).
const MAX_READS_PER_EVENT: usize = 8;
/// Unflushed write backlog past which a connection stops being read —
/// the bound on per-connection write-queue memory.
const WBUF_PAUSE: usize = 256 * 1024;

/// Event loops of [`crate::Frontend::Reactor`]. The whole point of the
/// shape: this stays small and fixed while connection counts grow into
/// the thousands.
const EVENT_LOOPS: usize = 2;
/// Readiness events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;
/// `epoll_wait` timeout of a loop that owes nothing — the cadence at
/// which it rechecks the shutdown flag and write deadlines.
const WAIT_TIMEOUT: Duration = Duration::from_millis(50);
/// The longest a loop that owes a reply goes between turns, and how
/// often it polls every reply it owes: epoll's resolution.
const TURN: Duration = Duration::from_millis(1);

/// The connection token and owed key of each reply whose bell rang.
type Rung = Arc<Mutex<Vec<(u64, u64)>>>;

/// The acceptor's handle to one running event loop.
pub(crate) struct Loop {
    /// Where a fixed pool's loop is handed connections; `None` for a loop
    /// that serves the one connection it started with.
    incoming: Option<Sender<TcpStream>>,
    waker: Arc<Waker>,
    thread: JoinHandle<()>,
}

/// The running event loops of one server.
pub(crate) struct Pool {
    /// Every loop started and not yet seen finished.
    pub(crate) loops: Vec<Loop>,
    /// [`EVENT_LOOPS`] loops fed round-robin, or one loop per connection.
    fixed: bool,
    /// Connections adopted so far (the next connection's id).
    pub(crate) adopted: usize,
}

impl Pool {
    /// The [`crate::Frontend::Reactor`] shape: sets up and starts the
    /// fixed loops.
    pub(crate) fn fixed<B: Backend>(shared: &Arc<Shared<B>>) -> std::io::Result<Self> {
        let mut pool = Pool { loops: Vec::new(), fixed: true, adopted: 0 };
        for loop_id in 0..EVENT_LOOPS {
            let (tx, rx) = channel::unbounded();
            let (waker, thread) = EventLoop::spawn(shared, format!("net-rloop-{loop_id}"), Some(rx), None)?;
            pool.loops.push(Loop { incoming: Some(tx), waker, thread });
        }
        Ok(pool)
    }

    /// The [`crate::Frontend::Threads`] shape: a loop starts with each
    /// connection.
    pub(crate) fn per_connection() -> Self {
        Pool { loops: Vec::new(), fixed: false, adopted: 0 }
    }

    /// Serves an accepted (and already counted) connection; `false` if
    /// no loop took it, so the caller undoes the accounting.
    pub(crate) fn adopt<B: Backend>(&mut self, stream: TcpStream, shared: &Arc<Shared<B>>) -> bool {
        let conn_id = self.adopted;
        self.adopted += 1;
        if self.fixed {
            let handle = &self.loops[conn_id % self.loops.len()];
            let adopted = handle.incoming.as_ref().is_some_and(|tx| tx.send(stream).is_ok());
            if adopted {
                handle.waker.wake();
            }
            return adopted;
        }
        // Join the loops of connections that closed, so the list holds
        // live connections only.
        for done in self.loops.extract_if(.., |l| l.thread.is_finished()) {
            let _ = done.thread.join();
        }
        match EventLoop::spawn(shared, format!("net-conn-{conn_id}"), None, Some(stream)) {
            Ok((waker, thread)) => {
                self.loops.push(Loop { incoming: None, waker, thread });
                true
            }
            Err(e) => {
                event!(Severity::Warn, "net.server", "conn {conn_id}: no event loop: {e}");
                false
            }
        }
    }

    /// Wakes the loops so they notice the shutdown flag, flush and exit,
    /// then joins them (each joined its helpers first).
    pub(crate) fn stop(self) {
        for l in &self.loops {
            l.waker.wake();
        }
        for l in self.loops {
            let _ = l.thread.join();
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// Replies owed and not yet written.
    owed: Owed<Owe, Job>,
    /// The socket's read side is finished (EOF or server shutdown);
    /// frames already buffered still get parsed.
    eof: bool,
    /// Protocol violation: parsing stopped, the connection closes once
    /// its owed replies flush.
    aborted: bool,
    /// The socket is unusable; discard writes, settle what is owed.
    dead: bool,
    /// Interest currently registered with epoll.
    interest: Interest,
    /// When the unflushed backlog last made progress (write-timeout
    /// enforcement).
    stalled_since: Option<Instant>,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn paused(&self) -> bool {
        self.owed.len() >= INFLIGHT_WINDOW || self.backlog() >= WBUF_PAUSE
    }

    fn done_for_good(&self) -> bool {
        self.owed.is_empty() && (self.eof || self.aborted) && (self.dead || self.backlog() == 0)
    }
}

/// Appends one reply to a connection's write buffer; a dead socket's
/// replies are discarded.
fn queue(wbuf: &mut Vec<u8>, dead: bool, frame: &Frame) {
    if !dead {
        wbuf.extend_from_slice(&codec::encode(frame));
    }
}

/// A connection slot; `gen` survives reuse so stale tokens (epoll events
/// or bells of a closed connection) are recognised.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

/// The bell of the reply owed under `key` on connection `token`: notes
/// the pair and wakes the loop. Never blocks the ringing thread beyond
/// the push.
fn bell(rung: &Rung, waker: &Arc<Waker>, token: u64, key: u64) -> Bell {
    let (rung, waker) = (Arc::clone(rung), Arc::clone(waker));
    Arc::new(move || {
        rung.lock().unwrap_or_else(PoisonError::into_inner).push((token, key));
        waker.wake();
    })
}

/// Runs `job` on a short-lived helper thread. The returned reply rings
/// `bell` when the helper answers — or when it dies unanswered, or never
/// starts, which drops its responder and reads as an error reply.
fn start_job<B: Backend>(
    shared: &Arc<Shared<B>>,
    helpers: &mut Vec<JoinHandle<()>>,
    job: Job,
    bell: &Bell,
) -> Owe {
    let (responder, reply) = mailbox();
    reply.ring_on_resolve(bell);
    let shared = Arc::clone(shared);
    if let Ok(helper) =
        std::thread::Builder::new().name("net-helper".into()).spawn(move || responder.send(shared.help(job)))
    {
        helpers.push(helper);
    }
    Owe::Job { request_id: job.request_id(), reply }
}

struct EventLoop<B: Backend> {
    shared: Arc<Shared<B>>,
    epoll: Epoll,
    waker: Arc<Waker>,
    /// A fixed pool's loop takes connections from the acceptor here; a
    /// loop without it exits with the connection it started with.
    incoming: Option<Receiver<TcpStream>>,
    rung: Rung,
    /// Helper threads not yet seen finished.
    helpers: Vec<JoinHandle<()>>,
    /// When every owed reply was last polled.
    polled_at: Instant,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl<B: Backend> EventLoop<B> {
    /// Sets up a loop (serving `first` from the start, if given) and
    /// runs it on a thread named `name`.
    fn spawn(
        shared: &Arc<Shared<B>>,
        name: String,
        incoming: Option<Receiver<TcpStream>>,
        first: Option<TcpStream>,
    ) -> std::io::Result<(Arc<Waker>, JoinHandle<()>)> {
        let epoll = Epoll::new()?;
        let waker = Arc::new(Waker::new()?);
        epoll.add(waker.fd(), WAKE_TOKEN, Interest::READABLE)?;
        let mut event_loop = EventLoop {
            shared: Arc::clone(shared),
            epoll,
            waker: Arc::clone(&waker),
            incoming,
            rung: Arc::default(),
            helpers: Vec::new(),
            polled_at: Instant::now(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        };
        if let Some(stream) = first {
            event_loop.register(stream);
        }
        let thread = std::thread::Builder::new().name(name).spawn(move || event_loop.run())?;
        Ok((waker, thread))
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(MAX_EVENTS);
        let mut ready: Vec<Event> = Vec::with_capacity(MAX_EVENTS);
        let mut owes = false;
        loop {
            let timeout = if owes { TURN } else { WAIT_TIMEOUT };
            if let Err(e) = self.epoll.wait(&mut events, Some(timeout)) {
                event!(Severity::Warn, "net.async", "epoll_wait failed: {e}");
                break;
            }
            if let Some(instruments) = &self.shared.instruments {
                instruments.epoll_wakeups.inc();
            }
            let mut woken = events.is_empty();
            ready.clear();
            ready.extend(events.iter());
            for ev in ready.drain(..) {
                if ev.token == WAKE_TOKEN {
                    woken = true;
                } else {
                    self.conn_event(ev);
                }
            }
            if woken {
                // Drain (re-arming the waker) *before* reading the
                // queues: a wake racing with the drain re-fires instead
                // of being lost.
                self.waker.drain();
            }
            while let Some(stream) = self.incoming.as_ref().and_then(|rx| rx.try_recv().ok()) {
                self.register(stream);
            }
            self.ring();
            let now = Instant::now();
            let poll_all = now.saturating_duration_since(self.polled_at) >= TURN;
            if poll_all {
                self.polled_at = now;
            }
            let shutting_down = self.shared.is_shutting_down();
            owes = self.sweep(shutting_down, poll_all);
            for helper in self.helpers.extract_if(.., |h| h.is_finished()) {
                let _ = helper.join();
            }
            if self.live == 0 && (shutting_down || self.incoming.is_none()) {
                break;
            }
        }
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }

    /// Adopts a freshly accepted connection into a slot + epoll.
    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.discard_unregistered(stream);
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let token = token_of(self.slots[idx].gen, idx);
        let interest = Interest::READABLE;
        if self.epoll.add(stream.as_raw_fd(), token, interest).is_err() {
            self.free.push(idx);
            self.discard_unregistered(stream);
            return;
        }
        self.slots[idx].conn = Some(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            owed: Owed::new(),
            eof: false,
            aborted: false,
            dead: false,
            interest,
            stalled_since: None,
        });
        self.live += 1;
    }

    /// Drops a connection that never made it into epoll.
    fn discard_unregistered(&self, stream: TcpStream) {
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
        self.shared.conn_closed();
    }

    /// Resolves a token to its slot index, ignoring stale generations.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get(idx)?;
        (slot.gen == gen && slot.conn.is_some()).then_some(idx)
    }

    fn conn(&mut self, idx: usize) -> &mut Conn {
        self.slots[idx].conn.as_mut().expect("resolved conn")
    }

    /// Handles one readiness event for one connection.
    fn conn_event(&mut self, ev: Event) {
        let Some(idx) = self.resolve(ev.token) else { return };
        if let Some(instruments) = &self.shared.instruments {
            if ev.readable || ev.read_closed || ev.hangup || ev.error {
                instruments.readiness_read.inc();
            }
            if ev.writable {
                instruments.readiness_write.inc();
            }
        }
        if ev.readable || ev.read_closed || ev.hangup || ev.error {
            self.handle_readable(idx);
        }
        if ev.writable {
            self.try_flush(idx);
        }
        self.finish_conn_turn(idx);
    }

    /// Reads until `WouldBlock`/EOF (bounded per event), then parses.
    fn handle_readable(&mut self, idx: usize) {
        let conn = self.conn(idx);
        if conn.eof || conn.aborted || conn.dead {
            // Still consume the readiness so a half-closed peer doesn't
            // spin the loop: read and discard until EOF/WouldBlock.
            let mut sink = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut sink) {
                    Ok(0) | Err(_) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(_) => {}
                }
            }
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        self.parse_frames(idx);
    }

    /// Parses every complete buffered frame, stopping at the in-flight
    /// window (the bytes keep in `rbuf`; parsing resumes as owed replies
    /// are written) or on a protocol violation.
    fn parse_frames(&mut self, idx: usize) {
        loop {
            let conn = self.conn(idx);
            if conn.aborted || conn.dead || conn.rbuf.is_empty() || conn.paused() {
                return;
            }
            match codec::decode(&conn.rbuf) {
                Ok(Some((frame, consumed))) => {
                    conn.rbuf.drain(..consumed);
                    let action = dispatch(&self.shared.service, frame);
                    self.act(idx, action);
                }
                Ok(None) => return, // incomplete: wait for more bytes
                Err(e) => {
                    event!(Severity::Warn, "net.async", "protocol error, closing: {e}");
                    self.act(idx, Action::protocol_error(e));
                    return;
                }
            }
        }
    }

    /// Does what one dispatched frame asks: writes its reply, or owes
    /// it — a verdict rings this loop when it resolves, a job runs on a
    /// helper thread (a drain acknowledgement once it is due).
    fn act(&mut self, idx: usize, action: Action) {
        let token = token_of(self.slots[idx].gen, idx);
        let Self { slots, shared, helpers, rung, waker, .. } = self;
        let conn = slots[idx].conn.as_mut().expect("resolved conn");
        let key = match action {
            Action::Nothing => return,
            Action::Reply(frame) => return queue(&mut conn.wbuf, conn.dead, &frame),
            Action::ReplyThenClose(frame) => {
                conn.aborted = true;
                conn.rbuf.clear();
                conn.owed.owe(|_| Entry::Closing(Box::new(frame)))
            }
            Action::Verdict { request_id, ticket } => conn.owed.owe(|key| {
                ticket.ring_on_resolve(&bell(rung, waker, token, key));
                Entry::Held(Owe::Verdict { request_id, ticket })
            }),
            Action::Help(job @ Job::FinalMetrics { .. }) => conn.owed.owe(|_| Entry::Deferred(job)),
            Action::Help(job) => conn
                .owed
                .owe(|key| Entry::Held(start_job(shared, helpers, job, &bell(rung, waker, token, key)))),
        };
        self.settle(idx, Some(key));
    }

    /// Writes the owed replies that resolved — the one under `key`, or
    /// every one when `None` — and whatever that makes due.
    fn settle(&mut self, idx: usize, key: Option<u64>) {
        let token = token_of(self.slots[idx].gen, idx);
        let Self { slots, shared, helpers, rung, waker, .. } = self;
        let Conn { owed, wbuf, dead, .. } = slots[idx].conn.as_mut().expect("resolved conn");
        let start = |key, job| start_job(shared, helpers, job, &bell(rung, waker, token, key));
        owed.settle(key, Owe::poll, start, |frame| queue(wbuf, *dead, &frame));
    }

    /// Writes the replies whose bells rang since the last turn; the
    /// turn's sweep flushes each connection once.
    fn ring(&mut self) {
        let rung = std::mem::take(&mut *self.rung.lock().unwrap_or_else(PoisonError::into_inner));
        for (token, key) in rung {
            if let Some(idx) = self.resolve(token) {
                self.settle(idx, Some(key));
            }
        }
    }

    /// Writes as much of the backlog as the socket absorbs; partial
    /// writes keep their position and resume on `EPOLLOUT`.
    fn try_flush(&mut self, idx: usize) {
        let conn = self.conn(idx);
        if conn.dead {
            conn.wbuf.clear();
            conn.wpos = 0;
            conn.stalled_since = None;
            return;
        }
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.stalled_since.is_none() {
                        conn.stalled_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.dead || conn.wpos == conn.wbuf.len() {
            // Dead: discard everything. Fully flushed: reset for reuse.
            conn.wbuf.clear();
            conn.wpos = 0;
            conn.stalled_since = None;
        } else if conn.wpos >= 64 * 1024 {
            // Compact so the buffer doesn't grow monotonically under a
            // slow reader.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
    }

    /// Post-activity bookkeeping: re-register interest, close if done.
    fn finish_conn_turn(&mut self, idx: usize) {
        let token = token_of(self.slots[idx].gen, idx);
        let Some(conn) = self.slots[idx].conn.as_mut() else { return };
        if conn.done_for_good() {
            self.close_conn(idx);
            return;
        }
        let desired = Interest {
            readable: !conn.eof && !conn.aborted && !conn.dead && !conn.paused(),
            writable: !conn.dead && conn.backlog() > 0,
        };
        if desired != conn.interest {
            if self.epoll.modify(conn.stream.as_raw_fd(), token, desired).is_ok() {
                conn.interest = desired;
            } else {
                conn.dead = true;
            }
        }
    }

    /// Closes and frees one connection slot.
    fn close_conn(&mut self, idx: usize) {
        let conn = self.slots[idx].conn.take().expect("resolved conn");
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        drop(conn);
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.shared.conn_closed();
    }

    /// Maintenance over live connections each turn: shutdown fencing,
    /// write-deadline enforcement, polling every owed reply when
    /// `poll_all`, parsing what a freed window lets through, one flush of
    /// everything the turn wrote, and deferred closes. Returns whether
    /// any connection still owes a reply.
    fn sweep(&mut self, shutting_down: bool, poll_all: bool) -> bool {
        let mut owes = false;
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_mut() else { continue };
            if shutting_down {
                // Stop reading; buffered frames are still parsed, and
                // everything owed still flushes before the close.
                conn.eof = true;
            }
            if conn.stalled_since.is_some_and(|since| since.elapsed() >= WRITE_TIMEOUT) {
                conn.dead = true;
            }
            if poll_all && !conn.owed.is_empty() {
                self.settle(idx, None);
            }
            self.parse_frames(idx);
            self.try_flush(idx);
            self.finish_conn_turn(idx);
            owes |= self.slots[idx].conn.as_ref().is_some_and(|conn| !conn.owed.is_empty());
        }
        owes
    }
}
