//! The readiness-driven (epoll) engine behind
//! [`crate::Frontend::Reactor`].
//!
//! ## Why a second engine
//!
//! The threaded engine spends two OS threads per connection, which
//! serves hundreds of clients well but not the paper's "fleets of
//! intermittent mobile UEs" shape: at thousands of mostly-idle
//! connections, stacks and context switches dominate. This one
//! multiplexes every connection over a **fixed** [`Pool`] — [`EVENT_LOOPS`]
//! event-loop threads, each with a paired completion thread, however
//! many connections arrive — on the epoll primitives of
//! `offloadnn-reactor`.
//!
//! ```text
//! event loop: epoll_wait → read nonblocking sockets → decode frames →
//!             shared dispatcher → queue (token, Action) → write
//!             replies (partial-write resumption via EPOLLOUT)
//! completion: redeems Actions in FIFO order (blocking on verdicts,
//!             running reshards), encodes response frames, hands them
//!             back to its loop via the done queue + waker
//! ```
//!
//! The completion thread exists because redeeming a verdict blocks and
//! an event loop must never block. Routing **every** reply of a
//! connection through its loop's FIFO completion channel reproduces the
//! threaded engine's per-connection writer-queue ordering exactly:
//! verdicts flush in submit order, a drain's final metrics snapshot is
//! taken after the connection's earlier verdicts resolved, and the error
//! frame that closes a misbehaving connection trails everything the
//! client is still owed.
//!
//! ## Parity with the threaded engine
//!
//! Backpressure: a connection with `INFLIGHT_WINDOW` replies outstanding
//! (or an unflushed write backlog past the soft cap) loses read interest
//! — level-triggered epoll re-reports the readiness when the window
//! frees, so backpressure propagates through the TCP receive buffer just
//! like the threaded engine's bounded writer channel. Deadline
//! propagation, drain-flush, live `Scale` frames and the
//! incomplete-vs-malformed codec distinction are all inherited from the
//! same [`Backend`] + [`codec`] layers and the same crate-private
//! dispatcher (`dispatch.rs`); the loopback suite runs the same
//! assertions against either engine.

use crate::backend::Backend;
use crate::codec::{self, Frame};
use crate::dispatch::{dispatch, Action};
use crate::shared::{Shared, INFLIGHT_WINDOW, WRITE_TIMEOUT};
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_reactor::{Epoll, Event, Events, Interest, Waker};
use offloadnn_telemetry::{event, Severity};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
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

/// Event-loop threads (each with one completion thread). The whole
/// point of the reactor: this stays small and fixed while connection
/// counts grow into the thousands.
const EVENT_LOOPS: usize = 2;
/// Readiness events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;
/// `epoll_wait` timeout — the cadence at which an otherwise idle loop
/// rechecks the shutdown flag and write deadlines.
const WAIT_TIMEOUT: Duration = Duration::from_millis(50);

/// What an event loop hands its completion thread: the connection's
/// token and the dispatcher's [`Action`] for one frame. FIFO per loop,
/// which gives each connection the threaded frontend's writer-queue
/// ordering.
type Completion = (u64, Action);

/// One encoded reply coming back from a completion thread.
struct Done {
    token: u64,
    bytes: Vec<u8>,
}

/// The acceptor's handle to one event loop.
struct LoopHandle {
    incoming: Sender<TcpStream>,
    waker: Arc<Waker>,
}

/// The fixed thread pool: [`EVENT_LOOPS`] event loops and as many
/// completion threads, fed connections round-robin.
pub(crate) struct Pool {
    handles: Vec<LoopHandle>,
    next_loop: usize,
    loops: Vec<JoinHandle<()>>,
    completions: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Sets up the epoll instances and spawns every pool thread.
    pub(crate) fn start<B: Backend>(shared: &Arc<Shared<B>>) -> std::io::Result<Self> {
        let mut pool = Pool { handles: Vec::new(), next_loop: 0, loops: Vec::new(), completions: Vec::new() };
        for loop_id in 0..EVENT_LOOPS {
            let epoll = Epoll::new()?;
            let waker = Arc::new(Waker::new()?);
            epoll.add(waker.fd(), WAKE_TOKEN, Interest::READABLE)?;
            let (incoming_tx, incoming_rx) = channel::unbounded::<TcpStream>();
            let (comp_tx, comp_rx) = channel::unbounded::<Completion>();
            let done = Arc::new(Mutex::new(Vec::<Done>::new()));

            pool.completions.push({
                let shared = Arc::clone(shared);
                let done = Arc::clone(&done);
                let waker = Arc::clone(&waker);
                std::thread::Builder::new()
                    .name(format!("net-rcomp-{loop_id}"))
                    .spawn(move || completion_loop(&comp_rx, &shared, &done, &waker))
                    .expect("spawn completion thread")
            });
            pool.loops.push({
                let mut event_loop = EventLoop {
                    loop_id,
                    shared: Arc::clone(shared),
                    epoll,
                    waker: Arc::clone(&waker),
                    incoming: incoming_rx,
                    comp_tx,
                    done,
                    slots: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                };
                std::thread::Builder::new()
                    .name(format!("net-rloop-{loop_id}"))
                    .spawn(move || event_loop.run())
                    .expect("spawn event loop")
            });
            pool.handles.push(LoopHandle { incoming: incoming_tx, waker });
        }
        Ok(pool)
    }

    /// Hands an accepted connection to the next event loop; `false` if
    /// that loop is gone (fatal epoll error).
    pub(crate) fn adopt(&mut self, stream: TcpStream) -> bool {
        let handle = &self.handles[self.next_loop % self.handles.len()];
        self.next_loop = self.next_loop.wrapping_add(1);
        let adopted = handle.incoming.send(stream).is_ok();
        if adopted {
            handle.waker.wake();
        }
        adopted
    }

    /// Wakes the loops so they notice the shutdown flag, flush and exit,
    /// then joins the whole pool.
    pub(crate) fn stop(self) {
        for handle in &self.handles {
            handle.waker.wake();
        }
        for h in self.loops {
            let _ = h.join();
        }
        // Each loop dropped its completion sender on exit.
        for h in self.completions {
            let _ = h.join();
        }
    }
}

/// Redeems actions — blocking on verdicts, running reshards — and
/// encodes the replies off the event loop, FIFO.
fn completion_loop<B: Backend>(
    rx: &Receiver<Completion>,
    shared: &Arc<Shared<B>>,
    done: &Mutex<Vec<Done>>,
    waker: &Waker,
) {
    while let Ok((token, action)) = rx.recv() {
        // Every queued action bumped its connection's pending count, so
        // every one reports back — with no bytes if it owes no reply.
        let bytes = shared.redeem(action, || {}).map_or_else(Vec::new, |f| codec::encode(&f));
        done.lock().expect("done lock").push(Done { token, bytes });
        waker.wake();
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// Replies routed through the completion channel not yet applied —
    /// the reactor twin of the threaded writer-queue occupancy.
    pending: usize,
    /// The socket's read side is finished (EOF or server shutdown);
    /// frames already buffered still get parsed.
    eof: bool,
    /// Protocol violation: parsing stopped, the connection closes once
    /// its owed replies flush.
    aborted: bool,
    /// The socket is unusable; discard writes, redeem what's pending.
    dead: bool,
    /// Interest currently registered with epoll.
    interest: Interest,
    /// When the unflushed backlog last made progress (write-timeout
    /// enforcement, the threaded frontend's `set_write_timeout` twin).
    stalled_since: Option<Instant>,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn done_for_good(&self) -> bool {
        self.pending == 0 && (self.eof || self.aborted) && (self.dead || self.backlog() == 0)
    }
}

/// A connection slot; `gen` survives reuse so stale tokens (epoll events
/// or completion replies for a closed connection) are recognised.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

struct EventLoop<B: Backend> {
    loop_id: usize,
    shared: Arc<Shared<B>>,
    epoll: Epoll,
    waker: Arc<Waker>,
    incoming: Receiver<TcpStream>,
    comp_tx: Sender<Completion>,
    done: Arc<Mutex<Vec<Done>>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl<B: Backend> EventLoop<B> {
    fn run(&mut self) {
        let mut events = Events::with_capacity(MAX_EVENTS);
        let mut ready: Vec<Event> = Vec::with_capacity(MAX_EVENTS);
        loop {
            match self.epoll.wait(&mut events, Some(WAIT_TIMEOUT)) {
                Ok(_) => {}
                Err(e) => {
                    event!(Severity::Warn, "net.async", "loop {}: epoll_wait failed: {e}", self.loop_id);
                    break;
                }
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
            while let Ok(stream) = self.incoming.try_recv() {
                self.register(stream);
            }
            let batch = std::mem::take(&mut *self.done.lock().expect("done lock"));
            for done in batch {
                self.apply_done(done);
            }
            let shutting_down = self.shared.is_shutting_down();
            self.sweep(shutting_down);
            if shutting_down && self.live == 0 {
                break;
            }
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
            pending: 0,
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
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
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
    /// window (the bytes keep in `rbuf`; parsing resumes as replies
    /// apply) or on a protocol violation.
    fn parse_frames(&mut self, idx: usize) {
        loop {
            let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
            if conn.aborted || conn.dead || conn.rbuf.is_empty() {
                return;
            }
            if conn.pending >= INFLIGHT_WINDOW || conn.backlog() >= WBUF_PAUSE {
                return; // window backpressure: stop consuming
            }
            match codec::decode(&conn.rbuf) {
                Ok(Some((frame, consumed))) => {
                    conn.rbuf.drain(..consumed);
                    self.dispatch(idx, frame);
                }
                Ok(None) => return, // incomplete: wait for more bytes
                Err(e) => {
                    event!(Severity::Warn, "net.async", "protocol error, closing: {e}");
                    self.send_completion(idx, Action::protocol_error(e));
                    return;
                }
            }
        }
    }

    /// Queues an action on the completion channel, bumping the
    /// connection's pending count; a closing action also stops the
    /// connection's parsing for good.
    fn send_completion(&mut self, idx: usize, action: Action) {
        let token = token_of(self.slots[idx].gen, idx);
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        if matches!(action, Action::ReplyThenClose(_)) {
            conn.aborted = true;
            conn.rbuf.clear();
        }
        conn.pending += 1;
        if self.comp_tx.send((token, action)).is_err() {
            // Unreachable while the completion thread lives (it outlives
            // the loop); keep accounting sane anyway.
            let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
            conn.pending -= 1;
            conn.dead = true;
        }
    }

    /// Runs one decoded request through the shared dispatcher. Every
    /// reply — and the reshard of a `Scale`, which takes milliseconds and
    /// must not stall the connections this loop multiplexes — goes
    /// through the completion thread.
    fn dispatch(&mut self, idx: usize, frame: Frame) {
        match dispatch(&self.shared.service, frame) {
            Action::Nothing => {}
            action => self.send_completion(idx, action),
        }
    }

    /// Applies one completed reply: append to the write buffer, flush
    /// opportunistically, resume parsing if the window freed.
    fn apply_done(&mut self, done: Done) {
        let Some(idx) = self.resolve(done.token) else { return };
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        conn.pending -= 1;
        if !conn.dead {
            conn.wbuf.extend_from_slice(&done.bytes);
        }
        self.try_flush(idx);
        // The window (or the write backlog) may have freed: frames still
        // buffered in rbuf become parseable again.
        self.parse_frames(idx);
        self.finish_conn_turn(idx);
    }

    /// Writes as much of the backlog as the socket absorbs; partial
    /// writes keep their position and resume on `EPOLLOUT`.
    fn try_flush(&mut self, idx: usize) {
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
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
        let Some(conn) = self.slots[idx].conn.as_ref() else { return };
        if conn.done_for_good() {
            self.close_conn(idx);
            return;
        }
        let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
        let paused = conn.pending >= INFLIGHT_WINDOW || conn.backlog() >= WBUF_PAUSE;
        let desired = Interest {
            readable: !conn.eof && !conn.aborted && !conn.dead && !paused,
            writable: !conn.dead && conn.backlog() > 0,
        };
        if desired != conn.interest {
            let token = token_of(self.slots[idx].gen, idx);
            let conn = self.slots[idx].conn.as_mut().expect("resolved conn");
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

    /// Periodic maintenance over live connections: write-deadline
    /// enforcement, shutdown fencing, deferred closes.
    fn sweep(&mut self, shutting_down: bool) {
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_mut() else { continue };
            if shutting_down && !conn.eof {
                // Stop reading; buffered frames were already parsed, and
                // everything owed still flushes before the close.
                conn.eof = true;
            }
            if let Some(since) = conn.stalled_since {
                if since.elapsed() >= WRITE_TIMEOUT {
                    conn.dead = true;
                }
            }
            if conn.backlog() > 0 && !conn.dead {
                self.try_flush(idx);
            }
            self.finish_conn_turn(idx);
        }
    }
}
