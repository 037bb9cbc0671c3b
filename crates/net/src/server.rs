//! [`NetConfig`], and the thread-per-connection engine behind
//! [`crate::Frontend::Threads`].
//!
//! Each accepted connection gets a *reader* thread (decodes frames, runs
//! them through the shared dispatcher, reshards inline on a `Scale`) and
//! a *writer* thread (redeems the queued actions — blocking on tickets
//! for verdicts — and writes responses). The channel between them is
//! bounded by `INFLIGHT_WINDOW`: a client that pipelines
//! more submits than the window simply stops being read — backpressure
//! propagates through the TCP receive buffer instead of growing server
//! memory. The writer drains its whole queue before exiting, so a drain
//! never strands an in-flight verdict.

use crate::backend::Backend;
use crate::codec::{self, Frame};
use crate::dispatch::{dispatch, Action};
use crate::error::NetError;
use crate::shared::{Shared, INFLIGHT_WINDOW, WRITE_TIMEOUT};
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_telemetry::{event, Severity};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuning knobs of the TCP frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Maximum simultaneously served connections; further connects are
    /// answered [`crate::ErrorCode::TooManyConnections`] and closed.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { max_connections: 256 }
    }
}

impl NetConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.max_connections == 0 {
            return Err(NetError::InvalidConfig("max_connections must be >= 1"));
        }
        Ok(())
    }
}

/// Serves one accepted connection on its own reader thread (which
/// spawns and finally joins the connection's writer).
pub(crate) fn spawn_connection<B: Backend>(
    conn_id: usize,
    stream: TcpStream,
    shared: &Arc<Shared<B>>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("net-conn-{conn_id}"))
        .spawn(move || {
            serve_connection(conn_id, stream, &shared);
            shared.conn_closed();
        })
        .expect("spawn connection thread")
}

/// The per-connection reader: decodes frames off the socket and feeds
/// the service; spawns and finally joins the connection's writer.
fn serve_connection<B: Backend>(conn_id: usize, stream: TcpStream, shared: &Arc<Shared<B>>) {
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));

    let (tx, rx) = channel::bounded::<Action>(INFLIGHT_WINDOW);
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("net-conn-{conn_id}-w"))
            .spawn(move || write_loop(&rx, write_half, &shared))
            .expect("spawn connection writer")
    };

    read_loop(stream, shared, &tx);

    // Dropping the sender lets the writer drain its queue — every queued
    // verdict is redeemed and flushed before the connection dies.
    drop(tx);
    let _ = writer.join();
    event!(Severity::Info, "net.server", "conn {conn_id}: closed");
}

fn read_loop<B: Backend>(mut stream: TcpStream, shared: &Arc<Shared<B>>, tx: &Sender<Action>) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Parse every complete frame currently buffered.
        loop {
            match codec::decode(&buf) {
                Ok(Some((frame, consumed))) => {
                    buf.drain(..consumed);
                    if !handle_frame(frame, shared, tx) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    event!(Severity::Warn, "net.server", "protocol error, closing: {e}");
                    let _ = tx.send(Action::protocol_error(e));
                    return;
                }
            }
        }
        // Stop reading once shutdown began (buffered frames above were
        // still served). Shutdown shuts the socket's read half, which ends
        // a blocked read, but a peer that keeps sending — e.g. a gateway
        // health prober — stays readable and must not be able to hold
        // the drain open forever. Owed verdicts still flush through the
        // writer.
        if shared.is_shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed, or shutdown shut the read half
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Runs one decoded request through the shared dispatcher and queues
/// what it owes for the writer. Returns `false` when the connection
/// must close.
fn handle_frame<B: Backend>(frame: Frame, shared: &Arc<Shared<B>>, tx: &Sender<Action>) -> bool {
    let mut action = dispatch(&shared.service, frame);
    if matches!(action, Action::Scale { .. }) {
        // Reshard here, on the reader thread: this connection's pipelined
        // frames wait in the TCP buffer while the fleet reshapes
        // (milliseconds), other connections are untouched.
        action = shared.redeem(action, || {}).map_or(Action::Nothing, Action::Reply);
    }
    if matches!(action, Action::Nothing) {
        return true;
    }
    let open = !matches!(action, Action::ReplyThenClose(_));
    // A full window blocks here: backpressure through the socket.
    tx.send(action).is_ok() && open
}

fn write_loop<B: Backend>(rx: &Receiver<Action>, mut stream: TcpStream, shared: &Arc<Shared<B>>) {
    let mut out: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut alive = true;
    while let Ok(action) = rx.recv() {
        let frame = shared.redeem(action, || {
            // About to block on the verdict: flush what earlier requests
            // are owed so the client is not starved by head-of-line
            // coalescing.
            if alive && !out.is_empty() {
                if stream.write_all(&out).is_err() {
                    alive = false;
                }
                out.clear();
            }
        });
        // The socket died: keep redeeming tickets (the service side must
        // still quiesce) but stop writing.
        let (Some(frame), true) = (frame, alive) else { continue };
        out.extend_from_slice(&codec::encode(&frame));
        // Coalesce while more responses are queued; flush on a lull.
        if rx.is_empty() || out.len() >= 64 * 1024 {
            if stream.write_all(&out).is_err() {
                alive = false;
            }
            out.clear();
        }
    }
    if alive {
        if !out.is_empty() {
            let _ = stream.write_all(&out);
        }
        let _ = stream.flush();
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_connection_limit_is_rejected_and_named() {
        assert!(NetConfig::default().validate().is_ok());
        let refused = NetConfig { max_connections: 0 }.validate();
        assert!(matches!(refused, Err(NetError::InvalidConfig(what)) if what.starts_with("max_connections")));
    }
}
