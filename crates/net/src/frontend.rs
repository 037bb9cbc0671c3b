//! The TCP server: one handle, one accept loop, two engines.
//!
//! ## Threading model
//!
//! ```text
//!                       Frontend::Threads       Frontend::Reactor
//! acceptor thread ──┬── conn-0 reader ⇄ writer  event loop 0 ⇄ completion 0
//!  (blocking accept,├── conn-1 reader ⇄ writer  event loop 1 ⇄ completion 1
//!   capped backoff, └── ... one pair per conn   (fixed pool, conns round-robin)
//!   connection limit)
//! ```
//!
//! [`AnyServer`] owns the listener's acceptor thread and everything the
//! two frontends have in common — bind, connection limit, accept
//! backoff, metrics, reshard, gateway registration, shutdown. What
//! differs is only *where an accepted connection is served*, which is
//! the crate-private engine the [`Frontend`] value picks: a reader +
//! writer thread per connection (`server.rs`) or a fixed pool of epoll
//! event loops with paired completion threads (`async_server.rs`). Both
//! decode with the same [`crate::codec`], run every frame through the
//! same dispatcher and preserve the same per-connection reply order, so
//! tests, load generators and benches run the identical workload
//! against either one.
//!
//! The server is generic over the [`Backend`] it serves, defaulting to
//! the in-process [`offloadnn_serve::Service`];
//! [`AnyServer::start_with_backend`] puts any other backend — e.g. an
//! `offloadnn-gateway` cluster tier — behind the same handle.
//!
//! ## Drain semantics
//!
//! A [`crate::Frame::Drain`] request (or [`AnyServer::shutdown`]) fences
//! the ingress via [`offloadnn_serve::Admitter::begin_drain`]:
//! subsequent submits are answered [`ErrorCode::Draining`], while every
//! request already inside the backend still resolves and its outcome is
//! *flushed to the client* before the connection closes — on both
//! engines the connection's whole reply queue drains first, so drain
//! never strands an in-flight verdict. A node announced to a gateway
//! ([`AnyServer::announce_to`]) sends its leave before it acknowledges
//! the drain.

use crate::async_server::Pool;
use crate::backend::{fresh_incarnation, Backend};
use crate::backoff::AcceptBackoff;
use crate::codec::{self, ErrorCode, MembershipResponse};
use crate::dispatch::error_frame;
use crate::error::NetError;
use crate::server::{spawn_connection, NetConfig};
use crate::shared::{Shared, WRITE_TIMEOUT};
use offloadnn_core::instance::DotInstance;
use offloadnn_serve::{DrainReport, MetricsSnapshot, ReshardReport, ServeError, Service, ServiceConfig};
use offloadnn_telemetry::{event, Severity};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which TCP frontend serves the connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// Thread-per-connection: a reader + writer thread per client, the
    /// right default up to a few hundred connections.
    #[default]
    Threads,
    /// Readiness-driven: a fixed epoll event-loop pool multiplexing
    /// every connection, for large client fleets.
    Reactor,
}

impl std::str::FromStr for Frontend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Self::Threads),
            "reactor" => Ok(Self::Reactor),
            other => Err(format!("unknown frontend '{other}' (expected 'threads' or 'reactor')")),
        }
    }
}

impl std::fmt::Display for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Threads => "threads",
            Self::Reactor => "reactor",
        })
    }
}

/// Where accepted connections are served: the one thing the two
/// frontends do differently. Owned by the acceptor thread while the
/// server runs, handed back to [`AnyServer::shutdown`] to be stopped.
enum Engine {
    /// One thread per live connection, and how many connections were
    /// adopted so far (the next connection's id).
    Threads { conns: Vec<Conn>, adopted: usize },
    /// The fixed event-loop pool.
    Reactor(Pool),
}

/// A connection served by its own thread.
struct Conn {
    /// A second handle on the connection's socket: shutting its read
    /// half wakes the thread's blocked read.
    stream: TcpStream,
    thread: JoinHandle<()>,
}

impl Engine {
    /// Starts serving one accepted (and already counted) connection.
    fn adopt<B: Backend>(&mut self, stream: TcpStream, shared: &Arc<Shared<B>>) {
        match self {
            Self::Threads { conns, adopted } => {
                // Forget the threads of connections that closed, so the
                // list holds live connections only.
                conns.retain(|conn| !conn.thread.is_finished());
                match stream.try_clone() {
                    Ok(handle) => {
                        conns.push(Conn {
                            stream: handle,
                            thread: spawn_connection(*adopted, stream, shared),
                        });
                        *adopted += 1;
                    }
                    Err(_) => shared.conn_closed(),
                }
            }
            Self::Reactor(pool) => {
                if !pool.adopt(stream) {
                    // The loop is gone (fatal epoll error); undo the accounting.
                    shared.conn_closed();
                }
            }
        }
    }

    /// Joins every serving thread; each returns once its connections
    /// flushed what they owed (the shutdown flag is already up). A
    /// threaded connection's read half is shut first: its blocked read
    /// returns at once, while its writes still go through.
    fn stop(self) {
        match self {
            Self::Threads { conns, .. } => {
                for conn in &conns {
                    let _ = conn.stream.shutdown(Shutdown::Read);
                }
                for conn in conns {
                    let _ = conn.thread.join();
                }
            }
            Self::Reactor(pool) => pool.stop(),
        }
    }
}

/// A running TCP frontend over any [`Backend`] (an in-process
/// [`Service`] fleet by default). Start with [`AnyServer::start`] (or
/// [`AnyServer::start_with_backend`]); stop with [`AnyServer::shutdown`],
/// which drains the backend and returns its final [`DrainReport`].
pub struct AnyServer<B: Backend = Service> {
    local_addr: SocketAddr,
    shared: Arc<Shared<B>>,
    /// Hands back the engine, with every thread it spawned, on exit.
    acceptor: JoinHandle<Engine>,
}

impl<B: Backend> std::fmt::Debug for AnyServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyServer").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

impl AnyServer<Service> {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`AnyServer::local_addr`]), starts the shard fleet and serves it
    /// through the selected frontend.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if the bind or reactor setup fails.
    pub fn start(
        frontend: Frontend,
        addr: impl ToSocketAddrs,
        net: NetConfig,
        service_config: ServiceConfig,
        template: &DotInstance,
    ) -> Result<Self, NetError> {
        let service = Service::start(service_config, template).map_err(|e| {
            NetError::InvalidConfig(match e {
                ServeError::InvalidConfig(what) => what,
                // Unreachable at start, but keep the mapping total.
                ServeError::Draining => "service is draining",
            })
        })?;
        Self::start_with_backend(frontend, addr, net, service)
    }
}

impl<B: Backend> AnyServer<B> {
    /// Binds `addr` and serves an already-running backend (e.g. a
    /// cluster gateway) over the same wire protocol as
    /// [`AnyServer::start`].
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad configuration,
    /// [`NetError::Io`] if the bind or reactor setup fails.
    pub fn start_with_backend(
        frontend: Frontend,
        addr: impl ToSocketAddrs,
        net: NetConfig,
        backend: B,
    ) -> Result<Self, NetError> {
        net.validate()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Shared::new(backend, net);
        let engine = match frontend {
            Frontend::Threads => Engine::Threads { conns: Vec::new(), adopted: 0 },
            Frontend::Reactor => Engine::Reactor(Pool::start(&shared)?),
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, engine))
                .expect("spawn acceptor")
        };
        event!(
            Severity::Info,
            "net.server",
            "listening on {local_addr} ({frontend}): {} conn(s) max",
            net.max_connections
        );
        Ok(Self { local_addr, shared, acceptor })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time metrics of the underlying backend.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.service.ledger()
    }

    /// Whether a drain has begun (via [`crate::Frame::Drain`] or
    /// [`AnyServer::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.shared.service.is_draining()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active()
    }

    /// Reshapes the underlying backend at runtime (the server-side twin
    /// of a client's [`crate::Frame::Scale`]); traffic keeps flowing
    /// throughout. See [`Backend::scale_to`].
    ///
    /// # Errors
    ///
    /// Propagates [`Backend::scale_to`] errors.
    pub fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
        self.shared.service.scale_to(shards)
    }

    /// Registers this node with a gateway's membership engine: sends an
    /// [`crate::Frame::Announce`] carrying [`AnyServer::local_addr`]
    /// under a fresh wall-clock incarnation, and arms a graceful
    /// [`crate::Frame::Leave`] to fire when the node acknowledges a wire
    /// [`crate::Frame::Drain`] or shuts down. The gateway health-probes the node before routing any
    /// traffic to it (join-through-probation).
    ///
    /// # Errors
    ///
    /// Transport errors when the gateway cannot be reached or does not
    /// answer; the announce can simply be retried.
    pub fn announce_to(&self, gateway: SocketAddr) -> Result<MembershipResponse, NetError> {
        self.announce_to_as(gateway, fresh_incarnation())
    }

    /// [`AnyServer::announce_to`] with an explicit incarnation stamp
    /// (tests and restart simulations pick their own ordering).
    ///
    /// # Errors
    ///
    /// As [`AnyServer::announce_to`].
    pub fn announce_to_as(
        &self,
        gateway: SocketAddr,
        incarnation: u64,
    ) -> Result<MembershipResponse, NetError> {
        self.shared.announce(self.local_addr, gateway, incarnation)
    }

    /// Gracefully stops the frontend: fences the ingress, wakes and joins
    /// the acceptor, lets every connection flush its in-flight outcomes
    /// to its client, joins the serving threads, then drains the
    /// underlying backend and returns its final report.
    pub fn shutdown(self) -> DrainReport {
        self.shared.begin_shutdown(self.local_addr);
        if let Ok(engine) = self.acceptor.join() {
            engine.stop();
        }
        event!(Severity::Info, "net.server", "frontend stopped on {}", self.local_addr);
        self.shared.finish_shutdown()
    }
}

/// Accepts until shutdown and hands each connection to the engine;
/// returns the engine for [`AnyServer::shutdown`] to stop.
fn accept_loop<B: Backend>(listener: &TcpListener, shared: &Arc<Shared<B>>, mut engine: Engine) -> Engine {
    let mut backoff = AcceptBackoff::new();
    while !shared.is_shutting_down() {
        let stream = match listener.accept() {
            Ok((s, _)) => {
                backoff.on_success();
                s
            }
            Err(e) => {
                // ECONNABORTED and friends retry immediately; fd/memory
                // exhaustion (EMFILE/ENFILE/...) pauses with capped
                // exponential backoff so the acceptor cannot spin on an
                // error the very next accept would re-hit.
                event!(Severity::Warn, "net.server", "accept failed: {e}");
                if let Some(pause) = backoff.on_error(&e) {
                    std::thread::sleep(pause);
                }
                continue;
            }
        };
        if shared.is_shutting_down() {
            break; // the shutdown self-connect
        }
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        if shared.active() >= shared.net.max_connections {
            event!(Severity::Warn, "net.server", "rejecting {peer}: connection limit reached");
            reject_over_limit(stream);
            continue;
        }
        shared.conn_opened();
        event!(Severity::Info, "net.server", "accepted {peer}");
        engine.adopt(stream, shared);
    }
    engine
}

/// Best-effort "too many connections" notice before dropping the socket.
fn reject_over_limit(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let frame = error_frame(0, ErrorCode::TooManyConnections, "server is at its connection limit");
    let _ = stream.write_all(&codec::encode(&frame));
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use offloadnn_core::scenario::small_scenario;
    use std::time::{Duration, Instant};

    #[test]
    fn the_threaded_engine_holds_live_connections_only_and_stops_an_idle_one() {
        let scenario = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &scenario.instance).expect("start service");
        let shared = Shared::new(service, NetConfig::default());
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let mut engine = Engine::Threads { conns: Vec::new(), adopted: 0 };
        let mut connect = || {
            let client = TcpStream::connect(addr).expect("connect");
            shared.conn_opened();
            engine.adopt(listener.accept().expect("accept").0, &shared);
            client
        };
        for _ in 0..16 {
            drop(connect());
            let give_up = Instant::now() + Duration::from_secs(5);
            while shared.active() > 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Left open and idle: `stop` must still get its thread out.
        let _idle = connect();
        let Engine::Threads { conns, adopted } = &engine else { unreachable!("a threaded engine") };
        // The last closed connection's thread may still be exiting.
        assert!(conns.len() <= 2 && *adopted == 17, "{} handles for 1 live connection", conns.len());

        shared.begin_shutdown(addr);
        engine.stop();
        assert!(shared.finish_shutdown().metrics.is_conserved());
    }
}
