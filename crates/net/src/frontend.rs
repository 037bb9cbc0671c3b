//! The TCP server: one handle, one accept loop, one connection engine.
//!
//! ## Threading model
//!
//! ```text
//!                       Frontend::Threads          Frontend::Reactor
//! acceptor thread ──┬── event loop of conn 0       event loop 0 ─┐ conns
//!  (blocking accept,├── event loop of conn 1       event loop 1 ─┘ round-robin
//!   capped backoff, └── ... one loop per conn      (fixed pool)
//!   connection limit)     each loop: + a short-lived helper per Scale / drain ack
//! ```
//!
//! [`AnyServer`] owns the listener's acceptor thread and everything the
//! two frontends have in common — bind, connection limit, accept
//! backoff, metrics, reshard, gateway registration, shutdown. Every
//! accepted connection is served by the same epoll event loop
//! (`async_server.rs`); the [`Frontend`] value picks only how loops map
//! to connections: one loop per connection, on a thread that exits with
//! it, or a fixed pool of loops multiplexing them all. Both decode with
//! the same [`crate::codec`], run every frame through the same
//! dispatcher and write each reply the moment it resolves, so tests,
//! load generators and benches run the identical workload against
//! either one.
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
//! *flushed to the client* before the connection closes, so drain never
//! strands an in-flight verdict. A wire drain's acknowledgement follows
//! every earlier verdict of its connection; a node announced to a
//! gateway ([`AnyServer::announce_to`]) sends its leave before it
//! acknowledges the drain.

use crate::async_server::Pool;
use crate::backend::{fresh_incarnation, Backend};
use crate::backoff::AcceptBackoff;
use crate::codec::{self, ErrorCode, MembershipResponse};
use crate::dispatch::error_frame;
use crate::error::NetError;
use crate::shared::{Shared, WRITE_TIMEOUT};
use offloadnn_core::instance::DotInstance;
use offloadnn_serve::{DrainReport, MetricsSnapshot, ReshardReport, ServeError, Service, ServiceConfig};
use offloadnn_telemetry::{event, Severity};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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

/// How the connection engine's event loops map to connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// Thread-per-connection: each client's connection runs the event
    /// loop on a thread of its own, the right default up to a few
    /// hundred connections.
    #[default]
    Threads,
    /// A fixed pool of event loops multiplexing every connection, for
    /// large client fleets.
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

/// A running TCP frontend over any [`Backend`] (an in-process
/// [`Service`] fleet by default). Start with [`AnyServer::start`] (or
/// [`AnyServer::start_with_backend`]); stop with [`AnyServer::shutdown`],
/// which drains the backend and returns its final [`DrainReport`].
pub struct AnyServer<B: Backend = Service> {
    local_addr: SocketAddr,
    shared: Arc<Shared<B>>,
    /// Hands back the event loops, to be stopped, on exit.
    acceptor: JoinHandle<Pool>,
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
        let pool = match frontend {
            Frontend::Threads => Pool::per_connection(),
            Frontend::Reactor => Pool::fixed(&shared)?,
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, pool))
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
    /// to its client, joins the event loops (each joins its helper
    /// threads first), then drains the underlying backend and returns
    /// its final report.
    pub fn shutdown(self) -> DrainReport {
        self.shared.begin_shutdown(self.local_addr);
        if let Ok(pool) = self.acceptor.join() {
            pool.stop();
        }
        event!(Severity::Info, "net.server", "frontend stopped on {}", self.local_addr);
        self.shared.finish_shutdown()
    }
}

/// Accepts until shutdown and hands each connection to an event loop;
/// returns the loops for [`AnyServer::shutdown`] to stop.
fn accept_loop<B: Backend>(listener: &TcpListener, shared: &Arc<Shared<B>>, mut pool: Pool) -> Pool {
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
        if !pool.adopt(stream, shared) {
            shared.conn_closed();
        }
    }
    pool
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
        let mut pool = Pool::per_connection();
        let mut connect = || {
            let client = TcpStream::connect(addr).expect("connect");
            shared.conn_opened();
            assert!(pool.adopt(listener.accept().expect("accept").0, &shared), "a loop serves it");
            client
        };
        for _ in 0..16 {
            drop(connect());
            let give_up = Instant::now() + Duration::from_secs(5);
            while shared.active() > 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Left open and idle: `stop` must still get its loop out.
        let _idle = connect();
        // The last closed connection's loop may still be exiting.
        assert!(
            pool.loops.len() <= 2 && pool.adopted == 17,
            "{} loops for 1 live connection",
            pool.loops.len()
        );

        shared.begin_shutdown(addr);
        pool.stop();
        assert!(shared.finish_shutdown().metrics.is_conserved());
    }

    #[test]
    fn a_zero_connection_limit_is_rejected_and_named() {
        assert!(NetConfig::default().validate().is_ok());
        let refused = NetConfig { max_connections: 0 }.validate();
        assert!(matches!(refused, Err(NetError::InvalidConfig(what)) if what.starts_with("max_connections")));
    }
}
