//! What the server handle, its acceptor and both engines share around
//! the backend they serve: the configuration, the shutdown flag,
//! connection accounting, the armed gateway deregistration, and the
//! begin/finish halves of a shutdown.

use crate::backend::{Backend, LeaveNotice};
use crate::codec::MembershipResponse;
use crate::error::NetError;
use crate::instruments::NetInstruments;
use crate::server::NetConfig;
use offloadnn_serve::DrainReport;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bound of each connection's submitted-but-unanswered window. A client
/// pipelining past it stops being read until verdicts flush
/// (backpressure through the socket, not server memory).
pub(crate) const INFLIGHT_WINDOW: usize = 256;

/// How long a connection may fail to absorb its responses before it is
/// considered dead.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// State shared by the server handle, its acceptor and every thread
/// serving its connections.
pub(crate) struct Shared<B: Backend> {
    pub(crate) service: B,
    pub(crate) net: NetConfig,
    shutdown: AtomicBool,
    pub(crate) instruments: Option<NetInstruments>,
    active: AtomicUsize,
    /// Armed by [`Shared::announce`]; fired (once) when the node drains
    /// or shuts down, so the gateway deregisters it gracefully.
    leave_notice: Mutex<Option<Arc<LeaveNotice>>>,
}

impl<B: Backend> Shared<B> {
    pub(crate) fn new(service: B, net: NetConfig) -> Arc<Self> {
        Arc::new(Self {
            service,
            net,
            shutdown: AtomicBool::new(false),
            instruments: NetInstruments::new(),
            active: AtomicUsize::new(0),
            leave_notice: Mutex::new(None),
        })
    }

    /// Connections currently being served.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Counts an accepted connection in (count and `net.conns` gauge).
    pub(crate) fn conn_opened(&self) {
        self.active.fetch_add(1, Ordering::AcqRel);
        if let Some(instruments) = &self.instruments {
            instruments.conns.add(1);
        }
    }

    /// Counts a finished (or never adopted) connection out again.
    pub(crate) fn conn_closed(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
        if let Some(instruments) = &self.instruments {
            instruments.conns.sub(1);
        }
    }

    /// [`crate::AnyServer::announce_to_as`]: announces the node listening on
    /// `local_addr` to `gateway`, and arms the graceful leave that
    /// [`Shared::begin_shutdown`] (or the backend's drain hook) fires.
    pub(crate) fn announce(
        &self,
        local_addr: SocketAddr,
        gateway: SocketAddr,
        incarnation: u64,
    ) -> Result<MembershipResponse, NetError> {
        let (reply, notice) = LeaveNotice::announce(local_addr, gateway, incarnation)?;
        let notice = Arc::new(notice);
        // Preferred path: the backend tells us when its drain begins (a
        // wire-level Drain frame fences the service without passing
        // through shutdown()). Fallback either way: shutdown fires the
        // stored notice, and firing is idempotent.
        let hook_notice = Arc::clone(&notice);
        let _ = self.service.on_drain(Box::new(move || hook_notice.fire()));
        *self.leave_notice.lock().expect("leave notice lock") = Some(notice);
        Ok(reply)
    }

    /// First half of a frontend shutdown: deregisters from the gateway
    /// (if announced) before fencing, so the cluster stops routing to
    /// this node while its in-flight work can still resolve; then fences
    /// the ingress, raises the shutdown flag and wakes the acceptor out
    /// of its blocking `accept()`.
    pub(crate) fn begin_shutdown(&self, local_addr: SocketAddr) {
        if let Some(notice) = self.leave_notice.lock().expect("leave notice lock").take() {
            notice.fire();
        }
        self.service.begin_drain();
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(local_addr);
    }

    /// Last half: with every frontend thread joined, drains the backend.
    pub(crate) fn finish_shutdown(self: Arc<Self>) -> DrainReport {
        let shared = Arc::try_unwrap(self)
            .unwrap_or_else(|_| panic!("all frontend threads joined, no Shared clones remain"));
        shared.service.drain()
    }
}
