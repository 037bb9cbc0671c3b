//! What the server handle, its acceptor and every event loop share
//! around the backend they serve: the configuration, the shutdown flag,
//! connection accounting, the armed gateway deregistration, the one
//! place a helper thread runs a job, and the begin/finish halves of a
//! shutdown.

use crate::backend::{Backend, LeaveNotice};
use crate::codec::{Frame, MembershipResponse};
use crate::dispatch::Job;
use crate::error::NetError;
use crate::frontend::NetConfig;
use crate::instruments::NetInstruments;
use offloadnn_serve::DrainReport;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bound of each connection's owed-but-unwritten replies. A client
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
    /// Armed by [`Shared::announce`]; taken and fired when a wire drain
    /// is acknowledged or the server shuts down, whichever comes first,
    /// so the gateway deregisters the node gracefully.
    leave_notice: Mutex<Option<LeaveNotice>>,
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
    /// [`Shared::help`] with a drain or [`Shared::begin_shutdown`] fires.
    pub(crate) fn announce(
        &self,
        local_addr: SocketAddr,
        gateway: SocketAddr,
        incarnation: u64,
    ) -> Result<MembershipResponse, NetError> {
        let (reply, notice) = LeaveNotice::announce(local_addr, gateway, incarnation)?;
        *self.leave_notice.lock().expect("leave notice lock") = Some(notice);
        Ok(reply)
    }

    /// Fires the armed leave, if any; only the first caller finds it.
    fn leave(&self) {
        let notice = self.leave_notice.lock().expect("leave notice lock").take();
        if let Some(notice) = notice {
            notice.fire();
        }
    }

    /// Runs `job` to its reply, on a helper thread: never on an event
    /// loop, since a reshard takes milliseconds and the leave dials the
    /// gateway. A wire drain's acknowledgement first fires the armed
    /// leave, so the gateway stops routing here before the drainer hears
    /// back.
    pub(crate) fn help(&self, job: Job) -> Frame {
        if let Job::FinalMetrics { .. } = job {
            self.leave();
        }
        job.redeem(&self.service)
    }

    /// First half of a frontend shutdown: deregisters from the gateway
    /// (if announced) before fencing, so the cluster stops routing to
    /// this node while its in-flight work can still resolve; then fences
    /// the ingress, raises the shutdown flag and wakes the acceptor out
    /// of its blocking `accept()`.
    pub(crate) fn begin_shutdown(&self, local_addr: SocketAddr) {
        self.leave();
        self.service.begin_drain();
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(local_addr);
    }

    /// Last half: with every frontend thread joined — event loops, and
    /// the helper threads each loop joins before it exits — drains the
    /// backend.
    pub(crate) fn finish_shutdown(self: Arc<Self>) -> DrainReport {
        let shared = Arc::try_unwrap(self)
            .unwrap_or_else(|_| panic!("all frontend threads joined, no Shared clones remain"));
        shared.service.drain()
    }
}
