//! Frontend-shared telemetry handles.
//!
//! Both engines of [`crate::AnyServer`] (threaded and readiness-driven)
//! report the same instruments so dashboards don't care which one is
//! deployed:
//!
//! * `net.conns` — gauge of currently served connections;
//! * `net.epoll.wakeups` — `epoll_wait` returns (reactor only);
//! * `net.readiness.read` / `net.readiness.write` — readiness events
//!   dispatched to connection state machines (reactor only).
//!
//! The handles are resolved once at server start and only when telemetry
//! is enabled; with it off (runtime switch or the `disabled` feature) the
//! whole struct is `None` and the hot paths cost one branch.

use offloadnn_telemetry::{Counter, Gauge};
use std::sync::Arc;

/// Cached instrument handles, held by a frontend's shared state.
pub(crate) struct NetInstruments {
    /// Level gauge of currently served connections.
    pub conns: Arc<Gauge>,
    /// `epoll_wait` returns across all event loops.
    pub epoll_wakeups: Arc<Counter>,
    /// Read-readiness events dispatched to connections.
    pub readiness_read: Arc<Counter>,
    /// Write-readiness events dispatched to connections.
    pub readiness_write: Arc<Counter>,
}

impl NetInstruments {
    /// Resolves the handles from the global registry, or `None` while
    /// telemetry is off (so disabled builds never touch the registry).
    pub(crate) fn new() -> Option<Self> {
        if !offloadnn_telemetry::enabled() {
            return None;
        }
        let registry = offloadnn_telemetry::global();
        Some(Self {
            conns: registry.gauge("net.conns"),
            epoll_wakeups: registry.counter("net.epoll.wakeups"),
            readiness_read: registry.counter("net.readiness.read"),
            readiness_write: registry.counter("net.readiness.write"),
        })
    }
}
