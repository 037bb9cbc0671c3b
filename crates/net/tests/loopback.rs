//! Loopback integration tests: a real server on an ephemeral port,
//! driven by real [`Client`]s over TCP.
//!
//! Every scenario is parameterized over the [`Frontend`] — the threaded
//! and the epoll engine of [`AnyServer`] must pass the identical
//! assertions, which is the executable definition of their feature
//! parity.
//!
//! The load-bearing assertions are the conservation invariant
//! (`submitted = admitted + rejected + shed + expired`, end-to-end
//! through the wire), the drain guarantee (every in-flight verdict is
//! flushed to its client before the connection closes) and resolution
//! order (a held verdict delays no other).

use offloadnn_core::instance::PathOption;
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::{Task, TaskId};
use offloadnn_net::codec::{self, DrainRequest, ErrorCode, Frame, ScaleRequest, SubmitRequest};
use offloadnn_net::{AnyServer, Backend, Client, ClientConfig, Frontend, NetConfig, NetError};
use offloadnn_serve::{
    Admitter, ChaosConfig, DrainReport, MetricsSnapshot, Outcome, PendingVerdict, ReshardReport, ServeError,
    Service, ServiceConfig, SubmitError, VerdictError, VerdictHandle,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A service tuned for debug-mode CI: tiny batches, short windows.
fn quick_service() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        batch_max: 16,
        batch_window: Duration::from_micros(500),
        ..ServiceConfig::default()
    }
}

fn start_server(
    frontend: Frontend,
    config: ServiceConfig,
) -> (AnyServer, Vec<(offloadnn_core::task::Task, Vec<offloadnn_core::instance::PathOption>)>) {
    let scenario = small_scenario(4);
    let protos: Vec<_> =
        scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
    let server =
        AnyServer::start(frontend, ("127.0.0.1", 0), NetConfig::default(), config, &scenario.instance)
            .expect("start server");
    (server, protos)
}

/// Verdicts observed through the wire by one client.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    admitted: u64,
    rejected: u64,
    shed: u64,
    expired: u64,
    errored: u64,
}

impl Tally {
    fn outcomes(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.expired
    }

    fn absorb(&mut self, verdict: Result<Outcome, VerdictError>) {
        match verdict {
            Ok(Outcome::Admitted { .. }) => self.admitted += 1,
            Ok(Outcome::Rejected { .. }) => self.rejected += 1,
            Ok(Outcome::Shed { .. }) => self.shed += 1,
            Ok(Outcome::Expired { .. }) => self.expired += 1,
            Err(_) => self.errored += 1,
        }
    }
}

/// N client threads drive a mixed workload (pipelined submits, periodic
/// departures, interleaved metrics snapshots) and every offered request
/// is accounted for exactly once — on the wire and in the server's own
/// counters, class by class.
fn run_mixed_workload(frontend: Frontend) {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 120;

    let (server, protos) = start_server(frontend, quick_service());
    let addr = server.local_addr();

    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let protos = &protos;
                scope.spawn(move || {
                    let client = Client::connect(addr, ClientConfig::default()).expect("connect");
                    let mut tally = Tally::default();
                    let mut pending = std::collections::VecDeque::new();
                    let mut admitted_ids: Vec<TaskId> = Vec::new();
                    for i in 0..PER_CLIENT {
                        let proto = &protos[(i as usize + idx) % protos.len()];
                        let mut task = proto.0.clone();
                        task.id = TaskId(idx as u32 * 1_000_000 + i as u32);
                        match client.submit(task, proto.1.clone(), None) {
                            Ok(p) => pending.push_back(p),
                            Err(_) => tally.errored += 1,
                        }
                        // Keep a bounded pipeline and a mixed frame stream.
                        if pending.len() >= 32 {
                            let p = pending.pop_front().expect("non-empty");
                            let task = p.task();
                            let verdict = p.wait_timeout(Duration::from_secs(20));
                            if matches!(verdict, Ok(Outcome::Admitted { .. })) {
                                admitted_ids.push(task);
                            }
                            tally.absorb(verdict);
                        }
                        if i % 17 == 16 {
                            if let Some(id) = admitted_ids.pop() {
                                client.depart(id).expect("depart");
                            }
                        }
                        if i % 40 == 39 {
                            let snap = client.snapshot().expect("snapshot");
                            assert!(snap.submitted >= snap.admitted, "snapshot is internally sane");
                        }
                    }
                    for p in pending {
                        tally.absorb(p.wait_timeout(Duration::from_secs(20)));
                    }
                    client.close();
                    tally
                })
            })
            .collect();
        for h in handles {
            let t = h.join().expect("client thread");
            total.admitted += t.admitted;
            total.rejected += t.rejected;
            total.shed += t.shed;
            total.expired += t.expired;
            total.errored += t.errored;
        }
    });

    let report = server.shutdown();
    let m = &report.metrics;
    let offered = CLIENTS as u64 * PER_CLIENT;

    assert_eq!(total.errored, 0, "loopback run must not drop a single verdict");
    assert_eq!(total.outcomes(), offered, "every offered request resolves exactly once: {total:?}");
    assert!(m.is_conserved(), "server conservation violated: {m:?}");
    // The wire and the server agree class by class.
    assert_eq!(m.submitted, offered);
    assert_eq!(m.admitted, total.admitted);
    assert_eq!(m.rejected, total.rejected);
    assert_eq!(m.shed, total.shed);
    assert_eq!(m.expired, total.expired);
}

#[test]
fn mixed_workload_conserves_every_request() {
    run_mixed_workload(Frontend::Threads);
}

#[test]
fn mixed_workload_conserves_every_request_reactor() {
    run_mixed_workload(Frontend::Reactor);
}

/// Drain delivers every in-flight outcome: requests pipelined *before*
/// the drain (and still queued behind a slow batch window when it lands)
/// all resolve to real verdicts, and the drain acknowledgement carries a
/// post-flush snapshot.
fn run_drain_flush(frontend: Frontend) {
    const INFLIGHT: u64 = 24;

    // A slow solver cadence so the pipelined submits are still queued
    // when the drain lands.
    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 2,
            batch_max: 64,
            batch_window: Duration::from_millis(150),
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();

    let submitter = Client::connect(addr, ClientConfig::default()).expect("connect submitter");
    let mut pending = Vec::new();
    for i in 0..INFLIGHT {
        let proto = &protos[i as usize % protos.len()];
        let mut task = proto.0.clone();
        task.id = TaskId(i as u32);
        pending.push(submitter.submit(task, proto.1.clone(), None).expect("submit"));
    }

    // Wait for the server to ingest every submit (the drain guarantee
    // covers requests already inside the service; a submit still in the
    // socket buffer when the fence lands is refused as Draining instead).
    let ingest_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().submitted < INFLIGHT {
        assert!(std::time::Instant::now() < ingest_deadline, "server never ingested all submits");
        std::thread::sleep(Duration::from_millis(2));
    }

    // A second connection asks for the drain.
    let controller = Client::connect(addr, ClientConfig::default()).expect("connect controller");
    let final_metrics = controller.drain().expect("drain acknowledgement");
    assert!(server.is_draining());

    // Every verdict owed to the submitter arrives despite the drain.
    let mut tally = Tally::default();
    for p in pending {
        tally.absorb(p.wait_timeout(Duration::from_secs(20)));
    }
    assert_eq!(tally.errored, 0, "drain must not strand an in-flight verdict: {tally:?}");
    assert_eq!(tally.outcomes(), INFLIGHT);

    // New submits are refused with a typed Draining error.
    let proto = &protos[0];
    let mut task = proto.0.clone();
    task.id = TaskId(9_999);
    let refused = submitter
        .submit_borrowed(&task, &proto.1, None)
        .expect("submit frame still writable")
        .poll_wait(Duration::from_secs(20));
    match refused {
        Some(Err(NetError::Server(e))) => assert_eq!(e.code, ErrorCode::Draining),
        other => panic!("post-drain submit must be refused as Draining, got {other:?}"),
    }

    assert!(final_metrics.submitted <= INFLIGHT, "drain snapshot is from this run");
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "post-drain conservation: {:?}", report.metrics);
}

#[test]
fn drain_flushes_every_inflight_outcome() {
    run_drain_flush(Frontend::Threads);
}

#[test]
fn drain_flushes_every_inflight_outcome_reactor() {
    run_drain_flush(Frontend::Reactor);
}

/// The client-shipped deadline is enforced server-side: a budget far
/// tighter than the batch window expires the request instead of waiting
/// for a solver round. (The tighter of the client budget and the
/// service's own admission deadline wins.)
fn run_deadline_propagation(frontend: Frontend) {
    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 1,
            batch_max: 64,
            batch_window: Duration::from_millis(100),
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();
    let client = Client::connect(addr, ClientConfig::default()).expect("connect");

    let mut expired = 0u64;
    for i in 0..8u32 {
        let proto = &protos[i as usize % protos.len()];
        let mut task = proto.0.clone();
        task.id = TaskId(i);
        // 1 µs budget: expired by the time the 100 ms batch window fires.
        let p = client.submit(task, proto.1.clone(), Some(Duration::from_micros(1))).expect("submit");
        if matches!(p.wait_timeout(Duration::from_secs(20)), Ok(Outcome::Expired { .. })) {
            expired += 1;
        }
    }
    assert!(expired > 0, "a 1 µs client deadline must expire behind a 100 ms batch window");

    client.close();
    let report = server.shutdown();
    assert!(report.metrics.expired >= expired);
    assert!(report.metrics.is_conserved());
}

#[test]
fn client_deadline_propagates_to_the_server() {
    run_deadline_propagation(Frontend::Threads);
}

#[test]
fn client_deadline_propagates_to_the_server_reactor() {
    run_deadline_propagation(Frontend::Reactor);
}

/// Live resharding under pipelined load, end to end through the wire: a
/// client streams submits while a controller connection reshapes the
/// fleet twice (4 → 6 → 3) with `Scale` frames. Zero verdicts are lost,
/// the final snapshot conserves, and the server's reshard counters match
/// the acknowledged `Scaled` responses.
fn run_reshard_under_load(frontend: Frontend) {
    const REQUESTS: u64 = 360;

    let (server, protos) = start_server(
        frontend,
        ServiceConfig {
            shards: 4,
            batch_max: 16,
            batch_window: Duration::from_micros(500),
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();

    let client = Client::connect(addr, ClientConfig::default()).expect("connect submitter");
    let controller = Client::connect(addr, ClientConfig::default()).expect("connect controller");

    let mut tally = Tally::default();
    let mut pending = std::collections::VecDeque::new();
    let mut admitted_ids: Vec<TaskId> = Vec::new();
    let mut migrated_total = 0u64;
    for i in 0..REQUESTS {
        // Reshard mid-stream, with verdicts outstanding in the pipeline
        // both times: grow at a third, shrink below start at two thirds.
        if i == REQUESTS / 3 {
            let resp = controller.scale_to(6).expect("scale 4 -> 6");
            assert_eq!((resp.from_shards, resp.to_shards, resp.generation), (4, 6, 1));
            migrated_total += resp.migrated;
        }
        if i == 2 * REQUESTS / 3 {
            let resp = controller.scale_to(3).expect("scale 6 -> 3");
            assert_eq!((resp.from_shards, resp.to_shards, resp.generation), (6, 3, 2));
            migrated_total += resp.migrated;
        }

        let proto = &protos[i as usize % protos.len()];
        let mut task = proto.0.clone();
        task.id = TaskId(i as u32);
        match client.submit(task, proto.1.clone(), None) {
            Ok(p) => pending.push_back(p),
            Err(_) => tally.errored += 1,
        }
        if pending.len() >= 48 {
            let p = pending.pop_front().expect("non-empty");
            let task = p.task();
            let verdict = p.wait_timeout(Duration::from_secs(20));
            if matches!(verdict, Ok(Outcome::Admitted { .. })) {
                admitted_ids.push(task);
            }
            tally.absorb(verdict);
        }
        // Departures keep flowing across fleet generations: after a
        // reshard these route to the task's *new* owner (or are orphan-
        // buffered until its migration lands).
        if i % 11 == 10 {
            if let Some(id) = admitted_ids.pop() {
                client.depart(id).expect("depart");
            }
        }
    }
    for p in pending {
        tally.absorb(p.wait_timeout(Duration::from_secs(20)));
    }

    // An invalid scale target is refused with a typed error, without
    // disturbing the stream.
    match controller.scale_to(0) {
        Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::InvalidScale),
        other => panic!("scale_to(0) must be refused InvalidScale, got {other:?}"),
    }

    client.close();
    controller.close();
    let report = server.shutdown();
    let m = &report.metrics;

    assert_eq!(tally.errored, 0, "a live reshard must not lose a single verdict: {tally:?}");
    assert_eq!(tally.outcomes(), REQUESTS, "every request resolves exactly once: {tally:?}");
    assert!(m.is_conserved(), "server conservation violated: {m:?}");
    assert_eq!(m.submitted, REQUESTS);
    assert_eq!(m.admitted, tally.admitted);
    assert_eq!(m.rejected, tally.rejected);
    assert_eq!(m.shed, tally.shed);
    assert_eq!(m.expired, tally.expired);
    assert_eq!(m.reshards, 2, "both topology changes counted");
    assert_eq!(m.generation, 2);
    assert_eq!(m.migrated, migrated_total, "server-counted migrations match the Scaled acks");
}

#[test]
fn reshard_under_pipelined_load_conserves() {
    run_reshard_under_load(Frontend::Threads);
}

#[test]
fn reshard_under_pipelined_load_conserves_reactor() {
    run_reshard_under_load(Frontend::Reactor);
}

/// One hostile submit must not kill a shard: a NaN request rate, a
/// zero-bit quality level or a negative processing time is refused with
/// a typed `Malformed` error before it is counted, the connection stays
/// open, and the same (only) shard still solves the next valid request.
fn run_hostile_submit(frontend: Frontend) {
    let (server, protos) = start_server(frontend, ServiceConfig { shards: 1, ..quick_service() });
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let (task, options) = &protos[0];

    let mut nan_rate = task.clone();
    nan_rate.request_rate = f64::NAN;
    let mut zero_bits = options.clone();
    zero_bits[0].quality.bits = 0.0;
    let mut negative_proc = options.clone();
    negative_proc[0].proc_seconds = -1.0;
    for (task, options) in
        [(nan_rate, options.clone()), (task.clone(), zero_bits), (task.clone(), negative_proc)]
    {
        let refused = client.submit_borrowed(&task, &options, None).expect("frame written");
        match refused.poll_wait(Duration::from_secs(20)) {
            Some(Err(NetError::Server(e))) => assert_eq!(e.code, ErrorCode::Malformed, "{e:?}"),
            other => panic!("a hostile submit must be refused Malformed, got {other:?}"),
        }
    }

    let verdict = client
        .submit(task.clone(), options.clone(), None)
        .expect("the connection stays open")
        .wait_timeout(Duration::from_secs(20));
    assert!(
        matches!(verdict, Ok(Outcome::Admitted { .. } | Outcome::Rejected { .. })),
        "the shard must still be solving, got {verdict:?}"
    );

    client.close();
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "ledger: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, 1, "refused requests are never counted");
}

#[test]
fn hostile_submit_is_refused_and_the_shard_survives() {
    run_hostile_submit(Frontend::Threads);
}

#[test]
fn hostile_submit_is_refused_and_the_shard_survives_reactor() {
    run_hostile_submit(Frontend::Reactor);
}

/// A wire verdict keeps its classes apart: one still in flight when its
/// wait bound elapses is `TimedOut` (it may yet arrive), and one whose
/// connection is cut before it arrives is `Transport` — whether the
/// server resolved it is unknowable from the client.
fn run_verdict_classes(frontend: Frontend) {
    let slow = ServiceConfig {
        shards: 1,
        chaos: ChaosConfig { slow_solver: Duration::from_millis(300), ..ChaosConfig::default() },
        ..quick_service()
    };
    let (server, protos) = start_server(frontend, slow);
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let (task, options) = &protos[0];

    let in_flight = client.submit(task.clone(), options.clone(), None).expect("submit");
    assert_eq!(in_flight.wait_timeout(Duration::from_millis(20)), Err(VerdictError::TimedOut));

    let mut cut = task.clone();
    cut.id = TaskId(1);
    let pending = client.submit(cut, options.clone(), None).expect("submit");
    let ingest_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().submitted < 2 {
        assert!(std::time::Instant::now() < ingest_deadline, "server never ingested both submits");
        std::thread::sleep(Duration::from_millis(2));
    }
    client.close();
    match pending.wait() {
        Err(VerdictError::Transport(_)) => {}
        other => panic!("a verdict whose connection was cut must be Transport, got {other:?}"),
    }

    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "ledger: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, 2);
}

#[test]
fn verdict_classes_stay_apart_over_the_wire() {
    run_verdict_classes(Frontend::Threads);
}

#[test]
fn verdict_classes_stay_apart_over_the_wire_reactor() {
    run_verdict_classes(Frontend::Reactor);
}

/// Dialing a dead address makes one attempt and fails with a typed
/// error within the connect timeout instead of retrying, hanging or
/// panicking. (Client-side only — no frontend involved.)
#[test]
fn dialing_a_dead_port_fails_after_one_attempt() {
    // Bind-then-drop guarantees a port with no listener behind it.
    let dead_addr = {
        let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let config = ClientConfig { connect_timeout: Duration::from_millis(200) };
    let started = std::time::Instant::now();
    match Client::connect(dead_addr, config) {
        Err(NetError::Disconnected(msg)) => assert!(msg.contains("dialing"), "error names the dial: {msg}"),
        other => panic!("dialing a dead port must fail Disconnected, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(took < config.connect_timeout + Duration::from_millis(100), "one dial took {took:?}");
}

/// A client owns one connection for its whole life: once the server has
/// closed it, later requests fail instead of silently redialing into a
/// freed connection slot.
fn run_dead_client_never_redials(frontend: Frontend) {
    let scenario = small_scenario(4);
    let server = AnyServer::start(
        frontend,
        ("127.0.0.1", 0),
        NetConfig { max_connections: 1 },
        quick_service(),
        &scenario.instance,
    )
    .expect("start server");
    let addr = server.local_addr();
    let (task, options) = (&scenario.instance.tasks[0], &scenario.instance.options[0]);

    let a = Client::connect(addr, ClientConfig::default()).expect("connect a");
    let verdict =
        a.submit(task.clone(), options.clone(), None).expect("submit").wait_timeout(Duration::from_secs(20));
    assert!(verdict.is_ok(), "a holds the only slot and is served: {verdict:?}");

    // b's TCP connect succeeds, but the server answers TooManyConnections
    // and closes it.
    let b = Client::connect(addr, ClientConfig::default()).expect("connect b");
    assert!(b.snapshot().is_err(), "b's connection was refused");

    a.close();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 {
        assert!(std::time::Instant::now() < deadline, "a's connection slot was never freed");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut retry = task.clone();
    retry.id = TaskId(1);
    match b.submit_borrowed(&retry, options, None) {
        Err(NetError::Disconnected(_)) => {}
        other => panic!("a dead client must fail Disconnected without redialing, got {other:?}"),
    }
    b.close();
    let report = server.shutdown();
    assert_eq!(report.metrics.submitted, 1, "only a's submit reached the server");
}

#[test]
fn dead_client_never_redials() {
    run_dead_client_never_redials(Frontend::Threads);
}

#[test]
fn dead_client_never_redials_reactor() {
    run_dead_client_never_redials(Frontend::Reactor);
}

/// A 2-shard service whose handle for one task holds its verdict back
/// for `hold` after the shard answered: the stand-in for one slow
/// verdict on a backend. The handle keeps the default
/// `ring_on_resolve`, so a frontend finds it only by polling.
struct Holding {
    service: Service,
    held: TaskId,
    hold: Duration,
    /// Set when a `Scale` reaches the backend; the reshard then takes
    /// `hold` before it starts.
    scaling: Arc<AtomicBool>,
}

impl Holding {
    fn start(frontend: Frontend, held: TaskId, hold: Duration) -> (AnyServer<Holding>, Arc<AtomicBool>) {
        let scenario = small_scenario(4);
        let service = Service::start(quick_service(), &scenario.instance).expect("start service");
        let scaling = Arc::new(AtomicBool::new(false));
        let backend = Holding { service, held, hold, scaling: Arc::clone(&scaling) };
        let server = AnyServer::start_with_backend(frontend, ("127.0.0.1", 0), NetConfig::default(), backend)
            .expect("start server");
        (server, scaling)
    }
}

/// The held verdict: nothing to poll until `until`.
struct Held {
    verdict: PendingVerdict,
    until: Instant,
}

impl VerdictHandle for Held {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        (Instant::now() >= self.until).then(|| self.verdict.poll()).flatten()
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        std::thread::sleep(self.until.saturating_duration_since(Instant::now()));
        self.verdict.wait()
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        let held = self.until.saturating_duration_since(Instant::now());
        if held > timeout {
            std::thread::sleep(timeout);
            return Err(VerdictError::TimedOut);
        }
        std::thread::sleep(held);
        self.verdict.wait_timeout(timeout - held)
    }
}

impl Admitter for Holding {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError> {
        let id = task.id;
        let verdict = self.service.submit(task, options, deadline)?;
        if id != self.held {
            return Ok(verdict);
        }
        Ok(PendingVerdict::new(id, Box::new(Held { verdict, until: Instant::now() + self.hold })))
    }

    fn depart(&self, task: TaskId) {
        Admitter::depart(&self.service, task);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Admitter::metrics(&self.service)
    }

    fn begin_drain(&self) {
        Admitter::begin_drain(&self.service);
    }

    fn tier(&self) -> &'static str {
        "holding"
    }
}

impl Backend for Holding {
    fn is_draining(&self) -> bool {
        self.service.is_draining()
    }

    fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
        self.scaling.store(true, Ordering::SeqCst);
        std::thread::sleep(self.hold);
        self.service.scale_to(shards)
    }

    fn ledger(&self) -> MetricsSnapshot {
        self.service.metrics()
    }

    fn drain(self) -> DrainReport {
        self.service.drain()
    }
}

/// Dials `addr` and waits until the server has accepted the connection,
/// so connections reach the event loops in dial order.
fn dial_in_order(server: &AnyServer<Holding>) -> Client {
    let before = server.active_connections();
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() == before {
        assert!(Instant::now() < deadline, "the server never accepted the connection");
        std::thread::sleep(Duration::from_millis(1));
    }
    client
}

/// Submits `id` on `client` and times how long its verdict takes.
fn timed_verdict(client: &Client, id: u32) -> Duration {
    let scenario = small_scenario(4);
    let (mut task, options) = (scenario.instance.tasks[1].clone(), scenario.instance.options[1].clone());
    task.id = TaskId(id);
    let sent = Instant::now();
    let verdict = client.submit(task, options, None).expect("submit").wait_timeout(Duration::from_secs(20));
    assert!(verdict.is_ok(), "task {id}: {verdict:?}");
    sent.elapsed()
}

/// One held verdict delays no other: a connection's next verdict
/// leaves as soon as it resolves, and so does the verdict of a
/// connection the fixed pool puts on the held one's loop (the third
/// connection, round-robin over two loops).
fn run_a_held_verdict_blocks_nothing(frontend: Frontend) {
    const HOLD: Duration = Duration::from_millis(500);
    const PROMPT: Duration = Duration::from_millis(100);
    let (server, _) = Holding::start(frontend, TaskId(1), HOLD);
    let same = dial_in_order(&server);
    let other_loop = dial_in_order(&server);
    let same_loop = dial_in_order(&server);

    let scenario = small_scenario(4);
    let (mut task, options) = (scenario.instance.tasks[0].clone(), scenario.instance.options[0].clone());
    task.id = TaskId(1);
    let held_at = Instant::now();
    let held = same.submit(task, options, None).expect("submit the held task");

    // All three at once, so one late verdict cannot delay measuring another.
    let (next, beside, apart) = std::thread::scope(|scope| {
        let next = scope.spawn(|| timed_verdict(&same, 2));
        let beside = scope.spawn(|| timed_verdict(&same_loop, 3));
        let apart = scope.spawn(|| timed_verdict(&other_loop, 4));
        let join = |h: std::thread::ScopedJoinHandle<'_, Duration>| h.join().expect("timed verdict");
        (join(next), join(beside), join(apart))
    });
    assert!(next < PROMPT, "the held connection's next verdict took {next:?}");
    assert!(beside < PROMPT, "a verdict on the held one's loop took {beside:?}");
    assert!(apart < PROMPT, "a verdict on the other loop took {apart:?}");

    assert!(held.wait_timeout(Duration::from_secs(20)).is_ok(), "the held verdict still arrives");
    assert!(held_at.elapsed() >= HOLD, "and not before its hold");
    for client in [same, other_loop, same_loop] {
        client.close();
    }
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "ledger: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, 4);
}

#[test]
fn a_held_verdict_blocks_nothing() {
    run_a_held_verdict_blocks_nothing(Frontend::Threads);
}

#[test]
fn a_held_verdict_blocks_nothing_reactor() {
    run_a_held_verdict_blocks_nothing(Frontend::Reactor);
}

/// Replies leave in resolution order, but a wire drain's final metrics
/// still follow every earlier verdict of the connection: here the held
/// verdict, owed long after the drain frame arrived.
fn run_drain_ack_follows_earlier_verdicts(frontend: Frontend) {
    const HOLD: Duration = Duration::from_millis(300);
    let (server, _) = Holding::start(frontend, TaskId(1), HOLD);
    let scenario = small_scenario(4);
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let mut wire = Vec::new();
    for (request_id, id) in [(1, 1), (2, 2)] {
        let mut task = scenario.instance.tasks[0].clone();
        task.id = TaskId(id);
        let options = scenario.instance.options[0].clone();
        wire.extend(codec::encode(&Frame::Submit(SubmitRequest {
            request_id,
            deadline_us: 0,
            task,
            options,
        })));
    }
    wire.extend(codec::encode(&Frame::Drain(DrainRequest { request_id: 3 })));
    sock.write_all(&wire).expect("write");

    sock.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let mut buf = Vec::new();
    let mut order = Vec::new();
    let mut chunk = [0u8; 4096];
    while order.len() < 3 {
        while let Some((frame, used)) = codec::decode(&buf).expect("server bytes are never malformed") {
            buf.drain(..used);
            order.push(match frame {
                Frame::Outcome(o) => o.request_id,
                Frame::Metrics(m) if m.is_final => m.request_id,
                other => panic!("unexpected reply {other:?}"),
            });
        }
        if order.len() < 3 {
            let n = sock.read(&mut chunk).expect("read");
            assert!(n > 0, "the server closed after {order:?}");
            buf.extend_from_slice(&chunk[..n]);
        }
    }
    assert_eq!(order, [2, 1, 3], "the fast verdict first, the drain acknowledgement last");
    drop(sock);
    assert!(server.shutdown().metrics.is_conserved());
}

#[test]
fn drain_ack_follows_earlier_verdicts() {
    run_drain_ack_follows_earlier_verdicts(Frontend::Threads);
}

#[test]
fn drain_ack_follows_earlier_verdicts_reactor() {
    run_drain_ack_follows_earlier_verdicts(Frontend::Reactor);
}

/// A `Scale` still resharding when the server shuts down: its helper
/// thread is joined before the backend drains, and the report conserves.
fn run_shutdown_during_a_scale(frontend: Frontend) {
    const RESHARD: Duration = Duration::from_millis(200);
    let (server, scaling) = Holding::start(frontend, TaskId(u32::MAX), RESHARD);
    let client = dial_in_order(&server);
    assert!(timed_verdict(&client, 1) < Duration::from_secs(20));
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.write_all(&codec::encode(&Frame::Scale(ScaleRequest { request_id: 1, shards: 3 }))).expect("write");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !scaling.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the scale never reached the backend");
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "ledger: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, 1);
    drop((client, sock));
}

#[test]
fn shutdown_during_a_scale_conserves() {
    run_shutdown_during_a_scale(Frontend::Threads);
}

#[test]
fn shutdown_during_a_scale_conserves_reactor() {
    run_shutdown_during_a_scale(Frontend::Reactor);
}
