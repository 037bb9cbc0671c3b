//! The one request dispatcher of the connection engine.
//!
//! [`dispatch`] maps a decoded frame onto the backend — data-plane
//! frames onto its [`offloadnn_serve::Admitter`] half, control-plane
//! frames onto its [`Backend`] half — and says what the connection owes
//! in return as an [`Action`]: a reply to write now, a verdict owed
//! until it resolves ([`Owe`]), or a [`Job`] that may block and so runs
//! on a helper thread. Nothing here blocks. The next frame type is one
//! arm here, not one in the engine (`async_server.rs`).

use crate::backend::{Backend, ForwardInfo};
use crate::codec::{
    ErrorCode, ErrorResponse, Frame, MembershipResponse, MetricsResponse, OutcomeResponse, PeerLoadResponse,
    ScaleResponse,
};
use crate::error::DecodeError;
use offloadnn_serve::{Mailbox, PendingVerdict, SubmitError};
use offloadnn_telemetry::{event, Severity};
use std::net::SocketAddr;
use std::time::Duration;

/// What a connection owes after one decoded frame.
#[allow(clippy::large_enum_variant)] // transient and window-bounded; see Frame
pub(crate) enum Action {
    /// A submitted request: the connection owes its verdict.
    Verdict { request_id: u64, ticket: PendingVerdict },
    /// An already-built response frame, written at once.
    Reply(Frame),
    /// Work that may block, run on a helper thread; its reply is owed
    /// like a verdict.
    Help(Job),
    /// Nothing to send (a departure is fire-and-forget).
    Nothing,
    /// Protocol abuse: send this error frame behind everything the
    /// client is still owed, then close the connection.
    ReplyThenClose(Frame),
}

/// Work an event loop must not run itself.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Job {
    /// The drain acknowledgement: the final metrics, read only once
    /// every earlier verdict of the connection is written (an announced
    /// node's frontend fires its leave first, see `Shared::help`).
    FinalMetrics { request_id: u64 },
    /// Reshard the backend (milliseconds) and reply with the result.
    Scale { request_id: u64, shards: u32 },
}

impl Job {
    pub(crate) fn request_id(self) -> u64 {
        match self {
            Job::FinalMetrics { request_id } | Job::Scale { request_id, .. } => request_id,
        }
    }

    /// Runs the job to its reply frame; may block for milliseconds.
    pub(crate) fn redeem<B: Backend>(self, backend: &B) -> Frame {
        match self {
            Job::FinalMetrics { request_id } => {
                Frame::Metrics(MetricsResponse { request_id, is_final: true, metrics: backend.ledger() })
            }
            Job::Scale { request_id, shards } => match backend.scale_to(shards as usize) {
                Ok(r) => Frame::Scaled(ScaleResponse {
                    request_id,
                    from_shards: r.from_shards as u32,
                    to_shards: r.to_shards as u32,
                    migrated: r.migrated,
                    generation: r.generation,
                }),
                Err(e) => error_frame(request_id, ErrorCode::InvalidScale, e.to_string()),
            },
        }
    }
}

/// A reply the connection owes but cannot build yet: a verdict in
/// flight, or a helper thread's reply to a [`Job`].
pub(crate) enum Owe {
    Verdict { request_id: u64, ticket: PendingVerdict },
    Job { request_id: u64, reply: Mailbox<Frame> },
}

impl Owe {
    /// The reply, once it can be built without waiting. A verdict the
    /// backend lost (e.g. to a chaos-killed shard worker), or a helper
    /// that died, is answered with an `Internal` error frame.
    pub(crate) fn poll(&self) -> Option<Frame> {
        let (request_id, reply) = match self {
            Owe::Verdict { request_id, ticket } => (
                *request_id,
                ticket
                    .poll()?
                    .map(|outcome| Frame::Outcome(OutcomeResponse { request_id: *request_id, outcome })),
            ),
            Owe::Job { request_id, reply } => (*request_id, reply.take(Some(Duration::ZERO))?),
        };
        Some(reply.unwrap_or_else(|e| error_frame(request_id, ErrorCode::Internal, e.to_string())))
    }
}

/// Dispatches one decoded frame to the backend. Never blocks on a
/// verdict and never reshards — both are deferred into the [`Action`].
pub(crate) fn dispatch<B: Backend>(backend: &B, frame: Frame) -> Action {
    match frame {
        Frame::Submit(req) => {
            admission(req.request_id, backend.submit(req.task, req.options, budget(req.deadline_us)))
        }
        Frame::Forward(req) => {
            // Same shape as Submit, but the budget is the *remaining*
            // deadline carried from the origin gateway, and the backend
            // sees the hop/tried metadata for loop-free re-forwarding.
            let info = ForwardInfo { origin: req.origin, tried: req.tried, hops: req.hops };
            admission(req.request_id, backend.forward(req.task, req.options, budget(req.deadline_us), info))
        }
        Frame::Depart(req) => {
            backend.depart(req.task);
            Action::Nothing
        }
        // The snapshot is taken now, at the frame's place in the stream.
        Frame::Snapshot(req) => Action::Reply(Frame::Metrics(MetricsResponse {
            request_id: req.request_id,
            is_final: false,
            metrics: backend.ledger(),
        })),
        Frame::Drain(req) => {
            event!(Severity::Info, "net.dispatch", "drain requested (request {})", req.request_id);
            backend.begin_drain();
            Action::Help(Job::FinalMetrics { request_id: req.request_id })
        }
        Frame::Scale(req) => {
            event!(
                Severity::Info,
                "net.dispatch",
                "scale to {} shard(s) requested (request {})",
                req.shards,
                req.request_id
            );
            Action::Help(Job::Scale { request_id: req.request_id, shards: req.shards })
        }
        // Membership bookkeeping and a load digest are map updates and a
        // couple of atomic reads: cheap enough to answer inline.
        Frame::Announce(req) => Action::Reply(membership(req.request_id, &req.addr, |addr| {
            backend.announce(addr, req.incarnation)
        })),
        Frame::Leave(req) => {
            Action::Reply(membership(req.request_id, &req.addr, |addr| backend.leave(addr, req.incarnation)))
        }
        Frame::PeerHello(req) => Action::Reply(match backend.peer_load(&req.addr, req.incarnation) {
            Some(digest) => Frame::PeerLoad(PeerLoadResponse { request_id: req.request_id, digest }),
            None => error_frame(req.request_id, ErrorCode::Internal, "backend is not a federation gateway"),
        }),
        // A client must not send response frames; treat as protocol abuse.
        Frame::Outcome(_)
        | Frame::Metrics(_)
        | Frame::Scaled(_)
        | Frame::Membership(_)
        | Frame::PeerLoad(_)
        | Frame::Error(_) => Action::ReplyThenClose(error_frame(
            frame.request_id(),
            ErrorCode::Malformed,
            format!("unexpected {} frame from client", frame.type_name()),
        )),
    }
}

impl Action {
    /// The action closing a connection whose byte stream failed to
    /// decode: a connection-level (`request_id` 0) `Malformed` error.
    pub(crate) fn protocol_error(e: DecodeError) -> Self {
        Action::ReplyThenClose(error_frame(0, ErrorCode::Malformed, e.to_string()))
    }
}

/// An error response frame.
pub(crate) fn error_frame(request_id: u64, code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error(ErrorResponse { request_id, code, message: message.into() })
}

/// `deadline_us == 0` is the wire encoding of "no client deadline": the
/// backend applies its own policy default.
fn budget(deadline_us: u64) -> Option<Duration> {
    (deadline_us != 0).then(|| Duration::from_micros(deadline_us))
}

/// An accepted submit owes a verdict; an ingress refusal is answered
/// with an error frame right away (the connection stays open).
fn admission(request_id: u64, submitted: Result<PendingVerdict, SubmitError>) -> Action {
    match submitted {
        Ok(ticket) => Action::Verdict { request_id, ticket },
        Err(e) => Action::Reply(error_frame(request_id, e.into(), e.to_string())),
    }
}

/// The reply to an announce or leave: parses the member address and
/// consults the backend. An unparseable address answers a `Malformed`
/// error frame (the connection stays open — the envelope was valid).
fn membership(
    request_id: u64,
    addr: &str,
    apply: impl FnOnce(SocketAddr) -> crate::backend::MembershipAck,
) -> Frame {
    match addr.parse() {
        Ok(sock) => {
            let ack = apply(sock);
            Frame::Membership(MembershipResponse { request_id, decision: ack.decision, members: ack.members })
        }
        Err(_) => {
            error_frame(request_id, ErrorCode::Malformed, format!("unparseable member address {addr:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MembershipAck;
    use crate::codec::tests::sample_frames;
    use crate::codec::PeerDigest;
    use offloadnn_core::instance::PathOption;
    use offloadnn_core::task::{Task, TaskId};
    use offloadnn_serve::{
        Admitter, DrainReport, MetricsSnapshot, Outcome, ReshardReport, ServeError, VerdictError,
        VerdictHandle,
    };
    use std::sync::Mutex;

    /// A pending verdict that only ever polls `poll`: the engine never
    /// waits on a verdict.
    struct Scripted {
        poll: Option<Result<Outcome, VerdictError>>,
    }

    impl VerdictHandle for Scripted {
        fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
            self.poll.clone()
        }

        fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
            unreachable!("the engine never waits on a verdict")
        }

        fn wait_timeout(self: Box<Self>, _: Duration) -> Result<Outcome, VerdictError> {
            unreachable!("the engine never waits on a verdict")
        }
    }

    fn pending(poll: Option<Result<Outcome, VerdictError>>) -> PendingVerdict {
        PendingVerdict::new(TaskId(1), Box::new(Scripted { poll }))
    }

    /// A scripted backend: records every call the dispatcher makes.
    /// `Script<true>` is a federation member overriding every optional
    /// control-plane hook; `Script<false>` keeps all their defaults, as
    /// a plain serve node does.
    #[derive(Default)]
    struct Script<const FEDERATED: bool>(Mutex<Vec<String>>);

    impl<const FEDERATED: bool> Script<FEDERATED> {
        fn log(&self, call: String) {
            self.0.lock().unwrap().push(call);
        }

        fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
            self.log(format!("scale_to {shards}"));
            Err(ServeError::Draining)
        }

        fn ledger(&self) -> MetricsSnapshot {
            self.log("ledger".into());
            offloadnn_serve::ServiceMetrics::new().snapshot()
        }
    }

    impl<const FEDERATED: bool> Admitter for Script<FEDERATED> {
        fn submit(
            &self,
            task: Task,
            _: Vec<PathOption>,
            budget: Option<Duration>,
        ) -> Result<PendingVerdict, SubmitError> {
            self.log(format!("submit {} {budget:?}", task.id));
            Ok(pending(Some(Ok(Outcome::Rejected { shard: 7 }))))
        }

        fn depart(&self, task: TaskId) {
            self.log(format!("depart {task}"));
        }

        fn metrics(&self) -> Option<MetricsSnapshot> {
            unreachable!("the dispatcher reads the local ledger")
        }

        fn begin_drain(&self) {
            self.log("begin_drain".into());
        }

        fn tier(&self) -> &'static str {
            "script"
        }
    }

    impl Backend for Script<false> {
        fn is_draining(&self) -> bool {
            false
        }

        fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
            Script::scale_to(self, shards)
        }

        fn ledger(&self) -> MetricsSnapshot {
            Script::ledger(self)
        }

        fn drain(self) -> DrainReport {
            unreachable!("the dispatcher never drains")
        }
    }

    impl Backend for Script<true> {
        fn is_draining(&self) -> bool {
            false
        }

        fn scale_to(&self, shards: usize) -> Result<ReshardReport, ServeError> {
            Script::scale_to(self, shards)
        }

        fn forward(
            &self,
            task: Task,
            _: Vec<PathOption>,
            budget: Option<Duration>,
            info: ForwardInfo,
        ) -> Result<PendingVerdict, SubmitError> {
            self.log(format!("forward {} {budget:?} hops={} tried={}", task.id, info.hops, info.tried.len()));
            Err(SubmitError::Draining)
        }

        fn announce(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
            self.log(format!("announce {addr} {incarnation}"));
            MembershipAck::unsupported()
        }

        fn leave(&self, addr: SocketAddr, incarnation: u64) -> MembershipAck {
            self.log(format!("leave {addr} {incarnation}"));
            MembershipAck::unsupported()
        }

        fn peer_load(&self, peer_addr: &str, _: u64) -> Option<PeerDigest> {
            self.log(format!("peer_load {peer_addr}"));
            Some(PeerDigest { healthy_nodes: 2, remaining_budget: 1.0, round_ms_p50: 0.5, epoch: 3 })
        }

        fn ledger(&self) -> MetricsSnapshot {
            Script::ledger(self)
        }

        fn drain(self) -> DrainReport {
            unreachable!("the dispatcher never drains")
        }
    }

    /// One line per frame: its type and correlation id (plus the code of
    /// an error frame).
    fn describe_frame(f: &Frame) -> String {
        match f {
            Frame::Error(e) => format!("error {:?} #{}", e.code, e.request_id),
            f => format!("{} #{}", f.type_name(), f.request_id()),
        }
    }

    /// One line per action: its kind, plus the reply frame where it
    /// carries one.
    fn describe(action: &Action) -> String {
        match action {
            Action::Verdict { request_id, .. } => format!("verdict #{request_id}"),
            Action::Reply(f) => format!("reply {}", describe_frame(f)),
            Action::Help(Job::FinalMetrics { request_id }) => format!("final-metrics #{request_id}"),
            Action::Help(Job::Scale { request_id, shards }) => format!("scale #{request_id} to {shards}"),
            Action::Nothing => "nothing".to_owned(),
            Action::ReplyThenClose(f) => format!("close after {}", describe_frame(f)),
        }
    }

    /// Dispatches each named sample frame to a fresh backend and checks
    /// the action it owes and the backend calls it took.
    fn check<const FEDERATED: bool>(expected: &[(&str, &str, &[&str])])
    where
        Script<FEDERATED>: Backend,
    {
        let frames = sample_frames();
        for (name, action, calls) in expected {
            let frame = frames.iter().find(|f| f.type_name() == *name).expect("sample frame").clone();
            let backend = Script::<FEDERATED>::default();
            assert_eq!(describe(&dispatch(&backend, frame)), *action, "{name}");
            assert_eq!(*backend.0.lock().unwrap(), *calls, "{name}: backend calls");
        }
    }

    /// The frontend-parity contract as one assertion list: what each of
    /// the nine request frames asks of the backend and owes the client,
    /// and that each of the six response frames is protocol abuse.
    #[test]
    fn every_frame_type_maps_to_its_action() {
        let expected: &[(&str, &str, &[&str])] = &[
            ("submit", "verdict #42", &["submit t1 Some(1.5s)"]),
            ("depart", "nothing", &["depart t99"]),
            // Answered from the local ledger, never `Admitter::metrics`.
            ("snapshot", "reply metrics #8", &["ledger"]),
            ("drain", "final-metrics #9", &["begin_drain"]),
            // Deferred: the frontend chooses the thread that reshards.
            ("scale", "scale #10 to 6", &[]),
            ("announce", "reply membership #11", &["announce 127.0.0.1:9000 170000000123"]),
            ("leave", "reply membership #12", &["leave 127.0.0.1:9000 170000000123"]),
            ("peer_hello", "reply peer_load #13", &["peer_load 127.0.0.1:7000"]),
            // An ingress refusal is an error reply, not a close.
            ("forward", "reply error Draining #14", &["forward t2 Some(850ms) hops=1 tried=2"]),
            ("outcome", "close after error Malformed #42", &[]),
            ("metrics", "close after error Malformed #8", &[]),
            ("scaled", "close after error Malformed #10", &[]),
            ("membership", "close after error Malformed #11", &[]),
            ("peer_load", "close after error Malformed #13", &[]),
            ("error", "close after error Malformed #44", &[]),
        ];
        assert_eq!(expected.len(), Frame::TABLE.len(), "one expectation per frame type");
        check::<true>(expected);
    }

    /// A backend that keeps the control-plane defaults — a plain serve
    /// node — decides a `Forward` locally: it lands in `Admitter::submit`
    /// with the *remaining* budget the frame carried. It manages no
    /// membership and is no federation member.
    #[test]
    fn default_hooks_decide_locally_and_refuse_the_cluster_frames() {
        check::<false>(&[
            ("forward", "verdict #14", &["submit t2 Some(850ms)"]),
            ("announce", "reply membership #11", &[]),
            ("leave", "reply membership #12", &[]),
            ("peer_hello", "reply error Internal #13", &[]),
        ]);
    }

    /// An owed verdict is polled, never waited on: still in flight it
    /// owes nothing yet, and one the backend lost becomes an `Internal`
    /// error frame on the same request id. A drain's final metrics are
    /// the local ledger read when the job runs.
    #[test]
    fn redeem_answers_lost_verdicts_and_the_final_ledger() {
        let backend = Script::<false>::default();
        let in_flight = Owe::Verdict { request_id: 42, ticket: pending(None) };
        assert!(in_flight.poll().is_none(), "an in-flight verdict owes nothing yet");
        let lost = Owe::Verdict { request_id: 42, ticket: pending(Some(Err(VerdictError::Lost))) };
        assert_eq!(describe_frame(&lost.poll().expect("a lost verdict is answered")), "error Internal #42");
        let frame = Job::FinalMetrics { request_id: 9 }.redeem(&backend);
        assert_eq!(describe_frame(&frame), "metrics #9");
        assert_eq!(*backend.0.lock().unwrap(), ["ledger"]);
    }

    /// A helper thread that dies before answering its job answers an
    /// `Internal` error frame on the job's request id.
    #[test]
    fn a_helper_that_dies_unanswered_owes_an_internal_error() {
        let (responder, reply) = offloadnn_serve::mailbox();
        let owed = Owe::Job { request_id: 10, reply };
        assert!(owed.poll().is_none());
        drop(responder);
        assert_eq!(describe_frame(&owed.poll().expect("answered")), "error Internal #10");
    }
}
