//! The length-prefixed binary frame codec.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "ODNN"
//! 4       1     protocol version (must equal VERSION)
//! 5       1     frame type
//! 6       2     reserved (must be zero)
//! 8       4     payload length N, little-endian (<= MAX_PAYLOAD)
//! 12      N     payload (frame-type specific)
//! 12+N    4     FNV-1a/32 checksum over bytes [0, 12+N)
//! ```
//!
//! Requests ([`Frame::Submit`], [`Frame::Depart`], [`Frame::Snapshot`],
//! [`Frame::Drain`], [`Frame::Scale`], [`Frame::Announce`],
//! [`Frame::Leave`], [`Frame::PeerHello`], [`Frame::Forward`]) and
//! responses ([`Frame::Outcome`], [`Frame::Metrics`], [`Frame::Scaled`],
//! [`Frame::Membership`], [`Frame::PeerLoad`], [`Frame::Error`]) all
//! start their payload with a `u64` correlation id chosen by the client,
//! so requests can be pipelined and responses arrive in any order.
//!
//! ## Version policy
//!
//! There is one protocol revision, [`VERSION`], and every frame is
//! stamped with it. A frame carrying any other version byte is refused
//! with [`DecodeError::UnsupportedVersion`] as soon as that byte has
//! arrived — never parsed, never skipped — so a mismatched peer gets an
//! error frame and a closed connection instead of silence. Any change to
//! the envelope or to a payload layout bumps [`VERSION`].
//!
//! ## One frame table
//!
//! Everything that depends only on a frame's *type* — wire tag, short
//! name, correlation-id accessor, `net.tx.*` / `net.rx.*` counters, the
//! payload encode and decode — is generated from the single
//! `frame_table!` list below. Each type on the wire has one encoder and
//! one decoder, side by side; a struct's come from its `wire_struct!`
//! row, whose field order *is* the wire order (`tests/wire_vectors.rs`
//! pins the bytes). A new frame type is one table row, one `wire_struct!`
//! row and one arm in the crate's request dispatcher.
//!
//! The decoder never panics on malformed input: truncation, bad magic,
//! version skew, unknown types, oversized length prefixes (outer and
//! inner), checksum corruption and bad enum tags all surface as typed
//! [`DecodeError`]s. [`decode`] is a *streaming* entry point — it returns
//! `Ok(None)` while a frame is still incomplete — while [`decode_exact`]
//! expects exactly one whole frame.

use crate::error::DecodeError;
use crate::wire::{capped_seq, field_min, fnv1a32, Reader, Wire, Writer};
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{QualityLevel, Task, TaskId};
use offloadnn_dnn::block::{BlockId, GroupId, ModelId};
use offloadnn_dnn::repository::DnnPath;
use offloadnn_dnn::{Config, PathConfig};
use offloadnn_radio::SnrDb;
use offloadnn_serve::metrics::HistogramSnapshot;
use offloadnn_serve::{MetricsSnapshot, Outcome, SubmitError};
use offloadnn_telemetry::{count, span};
use serde::{Deserialize, Serialize};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"ODNN";

/// The one protocol revision this build speaks: stamped on every frame
/// it encodes, required on every frame it decodes. It is 5 because
/// earlier builds stamped their frames 1 through 4, frame type by frame
/// type: every one of those is refused, not half-accepted.
pub const VERSION: u8 = 5;

/// Envelope bytes before the payload.
pub const HEADER_LEN: usize = 12;

/// Envelope bytes after the payload (the checksum).
pub const TRAILER_LEN: usize = 4;

/// Largest payload the codec accepts (16 MiB). A submit for a task with
/// hundreds of candidate paths is a few hundred KiB; anything near this
/// limit is garbage or abuse.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Most gateways a [`ForwardRequest::tried`] set may name, checked before
/// it is allocated: every forwarded ticket stores it, and a legitimate
/// one names the origin plus one per hop (two at a hop limit of 1).
pub const MAX_TRIED: u32 = 16;

/// Generates a wire enum's [`Wire`] impl — one tag byte — from one
/// `Variant = tag` list, so the two directions cannot drift apart. The
/// tags are part of the protocol.
macro_rules! wire_tags {
    ($ty:ident, $($variant:ident = $tag:literal),*) => {
        impl Wire for $ty {
            const MIN: usize = 1;
            #[inline]
            fn put(&self, w: &mut Writer) {
                u8::put(&match self { $($ty::$variant => $tag,)* }, w)
            }
            #[inline]
            fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
                match u8::get(r, field)? {
                    $($tag => Ok($ty::$variant),)*
                    got => Err(DecodeError::BadEnumTag { what: field, got }),
                }
            }
        }
    };
}

/// Generates the [`Wire`] impl of each listed one-field tuple struct:
/// exactly its field's layout, under the name of the field it fills.
macro_rules! wire_newtype {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            const MIN: usize = field_min(|s: &$ty| &s.0);
            #[inline]
            fn put(&self, w: &mut Writer) { self.0.put(w) }
            #[inline]
            fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
                Wire::get(r, field).map($ty)
            }
        }
    )*};
}

/// Generates each listed struct's [`Wire`] impl from one row naming its
/// fields *in wire order*: the row is the layout. `MIN` is the sum of the
/// fields' minimums, and a decode error names the field `Type.field`.
/// A sequence field written `field <= CAP` decodes at most `CAP`
/// elements. A row that misses or repeats a field does not compile.
macro_rules! wire_struct {
    (@get $r:ident, $name:expr) => { Wire::get($r, $name)? };
    (@get $r:ident, $name:expr, $cap:expr) => { capped_seq($r, $name, $cap)? };
    ($($ty:ident { $($field:ident $(<= $cap:expr)?),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN: usize = 0 $(+ field_min(|s: &$ty| &s.$field))*;
            #[inline]
            fn put(&self, w: &mut Writer) { $(self.$field.put(w);)* }
            #[inline]
            fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
                $(let $field = wire_struct!(@get r, concat!(stringify!($ty), ".", stringify!($field)) $(, $cap)?);)*
                Ok($ty { $($field),* })
            }
        }
    )*};
}

wire_newtype!(TaskId, GroupId, ModelId, BlockId, SnrDb);

wire_tags!(Config, A = 0, B = 1, C = 2, D = 3, E = 4);

wire_struct! {
    QualityLevel { quality, bits }
    Task { id, name, group, priority, request_rate, min_accuracy, max_latency, snr, qualities, difficulty }
    PathConfig { config, pruned }
    DnnPath { model, group, config, blocks }
    PathOption { path, quality, accuracy, proc_seconds, training_seconds, label }
    HistogramSnapshot { buckets, count, sum_us }
    // The peak gauges travel before `reshards`, unlike the declaration.
    MetricsSnapshot {
        submitted, admitted, rejected, shed, expired, departed, solver_rounds, solver_errors,
        peak_queue_depth, peak_batch, reshards, migrated, generation, latency, round_time,
    }
    MemberInfo { addr, incarnation, state }
    PeerDigest { healthy_nodes, remaining_budget, round_ms_p50, epoch }
}

/// A tag byte, then the variant's fields; the shard index travels as a
/// `u64`.
impl Wire for Outcome {
    const MIN: usize = 1 + 8;

    #[inline]
    fn put(&self, w: &mut Writer) {
        let (tag, shard) = match *self {
            Outcome::Admitted { shard, .. } => (0u8, shard),
            Outcome::Rejected { shard } => (1, shard),
            Outcome::Shed { shard } => (2, shard),
            Outcome::Expired { shard } => (3, shard),
        };
        tag.put(w);
        if let Outcome::Admitted { admission, rbs, .. } = *self {
            admission.put(w);
            rbs.put(w);
        }
        (shard as u64).put(w);
    }

    #[inline]
    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, DecodeError> {
        let shard = |r: &mut Reader<'_>| u64::get(r, "Outcome.shard").map(|s| s as usize);
        Ok(match u8::get(r, field)? {
            0 => {
                let admission = f64::get(r, "Outcome.admission")?;
                let rbs = f64::get(r, "Outcome.rbs")?;
                Outcome::Admitted { admission, rbs, shard: shard(r)? }
            }
            1 => Outcome::Rejected { shard: shard(r)? },
            2 => Outcome::Shed { shard: shard(r)? },
            3 => Outcome::Expired { shard: shard(r)? },
            got => return Err(DecodeError::BadEnumTag { what: field, got }),
        })
    }
}

/// An admission request: a full task description plus its candidate
/// paths, and the client-side admission-deadline budget in microseconds
/// (`0` = use the server's policy deadline; otherwise the server enforces
/// the *tighter* of the two).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// Admission-deadline budget in µs (0 = server default).
    pub deadline_us: u64,
    /// The offloaded CV task and its requirements.
    pub task: Task,
    /// Candidate (path, quality) options for the task.
    pub options: Vec<PathOption>,
}

/// A departure notice for a previously admitted task. Fire-and-forget:
/// the server releases the capacity and sends no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepartRequest {
    /// Correlation id (unused — departures get no response — but kept so
    /// every payload starts identically).
    pub request_id: u64,
    /// The departing task.
    pub task: TaskId,
}

/// Asks for a point-in-time [`MetricsSnapshot`]; answered by
/// [`Frame::Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
}

/// Begins a graceful server drain: ingress closes, every in-flight
/// outcome is flushed to its client, and the drain initiator receives a
/// final [`Frame::Metrics`] with [`MetricsResponse::is_final`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainRequest {
    /// Client-chosen correlation id echoed on the final metrics frame.
    pub request_id: u64,
}

/// Asks the server to reshape its shard fleet to `shards` workers at
/// runtime ([`offloadnn_serve::Service::scale_to`]); answered by
/// [`Frame::Scaled`] (or [`Frame::Error`] with
/// [`ErrorCode::InvalidScale`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// Desired shard count (must be >= 1).
    pub shards: u32,
}

/// The result of a completed reshard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleResponse {
    /// Correlation id of the scale request this answers.
    pub request_id: u64,
    /// Shard count before the reshard.
    pub from_shards: u32,
    /// Shard count after the reshard.
    pub to_shards: u32,
    /// In-flight tasks migrated to new owner shards.
    pub migrated: u64,
    /// Fleet generation after the reshard.
    pub generation: u64,
}

/// Lifecycle state of one cluster member, as the gateway's membership
/// engine tracks it. The wire tags are part of the
/// protocol; the state machine itself lives in `offloadnn-gateway`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemberState {
    /// Announced but not yet health-probed: invisible to routing until a
    /// probe succeeds (join-through-probation).
    Probing,
    /// Routable.
    Healthy,
    /// Temporarily unroutable (missed probes or a data-path failure);
    /// a post-probation probe readmits it.
    Ejected,
    /// Left the cluster (graceful [`Frame::Leave`] or an operator
    /// decision); only a *newer incarnation* announce brings it back.
    Departed,
}

wire_tags!(MemberState, Probing = 0, Healthy = 1, Ejected = 2, Departed = 3);

/// How the gateway judged an [`AnnounceRequest`] or [`LeaveRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MembershipDecision {
    /// The request was applied (a join, restart or departure took
    /// effect).
    Accepted,
    /// The same incarnation was already known: a harmless replay,
    /// nothing changed.
    Duplicate,
    /// The incarnation is older than the one on record (or replays one
    /// that already departed); the request was ignored.
    Stale,
    /// The receiving backend does not manage a cluster membership (e.g.
    /// a single serve node was addressed directly).
    Unsupported,
}

wire_tags!(MembershipDecision, Accepted = 0, Duplicate = 1, Stale = 2, Unsupported = 3);

/// One member in a [`MembershipResponse`] cluster view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberInfo {
    /// The member's `offloadnn-net` frontend address.
    pub addr: String,
    /// The incarnation under which the member is currently registered.
    pub incarnation: u64,
    /// Its lifecycle state.
    pub state: MemberState,
}

/// A serve node registering itself with a gateway. The
/// incarnation is a per-process monotonic stamp (e.g. startup time in
/// nanoseconds): announces carrying an incarnation older than the one
/// on record are ignored, so a delayed or replayed announce can never
/// resurrect a node that has since departed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnounceRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// The announcing node's own frontend address, as the gateway should
    /// dial it.
    pub addr: String,
    /// The node's incarnation stamp.
    pub incarnation: u64,
}

/// A serve node deregistering ahead of a graceful drain.
/// Answered by [`Frame::Membership`] once the gateway has stopped
/// routing new work to the node; in-flight tickets fail over to the
/// survivors with their remaining deadline budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaveRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// The departing node's frontend address.
    pub addr: String,
    /// The incarnation under which the node announced (a leave with an
    /// older incarnation than the record is stale and ignored).
    pub incarnation: u64,
}

/// One gateway introducing itself to a peer gateway and asking for its
/// load digest. Sent periodically by the federation
/// digest loop; answered by [`Frame::PeerLoad`]. The incarnation is the
/// sender's per-process monotonic stamp, so a peer can tell a restart
/// from a replay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerHelloRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// The sending gateway's own frontend address, as the peer should
    /// dial it back (and as it appears in [`ForwardRequest::tried`]).
    pub addr: String,
    /// The sending gateway's incarnation stamp.
    pub incarnation: u64,
}

/// A gateway's load digest: the signals a peer needs to rank
/// forwarding targets without dialing every node itself. A backend
/// answers it from [`crate::Backend::peer_load`]; it travels back in a
/// [`PeerLoadResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerDigest {
    /// Routable (healthy) nodes behind the answering gateway.
    pub healthy_nodes: u32,
    /// Aggregate remaining admission budget across those nodes (in-flight
    /// and queued work subtracted from capacity); higher is emptier.
    pub remaining_budget: f64,
    /// p50 of the answering gateway's verdict latency (submit to settled
    /// verdict, failovers included) in milliseconds: how quickly a
    /// forwarded admission would be decided.
    pub round_ms_p50: f64,
    /// The answering gateway's membership version; a change means its
    /// node pool moved.
    pub epoch: u64,
}

/// The answer to a [`Frame::PeerHello`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerLoadResponse {
    /// Correlation id of the [`Frame::PeerHello`] this answers.
    pub request_id: u64,
    /// The answering gateway's load digest.
    pub digest: PeerDigest,
}

/// An overflow admission forwarded from a saturated gateway to a peer.
/// Carries the *remaining* deadline budget (never the origin's policy
/// default), a hop budget, and every gateway already visited, so a task
/// can neither loop nor revisit a peer. Answered by an ordinary
/// [`Frame::Outcome`] (or [`Frame::Error`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForwardRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// Remaining deadline budget in µs (0 = the origin had no deadline;
    /// the receiver applies its own policy).
    pub deadline_us: u64,
    /// Remaining hop budget: how many more times this task may be
    /// forwarded on. 0 means the receiver must decide locally; the
    /// receiver clamps a larger claim to its own hop limit.
    pub hops: u8,
    /// The gateway where the task first arrived; a relaying receiver
    /// keeps it as the origin of any further forward.
    pub origin: String,
    /// Every gateway that has already held this task, origin included;
    /// the receiver never forwards to an address in this set.
    pub tried: Vec<String>,
    /// The offloaded CV task and its requirements.
    pub task: Task,
    /// Candidate (path, quality) options for the task.
    pub options: Vec<PathOption>,
}

/// The gateway's answer to an announce or leave: the decision plus a
/// point-in-time view of the whole cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipResponse {
    /// Correlation id of the request this answers.
    pub request_id: u64,
    /// How the request was judged.
    pub decision: MembershipDecision,
    /// The cluster as the gateway sees it after applying the request.
    pub members: Vec<MemberInfo>,
}

/// The verdict of one submit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutcomeResponse {
    /// Correlation id of the submit this answers.
    pub request_id: u64,
    /// The admission verdict.
    pub outcome: Outcome,
}

/// A metrics snapshot (answer to [`Frame::Snapshot`] or, with
/// [`MetricsResponse::is_final`], to [`Frame::Drain`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Correlation id of the request this answers.
    pub request_id: u64,
    /// Whether this is the final snapshot of a drained server (no further
    /// frames follow on this connection).
    pub is_final: bool,
    /// The service metrics.
    pub metrics: MetricsSnapshot,
}

/// Machine-readable reason of an [`ErrorResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The service is draining and no longer accepts submits.
    Draining,
    /// The submit carried no candidate path options.
    NoOptions,
    /// The peer sent bytes the codec rejected (connection closes after
    /// this frame), or a well-formed request whose contents were refused
    /// — an unparseable member address, non-finite or out-of-range
    /// submit fields (the connection stays open).
    Malformed,
    /// The server is at its connection limit (connection closes after
    /// this frame).
    TooManyConnections,
    /// An internal server failure (e.g. a worker died mid-request).
    Internal,
    /// A [`Frame::Scale`] was rejected (zero shards, or the service is
    /// draining).
    InvalidScale,
}

wire_tags!(
    ErrorCode,
    Draining = 0,
    NoOptions = 1,
    Malformed = 2,
    TooManyConnections = 3,
    Internal = 4,
    InvalidScale = 5
);

impl From<SubmitError> for ErrorCode {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Draining => ErrorCode::Draining,
            SubmitError::NoOptions => ErrorCode::NoOptions,
            // A backend can only report its *own* ingress unreachable as
            // an internal failure; the variant exists for client-side
            // Admitter impls and normally never crosses the wire.
            SubmitError::Unavailable => ErrorCode::Internal,
            // The envelope decoded, but the numbers inside are hostile.
            SubmitError::Invalid => ErrorCode::Malformed,
        }
    }
}

/// A request-level or connection-level failure. `request_id` 0 marks a
/// connection-level error (no specific request caused it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Correlation id of the offending request, or 0.
    pub request_id: u64,
    /// Machine-readable reason.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Everything that can travel on the wire.
///
/// Frames are transient — decoded, dispatched and dropped — so the size
/// skew from the histogram-carrying metrics variant is not worth the
/// boxing churn at every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Admission request.
    Submit(SubmitRequest),
    /// Departure notice (fire-and-forget).
    Depart(DepartRequest),
    /// Metrics snapshot request.
    Snapshot(SnapshotRequest),
    /// Graceful-drain request.
    Drain(DrainRequest),
    /// Elastic-reshard request.
    Scale(ScaleRequest),
    /// Node self-registration with a gateway.
    Announce(AnnounceRequest),
    /// Node deregistration ahead of a graceful drain.
    Leave(LeaveRequest),
    /// Gateway-to-gateway load-digest request.
    PeerHello(PeerHelloRequest),
    /// Overflow admission forwarded between gateways.
    Forward(ForwardRequest),
    /// Admission verdict.
    Outcome(OutcomeResponse),
    /// Metrics snapshot.
    Metrics(MetricsResponse),
    /// Elastic-reshard response.
    Scaled(ScaleResponse),
    /// Membership decision + cluster view.
    Membership(MembershipResponse),
    /// Gateway load digest.
    PeerLoad(PeerLoadResponse),
    /// Request- or connection-level error.
    Error(ErrorResponse),
}

/// The frame table: one row per wire frame — variant, tag constant and
/// byte, short name, and the `net.tx.*` / `net.rx.*` counter names
/// (spelled out because `count!` takes literals). Everything per frame
/// type below is generated from these rows, so the fifteen frames are
/// enumerated here once.
macro_rules! frame_table {
    ($($variant:ident, $tag:ident = $byte:literal, $name:literal, $tx:literal, $rx:literal;)*) => {
        /// The frame-type tags (byte 5 of the envelope). Requests are in
        /// `0x01..=0x3F`, responses in `0x41..=0x7F`.
        pub mod frame_type {
            $(
                #[doc = concat!("Tag of [`Frame::", stringify!($variant), "`](super::Frame::", stringify!($variant), ").")]
                pub const $tag: u8 = $byte;
            )*
        }

        impl Frame {
            /// `(wire tag, short name)` of every frame type, in table order.
            pub const TABLE: &'static [(u8, &'static str)] = &[$((frame_type::$tag, $name)),*];

            /// The wire tag of this frame's type.
            pub fn frame_type(&self) -> u8 {
                match self { $(Frame::$variant(_) => frame_type::$tag,)* }
            }

            /// Short name of the frame type (telemetry labels, log lines).
            pub fn type_name(&self) -> &'static str {
                match self { $(Frame::$variant(_) => $name,)* }
            }

            /// The correlation id carried in the payload.
            pub fn request_id(&self) -> u64 {
                match self { $(Frame::$variant(f) => f.request_id,)* }
            }
        }

        /// The payload of `frame` — its struct's `wire_struct!` layout —
        /// counted on `net.tx.<type>`.
        fn encode_payload(frame: &Frame) -> Vec<u8> {
            let mut w = Writer::new();
            match frame { $(Frame::$variant(f) => { count!($tx); f.put(&mut w) })* }
            w.into_bytes()
        }

        /// Parses the payload of a frame of type `tag`, counted on
        /// `net.rx.<type>` once it parsed whole. An unknown tag is refused
        /// before any payload byte is read.
        fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
            let mut r = Reader::new(payload);
            match tag {
                $(frame_type::$tag => {
                    let frame = Frame::$variant(Wire::get(&mut r, $name)?);
                    r.finish()?;
                    count!($rx);
                    Ok(frame)
                })*
                got => Err(DecodeError::UnknownFrameType { got }),
            }
        }
    };
}

frame_table! {
    Submit,     SUBMIT     = 0x01, "submit",     "net.tx.submit",     "net.rx.submit";
    Depart,     DEPART     = 0x02, "depart",     "net.tx.depart",     "net.rx.depart";
    Snapshot,   SNAPSHOT   = 0x03, "snapshot",   "net.tx.snapshot",   "net.rx.snapshot";
    Drain,      DRAIN      = 0x04, "drain",      "net.tx.drain",      "net.rx.drain";
    Scale,      SCALE      = 0x05, "scale",      "net.tx.scale",      "net.rx.scale";
    Announce,   ANNOUNCE   = 0x06, "announce",   "net.tx.announce",   "net.rx.announce";
    Leave,      LEAVE      = 0x07, "leave",      "net.tx.leave",      "net.rx.leave";
    PeerHello,  PEER_HELLO = 0x08, "peer_hello", "net.tx.peer_hello", "net.rx.peer_hello";
    Forward,    FORWARD    = 0x09, "forward",    "net.tx.forward",    "net.rx.forward";
    Outcome,    OUTCOME    = 0x41, "outcome",    "net.tx.outcome",    "net.rx.outcome";
    Metrics,    METRICS    = 0x42, "metrics",    "net.tx.metrics",    "net.rx.metrics";
    Scaled,     SCALED     = 0x44, "scaled",     "net.tx.scaled",     "net.rx.scaled";
    Membership, MEMBERSHIP = 0x45, "membership", "net.tx.membership", "net.rx.membership";
    PeerLoad,   PEER_LOAD  = 0x46, "peer_load",  "net.tx.peer_load",  "net.rx.peer_load";
    Error,      ERROR      = 0x43, "error",      "net.tx.error",      "net.rx.error";
}

// The fifteen payloads, each field list in wire order.
wire_struct! {
    SubmitRequest { request_id, deadline_us, task, options }
    DepartRequest { request_id, task }
    SnapshotRequest { request_id }
    DrainRequest { request_id }
    ScaleRequest { request_id, shards }
    AnnounceRequest { request_id, addr, incarnation }
    LeaveRequest { request_id, addr, incarnation }
    PeerHelloRequest { request_id, addr, incarnation }
    ForwardRequest { request_id, deadline_us, hops, origin, tried <= MAX_TRIED, task, options }
    OutcomeResponse { request_id, outcome }
    MetricsResponse { request_id, is_final, metrics }
    ScaleResponse { request_id, from_shards, to_shards, migrated, generation }
    MembershipResponse { request_id, decision, members }
    PeerLoadResponse { request_id, digest }
    ErrorResponse { request_id, code, message }
}

/// Wraps an already-encoded payload in the envelope (header + checksum)
/// at [`VERSION`]. Exposed so tests can frame hand-crafted hostile
/// payloads with a valid checksum; production code uses [`encode`].
pub fn encode_raw(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(frame_type);
    buf.extend_from_slice(&[0, 0]); // reserved
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = fnv1a32(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Encodes one frame into its wire bytes.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let _span = span!("net.encode");
    encode_raw(frame.frame_type(), &encode_payload(frame))
}

/// Encodes a submit frame from a *borrowed* task and option list: the
/// same bytes as [`encode`] of the equivalent [`Frame::Submit`], without
/// the caller having to own (or copy) what it submits.
pub fn encode_submit(request_id: u64, deadline_us: u64, task: &Task, options: &[PathOption]) -> Vec<u8> {
    let _span = span!("net.encode");
    count!("net.tx.submit");
    // `SubmitRequest`'s row, from borrowed fields.
    let mut w = Writer::new();
    request_id.put(&mut w);
    deadline_us.put(&mut w);
    task.put(&mut w);
    w.seq(options);
    encode_raw(frame_type::SUBMIT, &w.into_bytes())
}

/// Encodes a forward frame from a borrowed task and option list: the
/// same bytes as [`encode`] of the equivalent [`Frame::Forward`].
pub fn encode_forward(
    request_id: u64,
    deadline_us: u64,
    hops: u8,
    origin: &str,
    tried: &[String],
    task: &Task,
    options: &[PathOption],
) -> Vec<u8> {
    let _span = span!("net.encode");
    count!("net.tx.forward");
    // `ForwardRequest`'s row, from borrowed fields.
    let mut w = Writer::new();
    request_id.put(&mut w);
    deadline_us.put(&mut w);
    hops.put(&mut w);
    w.str(origin);
    w.seq(tried);
    task.put(&mut w);
    w.seq(options);
    encode_raw(frame_type::FORWARD, &w.into_bytes())
}

/// Streaming decode: parses one frame off the front of `buf`.
///
/// * `Ok(None)` — the buffer does not yet hold a complete frame (read
///   more bytes and retry). Header fields that have already arrived are
///   still validated, so garbage — or a peer speaking another protocol
///   revision — fails fast without waiting for a bogus payload length to
///   "complete".
/// * `Ok(Some((frame, consumed)))` — one frame, and how many bytes of
///   `buf` it used.
/// * `Err(_)` — the bytes are not a valid frame; the stream cannot be
///   re-synchronised and the connection should close.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
    let _span = span!("net.decode");
    // Validate the prefix that *has* arrived so garbage fails fast.
    let seen = buf.len().min(MAGIC.len());
    if buf[..seen] != MAGIC[..seen] {
        let mut got = [0u8; 4];
        got[..seen].copy_from_slice(&buf[..seen]);
        return Err(DecodeError::BadMagic { got });
    }
    if let Some(&got) = buf.get(4) {
        if got != VERSION {
            return Err(DecodeError::UnsupportedVersion { got });
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[6] != 0 || buf[7] != 0 {
        return Err(DecodeError::NonZeroReserved);
    }
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_PAYLOAD {
        return Err(DecodeError::OversizedPayload { len });
    }
    let body_end = HEADER_LEN + len as usize;
    let total = body_end + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let expected = fnv1a32(&buf[..body_end]);
    let got = u32::from_le_bytes([buf[body_end], buf[body_end + 1], buf[body_end + 2], buf[body_end + 3]]);
    if expected != got {
        return Err(DecodeError::BadChecksum { expected, got });
    }
    Ok(Some((decode_payload(buf[5], &buf[HEADER_LEN..body_end])?, total)))
}

/// Decodes a buffer expected to hold exactly one whole frame.
///
/// # Errors
///
/// [`DecodeError::Truncated`] if the buffer is incomplete,
/// [`DecodeError::TrailingBytes`] if bytes follow the frame, and any
/// streaming [`decode`] error otherwise. Never panics.
pub fn decode_exact(buf: &[u8]) -> Result<Frame, DecodeError> {
    match decode(buf)? {
        Some((frame, consumed)) if consumed == buf.len() => Ok(frame),
        Some((_, consumed)) => Err(DecodeError::TrailingBytes { extra: buf.len() - consumed }),
        None => Err(DecodeError::Truncated { field: "frame" }),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use offloadnn_core::scenario::small_scenario;
    use offloadnn_serve::HISTOGRAM_BUCKETS;

    fn sample_submit() -> Frame {
        let s = small_scenario(3);
        Frame::Submit(SubmitRequest {
            request_id: 42,
            deadline_us: 1_500_000,
            task: s.instance.tasks[1].clone(),
            options: s.instance.options[1].clone(),
        })
    }

    fn sample_forward() -> Frame {
        let s = small_scenario(3);
        Frame::Forward(ForwardRequest {
            request_id: 14,
            deadline_us: 850_000,
            hops: 1,
            origin: "127.0.0.1:7000".to_owned(),
            tried: vec!["127.0.0.1:7000".to_owned(), "127.0.0.1:7001".to_owned()],
            task: s.instance.tasks[2].clone(),
            options: s.instance.options[2].clone(),
        })
    }

    fn sample_metrics() -> MetricsSnapshot {
        let mut latency = HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 17, sum_us: 1234 };
        latency.buckets[3] = 17;
        MetricsSnapshot {
            submitted: 100,
            admitted: 60,
            rejected: 20,
            shed: 15,
            expired: 5,
            departed: 30,
            solver_rounds: 9,
            solver_errors: 0,
            reshards: 2,
            migrated: 11,
            generation: 2,
            peak_queue_depth: 77,
            peak_batch: 64,
            latency,
            round_time: HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum_us: 0 },
        }
    }

    /// At least one frame of every type in [`Frame::TABLE`] (shared with
    /// the dispatcher's unit test).
    pub(crate) fn sample_frames() -> Vec<Frame> {
        let member = |addr: &str, incarnation, state| MemberInfo { addr: addr.into(), incarnation, state };
        vec![
            sample_submit(),
            Frame::Depart(DepartRequest { request_id: 7, task: TaskId(99) }),
            Frame::Snapshot(SnapshotRequest { request_id: 8 }),
            Frame::Drain(DrainRequest { request_id: 9 }),
            Frame::Scale(ScaleRequest { request_id: 10, shards: 6 }),
            Frame::Scaled(ScaleResponse {
                request_id: 10,
                from_shards: 4,
                to_shards: 6,
                migrated: 13,
                generation: 1,
            }),
            Frame::Outcome(OutcomeResponse {
                request_id: 42,
                outcome: Outcome::Admitted { admission: 0.75, rbs: 12.5, shard: 3 },
            }),
            Frame::Outcome(OutcomeResponse { request_id: 43, outcome: Outcome::Expired { shard: 1 } }),
            Frame::Metrics(MetricsResponse { request_id: 8, is_final: true, metrics: sample_metrics() }),
            Frame::Announce(AnnounceRequest {
                request_id: 11,
                addr: "127.0.0.1:9000".to_owned(),
                incarnation: 170_000_000_123,
            }),
            Frame::Leave(LeaveRequest {
                request_id: 12,
                addr: "127.0.0.1:9000".to_owned(),
                incarnation: 170_000_000_123,
            }),
            Frame::Membership(MembershipResponse {
                request_id: 11,
                decision: MembershipDecision::Accepted,
                members: vec![
                    member("127.0.0.1:9000", 170_000_000_123, MemberState::Probing),
                    member("127.0.0.1:9001", 0, MemberState::Healthy),
                    member("127.0.0.1:9002", 3, MemberState::Departed),
                ],
            }),
            Frame::Membership(MembershipResponse {
                request_id: 12,
                decision: MembershipDecision::Unsupported,
                members: vec![],
            }),
            Frame::PeerHello(PeerHelloRequest {
                request_id: 13,
                addr: "127.0.0.1:7000".to_owned(),
                incarnation: 170_000_000_456,
            }),
            Frame::PeerLoad(PeerLoadResponse {
                request_id: 13,
                digest: PeerDigest { healthy_nodes: 3, remaining_budget: 41.5, round_ms_p50: 2.25, epoch: 9 },
            }),
            sample_forward(),
            Frame::Error(ErrorResponse {
                request_id: 44,
                code: ErrorCode::Draining,
                message: "service is draining".to_owned(),
            }),
        ]
    }

    /// The one codec property test, driven by the frame table: for every
    /// tag, `decode(encode(f)) == f`; every single-bit flip is an error or
    /// "incomplete" (when the flipped length now claims more bytes than
    /// present), never a frame and never a panic; and every strict prefix
    /// is "incomplete", never an error.
    #[test]
    fn every_tag_round_trips_and_rejects_bit_flips_and_prefixes() {
        let frames = sample_frames();
        assert_eq!(Frame::TABLE.len(), 15);
        for &(tag, name) in Frame::TABLE {
            let of_tag: Vec<_> = frames.iter().filter(|f| f.frame_type() == tag).collect();
            assert!(!of_tag.is_empty(), "no sample frame for {name} ({tag:#04x})");
            for frame in of_tag {
                assert_eq!(frame.type_name(), name);
                let bytes = encode(frame);
                assert_eq!(bytes[4], VERSION, "{name} must be stamped with the one protocol revision");
                assert_eq!(decode_exact(&bytes).as_ref(), Ok(frame), "{name} round trip");
                assert_eq!(decode(&bytes), Ok(Some((frame.clone(), bytes.len()))), "{name} streamed");
                for bit in 0..bytes.len() * 8 {
                    let mut corrupt = bytes.clone();
                    corrupt[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        matches!(decode(&corrupt), Err(_) | Ok(None)),
                        "{name}: flipping bit {bit} must not yield a valid frame"
                    );
                    let _ = decode_exact(&corrupt); // must not panic either
                }
                for cut in 0..bytes.len() {
                    assert_eq!(decode(&bytes[..cut]), Ok(None), "{name}: {cut}-byte prefix is incomplete");
                }
                assert_eq!(
                    decode_exact(&bytes[..bytes.len() - 1]),
                    Err(DecodeError::Truncated { field: "frame" })
                );
            }
        }
    }

    #[test]
    fn borrowed_encoders_write_the_same_bytes_as_the_owned_frames() {
        let Frame::Submit(s) = sample_submit() else { unreachable!() };
        assert_eq!(
            encode_submit(s.request_id, s.deadline_us, &s.task, &s.options),
            encode(&Frame::Submit(s.clone()))
        );
        let Frame::Forward(f) = sample_forward() else { unreachable!() };
        assert_eq!(
            encode_forward(f.request_id, f.deadline_us, f.hops, &f.origin, &f.tried, &f.task, &f.options),
            encode(&Frame::Forward(f.clone()))
        );
    }

    #[test]
    fn two_frames_back_to_back_parse_in_order() {
        let a = Frame::Snapshot(SnapshotRequest { request_id: 1 });
        let b = Frame::Drain(DrainRequest { request_id: 2 });
        let mut bytes = encode(&a);
        bytes.extend_from_slice(&encode(&b));
        let (first, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = decode(&bytes[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn foreign_histogram_bucket_count_is_rejected() {
        let frame =
            Frame::Metrics(MetricsResponse { request_id: 5, is_final: false, metrics: sample_metrics() });
        let mut payload = encode_payload(&frame);
        payload[8 + 1 + 13 * 8] = 4; // the latency bucket count: after the id, the flag and 13 counters
        let refused = decode_exact(&encode_raw(frame_type::METRICS, &payload));
        assert_eq!(
            refused,
            Err(DecodeError::WrongLength { what: "HistogramSnapshot.buckets", got: 4, want: 23 })
        );
    }

    fn wire_len<T: Wire>(value: &T) -> usize {
        let mut w = Writer::new();
        value.put(&mut w);
        w.into_bytes().len()
    }

    fn at_least_min<T: Wire>(items: &[T]) {
        assert!(items.iter().all(|item| wire_len(item) >= T::MIN), "{}", std::any::type_name::<T>());
    }

    /// A `Vec` refuses any count whose elements could not fit at `MIN`
    /// bytes each, so an overstated `MIN` would refuse valid frames as
    /// `OversizedSeq`: a minimal element of each sequence type encodes to
    /// exactly its `MIN`, and every sample element to at least it.
    #[test]
    fn min_never_overstates_a_sequence_element() {
        let mut option = small_scenario(3).instance.options[0][0].clone();
        option.path.blocks.clear();
        option.label.clear();
        let member = MemberInfo { addr: String::new(), incarnation: 0, state: MemberState::Probing };
        assert_eq!(wire_len(&option.quality), QualityLevel::MIN);
        assert_eq!(wire_len(&BlockId(0)), BlockId::MIN);
        assert_eq!((wire_len(&option), PathOption::MIN), (58, 58));
        assert_eq!(wire_len(&String::new()), String::MIN);
        assert_eq!((wire_len(&member), MemberInfo::MIN), (13, 13));
        for frame in sample_frames() {
            match &frame {
                Frame::Submit(SubmitRequest { task, options, .. })
                | Frame::Forward(ForwardRequest { task, options, .. }) => {
                    at_least_min(&task.qualities);
                    at_least_min(options);
                    options.iter().for_each(|o| at_least_min(&o.path.blocks));
                }
                Frame::Membership(f) => at_least_min(&f.members),
                _ => {}
            }
            if let Frame::Forward(f) = &frame {
                at_least_min(&f.tried);
            }
        }
    }
}
