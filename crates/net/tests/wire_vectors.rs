//! Golden wire vectors: one minimal hand-built frame of each of the
//! fifteen frame types, pinned to its exact encoded bytes.
//!
//! The codec derives every payload layout from the field order of its
//! declarations, so that order *is* the protocol: a reordered field, a
//! widened integer or a changed tag encodes different bytes and fails
//! here, even when the round trip still succeeds. These literals change
//! only together with [`offloadnn_net::VERSION`].

use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{QualityLevel, Task, TaskId};
use offloadnn_dnn::block::{BlockId, GroupId, ModelId};
use offloadnn_dnn::repository::DnnPath;
use offloadnn_dnn::{Config, PathConfig};
use offloadnn_net::codec::{
    AnnounceRequest, DepartRequest, DrainRequest, ErrorCode, ErrorResponse, ForwardRequest, Frame,
    LeaveRequest, MemberInfo, MemberState, MembershipDecision, MembershipResponse, MetricsResponse,
    OutcomeResponse, PeerDigest, PeerHelloRequest, PeerLoadResponse, ScaleRequest, ScaleResponse,
    SnapshotRequest, SubmitRequest,
};
use offloadnn_net::{decode_exact, encode, VERSION};
use offloadnn_radio::SnrDb;
use offloadnn_serve::{HistogramSnapshot, MetricsSnapshot, Outcome, HISTOGRAM_BUCKETS};

fn quality() -> QualityLevel {
    QualityLevel { quality: 1.0, bits: 8.0 }
}

/// A task with one quality level.
fn task() -> Task {
    Task {
        id: TaskId(3),
        name: "t".to_owned(),
        group: GroupId(4),
        priority: 0.5,
        request_rate: 1.0,
        min_accuracy: 0.25,
        max_latency: 0.125,
        snr: SnrDb(2.0),
        qualities: vec![quality()],
        difficulty: 0.0,
    }
}

/// One option over a two-block path.
fn options() -> Vec<PathOption> {
    vec![PathOption {
        path: DnnPath {
            model: ModelId(5),
            group: GroupId(4),
            config: PathConfig { config: Config::C, pruned: true },
            blocks: vec![BlockId(6), BlockId(7)],
        },
        quality: quality(),
        accuracy: 0.75,
        proc_seconds: 0.5,
        training_seconds: 2.0,
        label: "o".to_owned(),
    }]
}

/// Every counter distinct, so a swapped pair of fields cannot encode
/// the same bytes.
fn metrics() -> MetricsSnapshot {
    let mut latency = HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 1, sum_us: 2 };
    latency.buckets[0] = 1;
    MetricsSnapshot {
        submitted: 1,
        admitted: 2,
        rejected: 3,
        shed: 4,
        expired: 5,
        departed: 6,
        solver_rounds: 7,
        solver_errors: 8,
        reshards: 9,
        migrated: 10,
        generation: 11,
        peak_queue_depth: 12,
        peak_batch: 13,
        latency,
        round_time: HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum_us: 3 },
    }
}

/// `task()` as a payload carries it: id, name, group, priority,
/// request_rate, min_accuracy, max_latency, snr, qualities, difficulty.
macro_rules! task_hex {
    () => {
        "03000000 01000000 74 04000000 \
         000000000000e03f 000000000000f03f 000000000000d03f 000000000000c03f 0000000000000040 \
         01000000 000000000000f03f 0000000000002040 \
         0000000000000000 "
    };
}

/// `options()` as a payload carries it: the count, then the path
/// (model, group, config tag, pruned, blocks), quality, accuracy,
/// proc_seconds, training_seconds and label.
macro_rules! options_hex {
    () => {
        "01000000 \
         05000000 04000000 02 01 02000000 06000000 07000000 \
         000000000000f03f 0000000000002040 \
         000000000000e83f 000000000000e03f 0000000000000040 01000000 6f "
    };
}

/// `(frame, its wire bytes in hex)`, one per frame type: the header
/// (magic, version, type, reserved, payload length), the payload field
/// by field, and the checksum. Whitespace in the hex is ignored.
fn vectors() -> Vec<(Frame, &'static str)> {
    vec![
        (
            Frame::Submit(SubmitRequest { request_id: 1, deadline_us: 2, task: task(), options: options() }),
            concat!(
                "4f444e4e 05 01 0000 a8000000 0100000000000000 0200000000000000 ",
                task_hex!(),
                options_hex!(),
                "8e38736d"
            ),
        ),
        (
            Frame::Depart(DepartRequest { request_id: 2, task: TaskId(3) }),
            "4f444e4e 05 02 0000 0c000000 0200000000000000 03000000 88374ee0",
        ),
        (
            Frame::Snapshot(SnapshotRequest { request_id: 3 }),
            "4f444e4e 05 03 0000 08000000 0300000000000000 01cebfb2",
        ),
        (
            Frame::Drain(DrainRequest { request_id: 4 }),
            "4f444e4e 05 04 0000 08000000 0400000000000000 ef055c8d",
        ),
        (
            Frame::Scale(ScaleRequest { request_id: 5, shards: 6 }),
            "4f444e4e 05 05 0000 0c000000 0500000000000000 06000000 d7e7454a",
        ),
        (
            Frame::Announce(AnnounceRequest { request_id: 6, addr: "a:1".to_owned(), incarnation: 7 }),
            "4f444e4e 05 06 0000 17000000 0600000000000000 03000000 613a31 0700000000000000 60973f89",
        ),
        (
            Frame::Leave(LeaveRequest { request_id: 7, addr: "a:1".to_owned(), incarnation: 8 }),
            "4f444e4e 05 07 0000 17000000 0700000000000000 03000000 613a31 0800000000000000 7914d922",
        ),
        (
            Frame::PeerHello(PeerHelloRequest { request_id: 8, addr: "g:1".to_owned(), incarnation: 9 }),
            "4f444e4e 05 08 0000 17000000 0800000000000000 03000000 673a31 0900000000000000 9876634a",
        ),
        (
            Frame::Forward(ForwardRequest {
                request_id: 9,
                deadline_us: 10,
                hops: 1,
                origin: "g:1".to_owned(),
                tried: vec!["g:1".to_owned()],
                task: task(),
                options: options(),
            }),
            concat!(
                "4f444e4e 05 09 0000 bb000000 0900000000000000 0a00000000000000 01 03000000 673a31 \
                 01000000 03000000 673a31 ",
                task_hex!(),
                options_hex!(),
                "47c789b1"
            ),
        ),
        (
            Frame::Outcome(OutcomeResponse {
                request_id: 10,
                outcome: Outcome::Admitted { admission: 0.5, rbs: 2.0, shard: 1 },
            }),
            "4f444e4e 05 41 0000 21000000 0a00000000000000 \
             00 000000000000e03f 0000000000000040 0100000000000000 317d00c7",
        ),
        (
            Frame::Metrics(MetricsResponse { request_id: 11, is_final: true, metrics: metrics() }),
            // Counters in wire order: peak_queue_depth and peak_batch
            // travel before reshards, unlike the declaration order.
            "4f444e4e 05 42 0000 09020000 0b00000000000000 01 \
             0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000 \
             0600000000000000 0700000000000000 0800000000000000 0c00000000000000 0d00000000000000 \
             0900000000000000 0a00000000000000 0b00000000000000 \
             17000000 0100000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0100000000000000 \
             0200000000000000 \
             17000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
             0300000000000000 \
             786d6676",
        ),
        (
            Frame::Scaled(ScaleResponse {
                request_id: 12,
                from_shards: 1,
                to_shards: 2,
                migrated: 3,
                generation: 4,
            }),
            "4f444e4e 05 44 0000 20000000 0c00000000000000 \
             01000000 02000000 0300000000000000 0400000000000000 2b754aa8",
        ),
        (
            Frame::Membership(MembershipResponse {
                request_id: 13,
                decision: MembershipDecision::Accepted,
                members: vec![MemberInfo {
                    addr: "n:1".to_owned(),
                    incarnation: 5,
                    state: MemberState::Healthy,
                }],
            }),
            "4f444e4e 05 45 0000 1d000000 0d00000000000000 00 \
             01000000 03000000 6e3a31 0500000000000000 01 b75a6497",
        ),
        (
            Frame::PeerLoad(PeerLoadResponse {
                request_id: 14,
                digest: PeerDigest { healthy_nodes: 2, remaining_budget: 1.5, round_ms_p50: 0.25, epoch: 3 },
            }),
            "4f444e4e 05 46 0000 24000000 0e00000000000000 \
             02000000 000000000000f83f 000000000000d03f 0300000000000000 9a6c4b8d",
        ),
        (
            Frame::Error(ErrorResponse {
                request_id: 15,
                code: ErrorCode::NoOptions,
                message: "x".to_owned(),
            }),
            "4f444e4e 05 43 0000 0e000000 0f00000000000000 01 01000000 78 55a89e93",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii hex"), 16).expect("hex digit"))
        .collect()
}

#[test]
fn every_frame_type_encodes_to_its_pinned_bytes_and_back() {
    assert_eq!(VERSION, 5, "a new protocol revision re-pins every vector below");
    let vectors = vectors();
    let mut tags: Vec<u8> = vectors.iter().map(|(f, _)| f.frame_type()).collect();
    tags.sort_unstable();
    let mut table: Vec<u8> = Frame::TABLE.iter().map(|&(tag, _)| tag).collect();
    table.sort_unstable();
    assert_eq!(tags, table, "exactly one vector per frame type");
    for (frame, pinned) in vectors {
        let name = frame.type_name();
        let bytes = unhex(pinned);
        assert_eq!(hex(&encode(&frame)), hex(&bytes), "{name}: encoded bytes moved");
        assert_eq!(decode_exact(&bytes), Ok(frame), "{name}: pinned bytes decode to the frame");
    }
}
