//! Malformed-input hardening: the decoder must reject bad magic, version
//! skew, hostile length prefixes and corrupted checksums with *typed*
//! errors — and must never panic, whatever the bytes (the exhaustive
//! per-tag bit-flip and prefix loops live beside the frame table in
//! `codec.rs`; the compound-corruption loop at the bottom rides along).
//! Over the wire, both frontends answer a refused stream with a
//! connection-level `Malformed` error frame and close.

use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_net::codec::{
    self, encode_raw, frame_type, AnnounceRequest, DepartRequest, DrainRequest, ErrorCode, ErrorResponse,
    ForwardRequest, Frame, LeaveRequest, MemberInfo, MemberState, MembershipDecision, MembershipResponse,
    MetricsResponse, OutcomeResponse, ScaleRequest, ScaleResponse, SnapshotRequest, SubmitRequest,
    HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN,
};
use offloadnn_net::wire::fnv1a32;
use offloadnn_net::{decode, decode_exact, encode, AnyServer, DecodeError, Frontend, NetConfig, VERSION};
use offloadnn_serve::{HistogramSnapshot, MetricsSnapshot, Outcome, ServiceConfig, HISTOGRAM_BUCKETS};
use std::io::{Read, Write};
use std::time::Duration;

/// Valid frames of a dozen wire types.
fn valid_frames() -> Vec<Frame> {
    let s = small_scenario(3);
    let hist = HistogramSnapshot { buckets: [3; HISTOGRAM_BUCKETS], count: 7, sum_us: 191 };
    vec![
        Frame::Submit(SubmitRequest {
            request_id: 11,
            deadline_us: 2_000_000,
            task: s.instance.tasks[0].clone(),
            options: s.instance.options[0].clone(),
        }),
        Frame::Depart(DepartRequest { request_id: 12, task: TaskId(4) }),
        Frame::Snapshot(SnapshotRequest { request_id: 13 }),
        Frame::Drain(DrainRequest { request_id: 14 }),
        Frame::Outcome(OutcomeResponse {
            request_id: 15,
            outcome: Outcome::Admitted { admission: 0.5, rbs: 3.25, shard: 1 },
        }),
        Frame::Metrics(MetricsResponse {
            request_id: 16,
            is_final: false,
            metrics: MetricsSnapshot {
                submitted: 9,
                admitted: 4,
                rejected: 3,
                shed: 1,
                expired: 1,
                departed: 2,
                solver_rounds: 5,
                solver_errors: 0,
                reshards: 1,
                migrated: 3,
                generation: 1,
                peak_queue_depth: 6,
                peak_batch: 4,
                latency: hist,
                round_time: hist,
            },
        }),
        Frame::Error(ErrorResponse {
            request_id: 17,
            code: ErrorCode::NoOptions,
            message: "no candidate paths".to_owned(),
        }),
        Frame::Scale(ScaleRequest { request_id: 18, shards: 6 }),
        Frame::Scaled(ScaleResponse {
            request_id: 18,
            from_shards: 4,
            to_shards: 6,
            migrated: 9,
            generation: 1,
        }),
        Frame::Announce(AnnounceRequest {
            request_id: 19,
            addr: "10.0.0.7:4100".to_owned(),
            incarnation: 41,
        }),
        Frame::Leave(LeaveRequest { request_id: 20, addr: "10.0.0.7:4100".to_owned(), incarnation: 41 }),
        Frame::Membership(MembershipResponse {
            request_id: 21,
            decision: MembershipDecision::Accepted,
            members: vec![
                MemberInfo { addr: "10.0.0.7:4100".to_owned(), incarnation: 41, state: MemberState::Probing },
                MemberInfo { addr: "10.0.0.8:4100".to_owned(), incarnation: 0, state: MemberState::Healthy },
            ],
        }),
    ]
}

#[test]
fn bad_magic_is_rejected_even_on_short_input() {
    let mut bytes = encode(&valid_frames()[2]);
    bytes[0] = b'X';
    assert!(matches!(decode(&bytes), Err(DecodeError::BadMagic { .. })));
    // The prefix check fires before a whole header arrives: garbage
    // fails fast instead of waiting for a bogus frame to "complete".
    assert!(matches!(decode(&bytes[..3]), Err(DecodeError::BadMagic { .. })));
}

/// A well-formed snapshot request — valid checksum and all — stamped
/// with `version` instead of [`VERSION`].
fn snapshot_stamped(version: u8) -> Vec<u8> {
    let mut bytes = encode(&Frame::Snapshot(SnapshotRequest { request_id: 2 }));
    bytes[4] = version;
    let body_end = bytes.len() - TRAILER_LEN;
    let checksum = fnv1a32(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn any_other_version_is_refused_from_the_header_alone() {
    // One protocol revision: nothing about a frame from another one is
    // parsed or skipped, however well-formed it is.
    for version in [VERSION + 1, VERSION - 1] {
        let bytes = snapshot_stamped(version);
        let refused = Err(DecodeError::UnsupportedVersion { got: version });
        assert_eq!(decode(&bytes), refused);
        assert_eq!(decode(&bytes[..HEADER_LEN]), refused, "the 12-byte header is enough");
        assert_eq!(decode_exact(&bytes).map(|_| None), refused);
    }
}

/// Writes `wire` on a fresh connection to a `frontend` server and
/// returns every frame the server sent before closing the connection.
fn replies_until_close(frontend: Frontend, wire: &[u8]) -> Vec<Frame> {
    let scenario = small_scenario(3);
    let (net, service) = (NetConfig::default(), ServiceConfig::default());
    let server =
        AnyServer::start(frontend, ("127.0.0.1", 0), net, service, &scenario.instance).expect("start");
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    sock.write_all(wire).expect("write");
    let mut buf = Vec::new();
    match sock.read_to_end(&mut buf) {
        Ok(_) => {}
        // A reset instead of FIN is also a close.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("{frontend}: the server left the refused stream unanswered: {e}"),
    }
    let mut frames = Vec::new();
    while let Some((frame, consumed)) = decode(&buf).expect("server bytes are never malformed") {
        buf.drain(..consumed);
        frames.push(frame);
    }
    assert!(server.shutdown().metrics.is_conserved());
    frames
}

#[test]
fn a_version_mismatch_is_answered_malformed_and_closed_on_both_frontends() {
    // A peer from another protocol revision must hear about it — the
    // skip-newer-frames decoder of earlier builds left it waiting forever.
    for frontend in [Frontend::Threads, Frontend::Reactor] {
        for version in [VERSION + 1, VERSION - 1] {
            match replies_until_close(frontend, &snapshot_stamped(version)).as_slice() {
                [Frame::Error(e)] => assert_eq!((e.request_id, e.code), (0, ErrorCode::Malformed), "{e:?}"),
                other => panic!("{frontend}, v{version}: expected one Malformed error frame, got {other:?}"),
            }
        }
    }
}

#[test]
fn nonzero_reserved_bytes_are_rejected() {
    let mut bytes = encode(&valid_frames()[3]);
    bytes[6] = 1;
    assert_eq!(decode(&bytes), Err(DecodeError::NonZeroReserved));
}

#[test]
fn unknown_frame_type_is_rejected() {
    let bytes = encode_raw(0x3F, &42u64.to_le_bytes());
    assert_eq!(decode(&bytes), Err(DecodeError::UnknownFrameType { got: 0x3F }));
}

#[test]
fn oversized_length_prefix_fails_before_any_allocation() {
    // A header claiming a payload past MAX_PAYLOAD must be rejected from
    // the header alone — no waiting for 4 GiB that will never arrive.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&codec::MAGIC);
    bytes.push(offloadnn_net::VERSION);
    bytes.push(frame_type::SNAPSHOT);
    bytes.extend_from_slice(&[0, 0]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(bytes.len(), HEADER_LEN);
    assert_eq!(decode(&bytes), Err(DecodeError::OversizedPayload { len: u32::MAX }));
    assert_eq!(
        decode(&[&bytes[..], &[0u8; 64][..]].concat()),
        Err(DecodeError::OversizedPayload { len: u32::MAX }),
        "more bytes arriving must not change the verdict"
    );
    // Right at the limit the length itself is legal (the frame is then
    // merely incomplete).
    bytes[8..12].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    assert_eq!(decode(&bytes), Ok(None));
}

/// A forward's tried-set is stored by every ticket it lands in, and the
/// payload limit alone would let one frame name about four million
/// gateways: a set past the codec's cap is refused at decode, while the
/// two entries a forward carries at a hop limit of 1 decode whole.
#[test]
fn a_forward_naming_too_many_gateways_is_refused() {
    let s = small_scenario(3);
    let forward = |tried: Vec<String>| {
        encode(&Frame::Forward(ForwardRequest {
            request_id: 21,
            deadline_us: 900,
            hops: 0,
            origin: "10.0.0.1:4000".to_owned(),
            tried,
            task: s.instance.tasks[0].clone(),
            options: s.instance.options[0].clone(),
        }))
    };
    let legit = vec!["10.0.0.1:4000".to_owned(), "10.0.0.2:4000".to_owned()];
    assert!(matches!(decode_exact(&forward(legit)), Ok(Frame::Forward(f)) if f.tried.len() == 2));
    let hostile = forward(vec![String::new(); 100_000]);
    assert!(hostile.len() < MAX_PAYLOAD as usize, "within the payload limit");
    let refused = decode(&hostile).map(|frame| frame.map(|(f, _)| f.type_name()));
    assert_eq!(refused, Err(DecodeError::OversizedSeq { len: 100_000 }), "refused before allocating");
}

#[test]
fn corrupted_checksum_is_rejected() {
    let bytes = encode(&valid_frames()[0]);
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert!(matches!(decode(&corrupt), Err(DecodeError::BadChecksum { .. })));

    // A payload flip is caught by the checksum too (FNV-1a steps are
    // bijective in the accumulator, so any single-bit change must alter
    // the final hash).
    let mut corrupt = bytes;
    corrupt[HEADER_LEN + 3] ^= 0x80;
    assert!(matches!(decode(&corrupt), Err(DecodeError::BadChecksum { .. })));
}

#[test]
fn payload_with_trailing_bytes_is_rejected() {
    // A snapshot payload is exactly the request id; pad it.
    let mut payload = 5u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0xAB, 0xCD]);
    let bytes = encode_raw(frame_type::SNAPSHOT, &payload);
    assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes { extra: 2 }));
}

#[test]
fn truncation_after_mutation_never_panics() {
    // Compound corruption: mutate one byte, then truncate anywhere.
    // Nothing to assert about the value — surviving the loop without a
    // panic is the property.
    for frame in valid_frames() {
        let bytes = encode(&frame);
        for i in (0..bytes.len()).step_by(7) {
            let mut mutated = bytes.clone();
            mutated[i] = mutated[i].wrapping_add(1);
            for cut in (0..mutated.len()).step_by(11) {
                let _ = decode(&mutated[..cut]);
                let _ = decode_exact(&mutated[..cut]);
            }
        }
    }
}
