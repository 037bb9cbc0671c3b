//! Property tests for the wire codec: `decode(encode(f)) == f` for every
//! frame type over generated contents, and the envelope's length prefix
//! is respected for arbitrary payload sizes.
//!
//! The content strategies live in `common/` and are shared with the
//! reactor state-machine tests.

mod common;

use common::{
    ascii_string, byte, error_code, member_info, membership_decision, metrics, outcome, path_option, task,
};
use offloadnn_core::task::TaskId;
use offloadnn_net::codec::{
    self, AnnounceRequest, DepartRequest, DrainRequest, ErrorResponse, ForwardRequest, Frame, LeaveRequest,
    MembershipResponse, MetricsResponse, OutcomeResponse, PeerDigest, PeerHelloRequest, PeerLoadResponse,
    ScaleRequest, ScaleResponse, SnapshotRequest, SubmitRequest, HEADER_LEN, TRAILER_LEN,
};
use proptest::collection::vec;
use proptest::prelude::*;

// ------------------------------------------------------------ round trips

fn assert_round_trip(frame: &Frame) -> Result<(), String> {
    let bytes = codec::encode(frame);
    match codec::decode_exact(&bytes) {
        Ok(decoded) if &decoded == frame => {}
        Ok(decoded) => return Err(format!("round trip changed the frame: {decoded:?} != {frame:?}")),
        Err(e) => return Err(format!("round trip failed to decode: {e}")),
    }
    // The streaming decoder agrees byte-for-byte.
    match codec::decode(&bytes) {
        Ok(Some((decoded, consumed))) if consumed == bytes.len() && &decoded == frame => Ok(()),
        other => Err(format!("streaming decode disagreed: {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn submit_frames_round_trip(
        request_id in 0u64..u64::MAX,
        deadline_us in 0u64..10_000_000_000,
        task in task(),
        options in vec(path_option(), 0..5),
    ) {
        let frame = Frame::Submit(SubmitRequest { request_id, deadline_us, task, options });
        assert_round_trip(&frame)?;
    }

    fn depart_frames_round_trip(request_id in 0u64..u64::MAX, task in 0u32..u32::MAX) {
        let frame = Frame::Depart(DepartRequest { request_id, task: TaskId(task) });
        assert_round_trip(&frame)?;
    }

    fn snapshot_and_drain_frames_round_trip(request_id in 0u64..u64::MAX) {
        let frame = Frame::Snapshot(SnapshotRequest { request_id });
        assert_round_trip(&frame)?;
        let frame = Frame::Drain(DrainRequest { request_id });
        assert_round_trip(&frame)?;
    }

    fn outcome_frames_round_trip(request_id in 0u64..u64::MAX, outcome in outcome()) {
        let frame = Frame::Outcome(OutcomeResponse { request_id, outcome });
        assert_round_trip(&frame)?;
    }

    fn metrics_frames_round_trip(
        request_id in 0u64..u64::MAX,
        is_final in proptest::bool::ANY,
        metrics in metrics(),
    ) {
        let frame = Frame::Metrics(MetricsResponse { request_id, is_final, metrics });
        assert_round_trip(&frame)?;
    }

    fn error_frames_round_trip(
        request_id in 0u64..u64::MAX,
        code in error_code(),
        message in ascii_string(80),
    ) {
        let frame = Frame::Error(ErrorResponse { request_id, code, message });
        assert_round_trip(&frame)?;
    }

    fn scale_frames_round_trip(request_id in 0u64..u64::MAX, shards in 1u32..1024) {
        let frame = Frame::Scale(ScaleRequest { request_id, shards });
        assert_round_trip(&frame)?;
    }

    fn scaled_frames_round_trip(
        request_id in 0u64..u64::MAX,
        from_shards in 1u32..1024,
        to_shards in 1u32..1024,
        migrated in 0u64..1 << 40,
        generation in 0u64..1 << 30,
    ) {
        let frame = Frame::Scaled(ScaleResponse { request_id, from_shards, to_shards, migrated, generation });
        assert_round_trip(&frame)?;
    }

    fn announce_and_leave_frames_round_trip(
        request_id in 0u64..u64::MAX,
        addr in ascii_string(40),
        incarnation in 0u64..u64::MAX,
    ) {
        let frame = Frame::Announce(AnnounceRequest {
            request_id,
            addr: addr.clone(),
            incarnation,
        });
        assert_round_trip(&frame)?;
        let frame = Frame::Leave(LeaveRequest { request_id, addr, incarnation });
        assert_round_trip(&frame)?;
    }

    fn membership_frames_round_trip(
        request_id in 0u64..u64::MAX,
        decision in membership_decision(),
        members in vec(member_info(), 0..8),
    ) {
        let frame = Frame::Membership(MembershipResponse { request_id, decision, members });
        assert_round_trip(&frame)?;
    }

    fn peer_hello_frames_round_trip(
        request_id in 0u64..u64::MAX,
        addr in ascii_string(40),
        incarnation in 0u64..u64::MAX,
    ) {
        let frame = Frame::PeerHello(PeerHelloRequest { request_id, addr, incarnation });
        assert_round_trip(&frame)?;
    }

    fn peer_load_frames_round_trip(
        request_id in 0u64..u64::MAX,
        healthy_nodes in 0u32..1024,
        remaining_budget in 0.0f64..1e6,
        round_ms_p50 in 0.0f64..1e4,
        epoch in 0u64..u64::MAX,
    ) {
        let frame = Frame::PeerLoad(PeerLoadResponse {
            request_id,
            digest: PeerDigest { healthy_nodes, remaining_budget, round_ms_p50, epoch },
        });
        assert_round_trip(&frame)?;
    }

    fn forward_frames_round_trip(
        request_id in 0u64..u64::MAX,
        deadline_us in 0u64..10_000_000_000,
        hops in 0u8..4,
        origin in ascii_string(40),
        tried in vec(ascii_string(40), 0..4),
        task in task(),
        options in vec(path_option(), 0..4),
    ) {
        let frame = Frame::Forward(ForwardRequest {
            request_id,
            deadline_us,
            hops,
            origin,
            tried,
            task,
            options,
        });
        assert_round_trip(&frame)?;
    }

    // -------------------------------------------------- envelope bounds

    /// For arbitrary payload bytes under any frame-type tag, the envelope
    /// length prefix is exact: the wire size is header + payload +
    /// trailer, and a successful decode consumes exactly that. Malformed
    /// payloads get typed errors, never panics.
    fn length_prefix_respected_for_arbitrary_payloads(
        ftype in byte(),
        payload in vec(byte(), 0..600),
    ) {
        let bytes = codec::encode_raw(ftype, &payload);
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
        match codec::decode(&bytes) {
            Ok(Some((_, consumed))) => prop_assert_eq!(consumed, bytes.len()),
            Ok(None) => prop_assert!(false, "complete frame reported as incomplete"),
            Err(_) => {} // typed rejection of a nonsense payload is fine
        }
    }

    /// Arbitrary garbage never panics the decoder, streaming or exact.
    fn arbitrary_bytes_never_panic(bytes in vec(byte(), 0..256)) {
        let _ = codec::decode(&bytes);
        let _ = codec::decode_exact(&bytes);
    }

    /// Every prefix of a valid frame is "incomplete", not an error: a
    /// streaming reader can buffer byte-by-byte without ever seeing a
    /// spurious failure.
    fn valid_frame_prefixes_are_incomplete(task in task(), cut_seed in 0usize..usize::MAX) {
        let frame = Frame::Submit(SubmitRequest {
            request_id: 3,
            deadline_us: 0,
            task,
            options: Vec::new(),
        });
        let bytes = codec::encode(&frame);
        let cut = cut_seed % bytes.len();
        prop_assert_eq!(codec::decode(&bytes[..cut]), Ok(None));
    }
}
