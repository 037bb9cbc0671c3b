//! Proptest strategies for wire-protocol contents, shared by the codec
//! round-trip properties (`codec_props.rs`) and the reactor state-machine
//! tests (`reactor_state.rs`). Tasks and path options stay inside the
//! ranges `offloadnn_serve::validate_request` admits, so a generated
//! submit reaches a shard instead of being refused at ingress.

#![allow(dead_code)] // each test binary uses its own subset

use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{QualityLevel, Task, TaskId};
use offloadnn_dnn::block::{BlockId, GroupId, ModelId};
use offloadnn_dnn::repository::DnnPath;
use offloadnn_dnn::{Config, PathConfig};
use offloadnn_net::codec::{ErrorCode, MemberInfo, MemberState, MembershipDecision};
use offloadnn_radio::SnrDb;
use offloadnn_serve::{HistogramSnapshot, MetricsSnapshot, Outcome, HISTOGRAM_BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

pub fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

pub fn ascii_string(max_len: usize) -> impl Strategy<Value = String> {
    vec(32u8..127, 0..max_len).prop_map(|b| String::from_utf8(b).expect("printable ascii"))
}

pub fn quality() -> impl Strategy<Value = QualityLevel> {
    (1e-3f64..1.0, 1.0f64..1e7).prop_map(|(quality, bits)| QualityLevel { quality, bits })
}

pub fn task() -> impl Strategy<Value = Task> {
    (
        0u32..1_000_000,
        ascii_string(24),
        0u32..64,
        0.0f64..1.0,
        1e-3f64..1e4,
        0.0f64..1.0,
        1e-3f64..10.0,
        -20.0f64..40.0,
        vec(quality(), 1..6),
        0.0f64..5.0,
    )
        .prop_map(
            |(
                id,
                name,
                group,
                priority,
                request_rate,
                min_accuracy,
                max_latency,
                snr,
                qualities,
                difficulty,
            )| Task {
                id: TaskId(id),
                name,
                group: GroupId(group),
                priority,
                request_rate,
                min_accuracy,
                max_latency,
                snr: SnrDb(snr),
                qualities,
                difficulty,
            },
        )
}

pub fn path_option() -> impl Strategy<Value = PathOption> {
    (
        0u32..32,
        0u32..64,
        0u8..5,
        proptest::bool::ANY,
        vec(0u32..4096, 0..12),
        quality(),
        0.0f64..1.0,
        0.0f64..0.5,
        0.0f64..100.0,
        ascii_string(16),
    )
        .prop_map(
            |(
                model,
                group,
                cfg,
                pruned,
                blocks,
                quality,
                accuracy,
                proc_seconds,
                training_seconds,
                label,
            )| {
                let config = match cfg {
                    0 => Config::A,
                    1 => Config::B,
                    2 => Config::C,
                    3 => Config::D,
                    _ => Config::E,
                };
                PathOption {
                    path: DnnPath {
                        model: ModelId(model),
                        group: GroupId(group),
                        config: PathConfig { config, pruned },
                        blocks: blocks.into_iter().map(BlockId).collect(),
                    },
                    quality,
                    accuracy,
                    proc_seconds,
                    training_seconds,
                    label,
                }
            },
        )
}

pub fn outcome() -> impl Strategy<Value = Outcome> {
    (0u8..4, 1e-3f64..1.0, 0.0f64..100.0, 0usize..64).prop_map(|(tag, admission, rbs, shard)| match tag {
        0 => Outcome::Admitted { admission, rbs, shard },
        1 => Outcome::Rejected { shard },
        2 => Outcome::Shed { shard },
        _ => Outcome::Expired { shard },
    })
}

pub fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (vec(0u64..1_000_000, HISTOGRAM_BUCKETS), 0u64..1_000_000, 0u64..u64::MAX).prop_map(
        |(counts, count, sum_us)| {
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            buckets.copy_from_slice(&counts);
            HistogramSnapshot { buckets, count, sum_us }
        },
    )
}

pub fn metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..4096, 0u64..4096),
        (0u64..1 << 20, 0u64..1 << 30, 0u64..1 << 20),
        histogram(),
        histogram(),
    )
        .prop_map(
            |(
                (submitted, admitted, rejected, shed, expired),
                (departed, solver_rounds, solver_errors, peak_queue_depth, peak_batch),
                (reshards, migrated, generation),
                latency,
                round_time,
            )| {
                MetricsSnapshot {
                    submitted,
                    admitted,
                    rejected,
                    shed,
                    expired,
                    departed,
                    solver_rounds,
                    solver_errors,
                    reshards,
                    migrated,
                    generation,
                    peak_queue_depth,
                    peak_batch,
                    latency,
                    round_time,
                }
            },
        )
}

pub fn error_code() -> impl Strategy<Value = ErrorCode> {
    (0u8..6).prop_map(|tag| match tag {
        0 => ErrorCode::Draining,
        1 => ErrorCode::NoOptions,
        2 => ErrorCode::Malformed,
        3 => ErrorCode::TooManyConnections,
        4 => ErrorCode::Internal,
        _ => ErrorCode::InvalidScale,
    })
}

pub fn member_state() -> impl Strategy<Value = MemberState> {
    (0u8..4).prop_map(|tag| match tag {
        0 => MemberState::Probing,
        1 => MemberState::Healthy,
        2 => MemberState::Ejected,
        _ => MemberState::Departed,
    })
}

pub fn membership_decision() -> impl Strategy<Value = MembershipDecision> {
    (0u8..4).prop_map(|tag| match tag {
        0 => MembershipDecision::Accepted,
        1 => MembershipDecision::Duplicate,
        2 => MembershipDecision::Stale,
        _ => MembershipDecision::Unsupported,
    })
}

pub fn member_info() -> impl Strategy<Value = MemberInfo> {
    (ascii_string(40), 0u64..u64::MAX, member_state()).prop_map(|(addr, incarnation, state)| MemberInfo {
        addr,
        incarnation,
        state,
    })
}
