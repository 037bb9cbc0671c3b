//! Property tests for shape-fingerprint canonicalization: equal shapes
//! map to equal keys regardless of identity fields, perturbed shapes map
//! to distinct keys, and keys are stable across reshards within a ring
//! generation.

use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{QualityLevel, Task, TaskId};
use offloadnn_dnn::block::{BlockId, GroupId, ModelId};
use offloadnn_dnn::config::{Config, PathConfig};
use offloadnn_dnn::repository::DnnPath;
use offloadnn_plancache::{shape_fingerprint, PlanKey};
use offloadnn_radio::snr::SnrDb;
use proptest::prelude::*;

/// Everything that defines a shape, as plain sampled numbers.
#[derive(Debug, Clone)]
struct ShapeParams {
    group: u32,
    priority: f64,
    request_rate: f64,
    min_accuracy: f64,
    max_latency: f64,
    snr: f64,
    difficulty: f64,
    options: Vec<OptionParams>,
}

#[derive(Debug, Clone)]
struct OptionParams {
    model: u32,
    shared_prefix: usize,
    pruned: bool,
    blocks: Vec<u32>,
    quality: f64,
    bits: f64,
    accuracy: f64,
    proc_seconds: f64,
    training_seconds: f64,
}

fn option_params() -> impl Strategy<Value = OptionParams> {
    (
        0u32..4,
        0usize..5,
        proptest::bool::ANY,
        proptest::collection::vec(0u32..64, 1..6),
        (0.3f64..1.0, 1e4f64..1e6),
        (0.5f64..0.99, 1e-3f64..0.2, 0.0f64..50.0),
    )
        .prop_map(|(model, shared_prefix, pruned, blocks, (quality, bits), (accuracy, proc, train))| {
            OptionParams {
                model,
                shared_prefix,
                pruned,
                blocks,
                quality,
                bits,
                accuracy,
                proc_seconds: proc,
                training_seconds: train,
            }
        })
}

fn shape_params() -> impl Strategy<Value = ShapeParams> {
    (
        0u32..8,
        (0.05f64..1.0, 0.5f64..40.0),
        (0.5f64..0.95, 0.02f64..0.6),
        (-5.0f64..25.0, -0.1f64..0.1),
        proptest::collection::vec(option_params(), 1..4),
    )
        .prop_map(
            |(group, (priority, request_rate), (min_accuracy, max_latency), (snr, difficulty), options)| {
                ShapeParams {
                    group,
                    priority,
                    request_rate,
                    min_accuracy,
                    max_latency,
                    snr,
                    difficulty,
                    options,
                }
            },
        )
}

/// Materializes a shape with arbitrary identity fields — the fingerprint
/// must not depend on `id`, `name` or option `label`s.
fn build(p: &ShapeParams, id: u32, name: &str, label: &str) -> (Task, Vec<PathOption>) {
    let task = Task {
        id: TaskId(id),
        name: name.to_string(),
        group: GroupId(p.group),
        priority: p.priority,
        request_rate: p.request_rate,
        min_accuracy: p.min_accuracy,
        max_latency: p.max_latency,
        snr: SnrDb(p.snr),
        qualities: p.options.iter().map(|o| QualityLevel { quality: o.quality, bits: o.bits }).collect(),
        difficulty: p.difficulty,
    };
    let options = p
        .options
        .iter()
        .map(|o| PathOption {
            path: DnnPath {
                model: ModelId(o.model),
                group: GroupId(p.group),
                config: PathConfig { config: Config::with_shared_prefix(o.shared_prefix), pruned: o.pruned },
                blocks: o.blocks.iter().map(|&b| BlockId(b)).collect(),
            },
            quality: QualityLevel { quality: o.quality, bits: o.bits },
            accuracy: o.accuracy,
            proc_seconds: o.proc_seconds,
            training_seconds: o.training_seconds,
            label: label.to_string(),
        })
        .collect();
    (task, options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal shapes ⇒ equal keys, no matter how the identity fields differ.
    fn equal_shapes_give_equal_fingerprints(p in shape_params(), id_a in 0u32..1000, id_b in 0u32..1000) {
        let (task_a, opts_a) = build(&p, id_a, "alpha", "m/CONF/q");
        let (task_b, opts_b) = build(&p, id_b, "beta", "other-label");
        prop_assert_eq!(shape_fingerprint(&task_a, &opts_a), shape_fingerprint(&task_b, &opts_b));
    }

    /// Perturbing any QoS field beyond the 1e-6 quantization step yields a
    /// distinct fingerprint.
    fn perturbed_shapes_give_distinct_fingerprints(
        p in shape_params(),
        field in 0usize..6,
        delta in 1e-3f64..0.2,
    ) {
        let (task, opts) = build(&p, 1, "t", "l");
        let base = shape_fingerprint(&task, &opts);
        let mut q = p.clone();
        match field {
            0 => q.priority += delta,
            1 => q.request_rate += delta,
            2 => q.min_accuracy += delta,
            3 => q.max_latency += delta,
            4 => q.snr += delta,
            _ => q.difficulty += delta,
        }
        let (task2, opts2) = build(&q, 1, "t", "l");
        prop_assert_ne!(base, shape_fingerprint(&task2, &opts2));
    }

    /// Changing the option set (dropping one, flipping pruning, remapping a
    /// block) changes the fingerprint.
    fn option_set_changes_give_distinct_fingerprints(p in shape_params(), extra in option_params()) {
        let (task, opts) = build(&p, 1, "t", "l");
        let base = shape_fingerprint(&task, &opts);

        let mut grown = p.clone();
        grown.options.push(extra);
        let (gt, go) = build(&grown, 1, "t", "l");
        prop_assert_ne!(base, shape_fingerprint(&gt, &go));

        let mut flipped = p.clone();
        flipped.options[0].pruned = !flipped.options[0].pruned;
        let (ft, fo) = build(&flipped, 1, "t", "l");
        prop_assert_ne!(base, shape_fingerprint(&ft, &fo));
    }

    /// The fingerprint is a pure function of the shape: recomputing it
    /// after a reshard changes nothing, so within one fleet generation the
    /// full PlanKey is stable — and a generation bump alone separates keys.
    fn keys_stable_within_generation_distinct_across(
        p in shape_params(),
        bucket in 0u16..64,
        generation in 0u64..1_000,
    ) {
        let (task, opts) = build(&p, 7, "t", "l");
        // "After the reshard": same shape observed again, identity refreshed.
        let (task2, opts2) = build(&p, 8, "renamed", "relabeled");
        let before = PlanKey { shape: shape_fingerprint(&task, &opts), bucket, generation };
        let after = PlanKey { shape: shape_fingerprint(&task2, &opts2), bucket, generation };
        prop_assert_eq!(before, after);
        let next_ring = PlanKey { generation: generation + 1, ..after };
        prop_assert_ne!(before, next_ring);
    }
}
