//! Canonical task-shape fingerprints and coarse budget buckets.
//!
//! A *shape* is everything about a submission that determines what the
//! solver would plan for it, and nothing else: the task's QoS targets,
//! radio conditions, quality ladder and the full option set it may be
//! served with. Identity fields (`TaskId`, the display `name`, option
//! `label`s) are deliberately excluded, so two requests that differ only
//! in identity hash to the same key and can share a cached plan.
//!
//! Floats are quantized to 1e-6 before hashing, making the fingerprint a
//! total function (no NaN/−0.0 pitfalls) and collapsing sub-microscopic
//! jitter that cannot change a plan. Every field (and every length
//! prefix that frames a list) is folded as one 64-bit word — rotate, xor,
//! one multiply — and a SplitMix64 finaliser avalanches the result, so
//! the low bits are as usable as the high ones (cache sharding). The
//! function is explicit arithmetic, stable across processes, platforms
//! and `HashMap` seeds, unlike `std::hash::Hasher` implementations.
//!
//! The values differ from the byte-wise FNV-1a this module used up to
//! PR 12 (eight serial multiplies per field, which on a 1 000-option
//! request cost as much as the cold solve the cache exists to save).
//! No fingerprint is persisted or sent on the wire, so nothing outside a
//! running process ever saw the old values.

use offloadnn_core::instance::{Budgets, PathOption};
use offloadnn_core::task::Task;

/// A stable 64-bit fingerprint of a task shape (task QoS + option set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeFingerprint(pub u64);

/// Cache key: shape fingerprint, coarse budget bucket and fleet generation.
///
/// The generation component makes every reshard/repartition (and the
/// heal of a dead shard, which only runs inside one) an implicit flush
/// for free: keys minted under the old ring can never match, and the
/// entries behind them age out by TTL and CLOCK eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical shape fingerprint of (task, options).
    pub shape: ShapeFingerprint,
    /// Coarse headroom bucket from [`budget_bucket`].
    pub bucket: u16,
    /// Fleet generation the plan was minted under.
    pub generation: u64,
}

/// Word-at-a-time fold: one rotate, xor and multiply per field.
struct Fold(u64);

impl Fold {
    /// Odd multiplier with well-spread bits (the SplitMix64 increment).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    fn write_u64(&mut self, v: u64) {
        // The rotation feeds high bits back into the low end, which a
        // multiply alone never does.
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::MUL);
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(quantize(v));
    }

    /// SplitMix64 finaliser (as in `gateway::router`).
    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Quantizes a float to 1e-6 resolution as a sign-preserving integer.
/// Non-finite values saturate instead of poisoning the hash.
fn quantize(v: f64) -> u64 {
    let scaled = v * 1e6;
    if scaled.is_nan() {
        return i64::MIN as u64;
    }
    // Half away from zero, then a saturating cast (no libm `round` call).
    (scaled + 0.5f64.copysign(scaled)) as i64 as u64
}

/// Computes the canonical fingerprint of `(task, options)`.
///
/// Included: group, priority, request rate, accuracy and latency targets,
/// SNR, difficulty, the quality ladder, and for every option (in order)
/// the path's model/group/config/pruned flag/block list plus its quality,
/// accuracy and compute costs. Excluded: `task.id`, `task.name` and
/// option `label`s — display-only identity.
pub fn shape_fingerprint(task: &Task, options: &[PathOption]) -> ShapeFingerprint {
    let mut h = Fold(Fold::MUL);
    h.write_u64(u64::from(task.group.0));
    h.write_f64(task.priority);
    h.write_f64(task.request_rate);
    h.write_f64(task.min_accuracy);
    h.write_f64(task.max_latency);
    h.write_f64(task.snr.0);
    h.write_f64(task.difficulty);
    h.write_u64(task.qualities.len() as u64);
    for q in &task.qualities {
        h.write_f64(q.quality);
        h.write_f64(q.bits);
    }
    h.write_u64(options.len() as u64);
    for opt in options {
        h.write_u64(u64::from(opt.path.model.0));
        h.write_u64(u64::from(opt.path.group.0));
        // `shared_prefix()` is injective over the five Table I configs.
        h.write_u64(opt.path.config.config.shared_prefix() as u64);
        h.write_u64(u64::from(opt.path.config.pruned));
        h.write_u64(opt.path.blocks.len() as u64);
        for b in &opt.path.blocks {
            h.write_u64(u64::from(b.0));
        }
        h.write_f64(opt.quality.quality);
        h.write_f64(opt.quality.bits);
        h.write_f64(opt.accuracy);
        h.write_f64(opt.proc_seconds);
        h.write_f64(opt.training_seconds);
    }
    ShapeFingerprint(h.finish())
}

/// Buckets live headroom into 4 coarse levels per budget dimension
/// (radio, compute, memory), packed into 6 bits.
///
/// The bucket only has to be coarse enough to *hit* often and fine enough
/// that a cached plan usually survives re-validation — correctness never
/// depends on it, because every hit is re-validated against the live
/// ledger before any budget is consumed.
pub fn budget_bucket(headroom: &Budgets, total: &Budgets) -> u16 {
    fn level(headroom: f64, total: f64) -> u16 {
        if total <= 0.0 {
            return 0;
        }
        let f = (headroom / total).clamp(0.0, 1.0);
        if f >= 0.75 {
            3
        } else if f >= 0.5 {
            2
        } else if f >= 0.25 {
            1
        } else {
            0
        }
    }
    level(headroom.rbs, total.rbs)
        | level(headroom.compute_seconds, total.compute_seconds) << 2
        | level(headroom.memory_bytes, total.memory_bytes) << 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use offloadnn_core::task::TaskId;

    fn sample_budgets(rbs: f64, compute: f64, memory: f64) -> Budgets {
        Budgets { rbs, compute_seconds: compute, training_seconds: 10.0, memory_bytes: memory }
    }

    #[test]
    fn fingerprint_ignores_identity_fields() {
        let scenario = offloadnn_core::scenario::small_scenario(3);
        let task = scenario.instance.tasks[0].clone();
        let options = scenario.instance.options[0].clone();

        let mut renamed = task.clone();
        renamed.id = TaskId(9_999);
        renamed.name = "totally-different".into();
        let mut relabeled = options.clone();
        for o in &mut relabeled {
            o.label = "x".into();
        }
        assert_eq!(shape_fingerprint(&task, &options), shape_fingerprint(&renamed, &relabeled));
    }

    #[test]
    fn fingerprint_distinguishes_qos_changes() {
        let scenario = offloadnn_core::scenario::small_scenario(3);
        let task = scenario.instance.tasks[0].clone();
        let options = scenario.instance.options[0].clone();
        let base = shape_fingerprint(&task, &options);

        let mut t = task.clone();
        t.min_accuracy += 0.01;
        assert_ne!(base, shape_fingerprint(&t, &options));

        let mut t = task.clone();
        t.max_latency *= 1.5;
        assert_ne!(base, shape_fingerprint(&t, &options));

        let mut fewer = options.clone();
        fewer.pop();
        assert_ne!(base, shape_fingerprint(&task, &fewer));
    }

    #[test]
    fn quantize_handles_non_finite_values() {
        assert_eq!(quantize(f64::NAN), i64::MIN as u64);
        assert_eq!(quantize(f64::INFINITY), i64::MAX as u64);
        assert_eq!(quantize(f64::NEG_INFINITY), i64::MIN as u64);
        assert_eq!(quantize(0.0), quantize(-0.0));
        assert_eq!(quantize(1.0), 1_000_000);
    }

    #[test]
    fn bucket_levels_partition_headroom() {
        let total = sample_budgets(100.0, 10.0, 1e9);
        assert_eq!(budget_bucket(&total, &total), 3 | 3 << 2 | 3 << 4);
        let empty = sample_budgets(0.0, 0.0, 0.0);
        assert_eq!(budget_bucket(&empty, &total), 0);
        let mixed = sample_budgets(60.0, 2.0, 0.9e9);
        assert_eq!(budget_bucket(&mixed, &total), 2 | 3 << 4); // rbs=2, compute=0, memory=3
                                                               // Degenerate totals never divide by zero.
        assert_eq!(budget_bucket(&total, &empty), 0);
    }
}
