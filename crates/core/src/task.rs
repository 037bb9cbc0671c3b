//! Offloaded CV inference tasks and their requirements.

use offloadnn_dnn::block::GroupId;
use offloadnn_radio::SnrDb;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a task within one [`crate::instance::DotInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An input quality level `q` available to a task: the context (camera
/// resolution, lighting, semantic compression) fixes both the bits per
/// image `beta(q)` and an accuracy factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityLevel {
    /// Quality in `(0, 1]`; 1 is full sensor quality.
    pub quality: f64,
    /// Bits transmitted per image at this quality (`beta(q)`).
    pub bits: f64,
}

impl QualityLevel {
    /// The Table IV setting: full quality, 350 kbit per image.
    pub fn table_iv() -> Self {
        Self { quality: 1.0, bits: 350e3 }
    }
}

/// One offloaded CV task (`tau`) with its requirements (Sec. III-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Identifier (position in the instance's task vector).
    pub id: TaskId,
    /// Human-readable name (usually the target object class).
    pub name: String,
    /// Fine-tuning group the task belongs to (tasks in the same group can
    /// share fine-tuned blocks).
    pub group: GroupId,
    /// Priority `p_tau` in `[0, 1]` (1 = most important).
    pub priority: f64,
    /// Request rate `lambda_tau` in inference requests per second.
    pub request_rate: f64,
    /// Minimum tolerable accuracy `A_tau` (top-1).
    pub min_accuracy: f64,
    /// Maximum tolerable end-to-end latency `L_tau` in seconds.
    pub max_latency: f64,
    /// Average SNR `sigma_tau` of the devices offloading the task.
    pub snr: SnrDb,
    /// Available input quality levels `Q_tau`.
    pub qualities: Vec<QualityLevel>,
    /// Task-specific difficulty offset for the accuracy model.
    pub difficulty: f64,
}

impl Task {
    /// Validates the requirement ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        // Every check is phrased so that NaN fails it (`NaN <= 0.0` is
        // false; `!(NaN > 0.0)` is true), and infinities are refused too:
        // these fields feed the allocator's arithmetic unguarded.
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if !(0.0..=1.0).contains(&self.priority) {
            return Err(format!("{}: priority {} outside [0,1]", self.id, self.priority));
        }
        if !positive(self.request_rate) {
            return Err(format!("{}: request rate must be positive", self.id));
        }
        if !(0.0..=1.0).contains(&self.min_accuracy) {
            return Err(format!("{}: accuracy bound {} outside [0,1]", self.id, self.min_accuracy));
        }
        if !positive(self.max_latency) {
            return Err(format!("{}: latency bound must be positive", self.id));
        }
        if !(self.snr.0.is_finite() && self.difficulty.is_finite()) {
            return Err(format!("{}: SNR and difficulty must be finite", self.id));
        }
        if self.qualities.is_empty() {
            return Err(format!("{}: task needs at least one quality level", self.id));
        }
        for q in &self.qualities {
            if !(q.quality > 0.0 && q.quality <= 1.0 && positive(q.bits)) {
                return Err(format!("{}: malformed quality level", self.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task {
            id: TaskId(0),
            name: "cars".into(),
            group: GroupId(0),
            priority: 0.8,
            request_rate: 5.0,
            min_accuracy: 0.9,
            max_latency: 0.2,
            snr: SnrDb(0.0),
            qualities: vec![QualityLevel::table_iv()],
            difficulty: 0.0,
        }
    }

    #[test]
    fn valid_task_passes() {
        assert!(task().validate().is_ok());
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut t = task();
        t.priority = 1.5;
        assert!(t.validate().unwrap_err().contains("priority"));

        let mut t = task();
        t.request_rate = 0.0;
        assert!(t.validate().unwrap_err().contains("request rate"));

        let mut t = task();
        t.min_accuracy = -0.1;
        assert!(t.validate().unwrap_err().contains("accuracy"));

        let mut t = task();
        t.max_latency = 0.0;
        assert!(t.validate().unwrap_err().contains("latency"));

        let mut t = task();
        t.qualities.clear();
        assert!(t.validate().unwrap_err().contains("quality"));

        let mut t = task();
        t.qualities[0].quality = 0.0;
        assert!(t.validate().unwrap_err().contains("quality"));
    }

    #[test]
    fn non_finite_fields_rejected() {
        // NaN compares false against everything, so each bound must be
        // phrased to fail on it rather than to let it through.
        type Set = fn(&mut Task, f64);
        let cases: [(Set, &str); 6] = [
            (|t, v| t.priority = v, "priority"),
            (|t, v| t.request_rate = v, "request rate"),
            (|t, v| t.min_accuracy = v, "accuracy"),
            (|t, v| t.max_latency = v, "latency"),
            (|t, v| t.snr = SnrDb(v), "SNR"),
            (|t, v| t.qualities[0].bits = v, "quality"),
        ];
        for (set, what) in cases {
            for v in [f64::NAN, f64::INFINITY] {
                let mut t = task();
                set(&mut t, v);
                assert!(t.validate().unwrap_err().contains(what), "{what} = {v} must be refused");
            }
        }
    }

    #[test]
    fn table_iv_quality() {
        let q = QualityLevel::table_iv();
        assert_eq!(q.quality, 1.0);
        assert_eq!(q.bits, 350e3);
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(3).to_string(), "t3");
    }
}
