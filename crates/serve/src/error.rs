//! Service-runtime error types.

use offloadnn_core::instance::PathOption;
use offloadnn_core::task::Task;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised when constructing or configuring the service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeError {
    /// A configuration field is out of its valid range.
    InvalidConfig(&'static str),
    /// The operation is not available on a draining service (e.g.
    /// [`crate::Service::scale_to`] after a drain began).
    Draining,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(what) => write!(f, "invalid service config: {what}"),
            ServeError::Draining => f.write_str("service is draining"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a tier refused a request at ingress ([`crate::admit::Admitter::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitError {
    /// The service is draining and no longer accepts requests.
    Draining,
    /// The request carried no candidate path options.
    NoOptions,
    /// The admission endpoint could not be reached (wire tiers of the
    /// [`crate::admit::Admitter`] trait only): the request was never
    /// accepted, so nothing is owed a verdict.
    Unavailable,
    /// The task or one of its path options carries a non-finite or
    /// out-of-range field (see [`validate_request`]); solving over it
    /// could panic a shard worker, so it is refused before it is counted.
    Invalid,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Draining => f.write_str("service is draining"),
            SubmitError::NoOptions => f.write_str("request has no path options"),
            SubmitError::Unavailable => f.write_str("admission endpoint unreachable"),
            SubmitError::Invalid => f.write_str("request has a non-finite or out-of-range field"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The ingress gate of every tier that owns a ledger
/// ([`crate::service::Service`], the gateway): refuses a request whose
/// numbers the solver's arithmetic cannot survive — one NaN request rate
/// or zero-bit quality level reaching `f64::clamp` in the allocator
/// panics the shard worker and loses every verdict queued behind it. The
/// task must pass [`Task::validate`] (finite, in-range requirements);
/// every option needs positive finite `quality.bits`, `quality.quality`
/// in `(0, 1]`, a finite `accuracy`, and finite non-negative
/// `proc_seconds` / `training_seconds`.
///
/// # Errors
///
/// [`SubmitError::Invalid`] on the first offending field.
pub fn validate_request(task: &Task, options: &[PathOption]) -> Result<(), SubmitError> {
    let positive = |v: f64| v > 0.0 && v.is_finite();
    let non_negative = |v: f64| v >= 0.0 && v.is_finite();
    let option_ok = |o: &PathOption| {
        positive(o.quality.bits)
            && o.quality.quality > 0.0
            && o.quality.quality <= 1.0
            && o.accuracy.is_finite()
            && non_negative(o.proc_seconds)
            && non_negative(o.training_seconds)
    };
    if task.validate().is_ok() && options.iter().all(option_ok) {
        Ok(())
    } else {
        Err(SubmitError::Invalid)
    }
}
