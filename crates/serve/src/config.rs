//! Service-runtime configuration.

use crate::error::ServeError;
use offloadnn_plancache::PlanCacheConfig;
use std::time::Duration;

/// Tuning knobs of the sharded admission service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker shards; the edge budgets are partitioned evenly
    /// across them.
    pub shards: usize,
    /// Bound of each shard's ingress queue. A submit that finds the queue
    /// full is shed immediately (backpressure surfaces as an explicit
    /// [`crate::Outcome::Shed`], not a blocked caller).
    pub queue_capacity: usize,
    /// Maximum number of requests resolved in one solver round.
    pub batch_max: usize,
    /// Maximum time a shard waits to fill a batch once the first request
    /// of a round has arrived.
    pub batch_window: Duration,
    /// Admission deadline granted to each request at ingress: a request
    /// still unresolved this long after submission is answered
    /// [`crate::Outcome::Expired`].
    pub admission_deadline: Duration,
    /// Backlog watermark (in queued requests) past which a shard switches
    /// to priority-ordered shedding: the backlog is drained, the highest
    /// priority `batch_max` requests are kept and the rest are shed.
    pub shed_watermark: usize,
    /// Plan cache for repeat task shapes: `Some` enables the shared plan
    /// cache and each shard's rejection memo; `None` (the default) keeps
    /// the cold-solve path byte-identical to previous releases.
    pub plan_cache: Option<PlanCacheConfig>,
    /// Fault injection for chaos testing; inert by default.
    pub chaos: ChaosConfig,
}

/// Fault injection knobs, used by the reshard/chaos test harness to
/// prove the service degrades instead of hanging or corrupting its
/// accounting. The default injects nothing and costs nothing on the hot
/// path (two branch checks per solver round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Panic the worker thread of shard `.0` when it begins solver round
    /// `.1` (1-based). The panic is deliberately *not* caught by the
    /// worker: the harness verifies the rest of the fleet keeps serving
    /// and that [`crate::Service::scale_to`] self-heals the dead shard.
    pub panic_shard_at_round: Option<(usize, u64)>,
    /// Sleep this long inside every solver round (a pathologically slow
    /// solver). [`Duration::ZERO`] disables the injection.
    pub slow_solver: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            batch_max: 64,
            batch_window: Duration::from_millis(2),
            admission_deadline: Duration::from_secs(5),
            shed_watermark: 512,
            plan_cache: None,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be >= 1"));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("queue_capacity must be >= 1"));
        }
        if self.batch_max == 0 {
            return Err(ServeError::InvalidConfig("batch_max must be >= 1"));
        }
        if self.batch_window.is_zero() {
            return Err(ServeError::InvalidConfig("batch_window must be > 0"));
        }
        if self.admission_deadline.is_zero() {
            return Err(ServeError::InvalidConfig("admission_deadline must be > 0"));
        }
        if self.shed_watermark == 0 {
            return Err(ServeError::InvalidConfig("shed_watermark must be >= 1"));
        }
        match &self.plan_cache {
            Some(pc) => pc.validate().map_err(ServeError::InvalidConfig),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn each_zero_field_is_rejected() {
        let base = ServiceConfig::default();
        let cache = PlanCacheConfig::default();
        let bad_cache = PlanCacheConfig { capacity: 0, ..cache };
        // Every knob positive, yet the negative TTL outlives the positive one.
        let bad_ttls = PlanCacheConfig { negative_ttl: cache.ttl * 2, ..cache };
        let cases: [(&str, ServiceConfig); 8] = [
            ("shards", ServiceConfig { shards: 0, ..base }),
            ("queue_capacity", ServiceConfig { queue_capacity: 0, ..base }),
            ("batch_max", ServiceConfig { batch_max: 0, ..base }),
            ("batch_window", ServiceConfig { batch_window: Duration::ZERO, ..base }),
            ("admission_deadline", ServiceConfig { admission_deadline: Duration::ZERO, ..base }),
            ("shed_watermark", ServiceConfig { shed_watermark: 0, ..base }),
            ("plan_cache.capacity", ServiceConfig { plan_cache: Some(bad_cache), ..base }),
            ("must not exceed plan_cache.ttl", ServiceConfig { plan_cache: Some(bad_ttls), ..base }),
        ];
        for (reason, cfg) in cases {
            let refused = cfg.validate();
            assert!(
                matches!(refused, Err(ServeError::InvalidConfig(what)) if what.contains(reason)),
                "{reason}: {refused:?}"
            );
        }
    }
}
