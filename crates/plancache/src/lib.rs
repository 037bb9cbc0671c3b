//! Concurrent admission plan cache for repeat task shapes.
//!
//! Edge CV workloads are dominated by *repeat shapes*: the same model
//! family, accuracy target and latency class arriving over and over with
//! fresh identities. The OffloaDNN heuristic nevertheless rebuilds the
//! feasible-path clique and re-solves the convex `(z, r)` allocation from
//! scratch for every submission. This crate memoizes the solver's *plan*
//! — which DNN path to run, at what admission fraction and RB grant —
//! never its verdict:
//!
//! - **Key** = [`shape_fingerprint`] (canonical 64-bit fold over the QoS
//!   and option-set fields, identity excluded) + [`budget_bucket`]
//!   (coarse headroom level) + fleet generation — see [`PlanKey`].
//! - **Hit** = a proposal only. Admission re-validates the plan against
//!   the live ledger (`Controller::try_apply_plan`) and falls through to
//!   a cold solve when validation fails, so budget conservation never
//!   depends on cache freshness.
//! - **Miss** = the caller solves and [`PlanCache::insert`]s the plan;
//!   no lookup or insert ever blocks on another caller's solve.
//! - **Staleness** = bounded capacity with CLOCK second-chance eviction
//!   and per-entry TTL (shorter for negative entries). Reshards, budget
//!   repartitions and chaos heals advance the fleet generation in the
//!   key, so older plans stop matching and age out.
//! - **Rejections** are not stored: one depends on the whole ledger of
//!   the shard that produced it, so the serve tier memoizes them per
//!   shard and reports replays through [`PlanCache::note_negative_hit`].
//!
//! The cache is generic over the memoized value; the serve tier stores
//! full [`CachedPlan`]s.
//!
//! # Example
//!
//! ```
//! use offloadnn_plancache::{CachedPlan, PlanCache, PlanCacheConfig, PlanKey, ShapeFingerprint};
//!
//! let cache: PlanCache<CachedPlan> = PlanCache::new(PlanCacheConfig::default());
//! let key = PlanKey { shape: ShapeFingerprint(42), bucket: 0, generation: 0 };
//! cache.insert(key, CachedPlan::Admit { option: 0, admission: 1.0, rbs: 4.0 }, false);
//! assert!(cache.lookup(&key).is_some());
//! // e.g. the service resharded: the next generation's key never matches
//! assert!(cache.lookup(&PlanKey { generation: 1, ..key }).is_none());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod fingerprint;
mod plan;
mod stats;

pub use cache::{Cached, PlanCache, PlanCacheConfig};
pub use fingerprint::{budget_bucket, shape_fingerprint, PlanKey, ShapeFingerprint};
pub use plan::CachedPlan;
pub use stats::PlanCacheStats;
