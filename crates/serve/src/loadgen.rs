//! The tier-agnostic load driver: [`drive`] offers a seeded stream of
//! synthetic admission requests to *any* tier behind [`Admitter`] — an
//! in-process [`crate::Service`], a TCP `net::Client` or a cluster
//! `Gateway` — pipelines the pending verdicts, keeps a bounded set of
//! admitted tasks alive (departing the oldest, which exercises
//! `Controller::release` continuously) and tallies every resolution in a
//! [`WireTally`] that can be held against the tier's own ledger. Used by
//! the `loadgen` binary (`offloadnn-gateway`), the conservation tests
//! and the `telemetry_report` binary.

use crate::admit::{Admitter, PendingVerdict, VerdictError};
use crate::error::SubmitError;
use crate::metrics::MetricsSnapshot;
use crate::service::Outcome;
use offloadnn_core::instance::DotInstance;
use offloadnn_core::task::TaskId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Deterministic pool of task shapes for the Zipf workload mode.
///
/// Shape `k` is minted once from `seed ^ k·φ` (golden-ratio spacing
/// keeps neighbouring ranks decorrelated) and stored materialized, so
/// every re-draw of rank `k` produces the *same* priority and rate —
/// which is exactly what makes two requests share a plan-cache
/// fingerprint. Ranks are drawn with Zipf weights `1/(k+1)^s` via a
/// binary search over the normalized CDF.
pub struct ShapePool {
    /// Materialized `(prototype index, priority factor, rate factor)`.
    shapes: Vec<(usize, f64, f64)>,
    /// Cumulative Zipf weights, normalized to end at 1.0.
    cdf: Vec<f64>,
}

impl ShapePool {
    /// Materializes `pool` shapes over `protos` prototypes with Zipf
    /// exponent `skew`; the same `(pool, skew, protos, seed)` always
    /// yields the same pool.
    pub fn new(pool: usize, skew: f64, protos: usize, seed: u64) -> Self {
        let pool = pool.max(1);
        let mut shapes = Vec::with_capacity(pool);
        for k in 0..pool {
            let mut r = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let proto = r.random_range(0..protos);
            let priority = r.random_range(0.6f64..1.4);
            let rate = r.random_range(0.8f64..1.2);
            shapes.push((proto, priority, rate));
        }
        let mut cdf = Vec::with_capacity(pool);
        let mut acc = 0.0f64;
        for k in 0..pool {
            acc += ((k + 1) as f64).powf(skew).recip();
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { shapes, cdf }
    }

    /// Draws one `(prototype index, priority factor, rate factor)` rank.
    pub fn draw(&self, rng: &mut StdRng) -> (usize, f64, f64) {
        let u = rng.random_range(0.0f64..1.0);
        let k = self.cdf.partition_point(|&c| c < u).min(self.shapes.len() - 1);
        self.shapes[k]
    }
}

/// The driver-side verdict ledger, observed through [`Admitter`]
/// pending verdicts independently of the tier's own metrics, so the two
/// can cross-check each other ([`WireTally::mismatches`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireTally {
    /// Verdicts resolved `Admitted`.
    pub admitted: u64,
    /// Verdicts resolved `Rejected`.
    pub rejected: u64,
    /// Verdicts resolved `Shed`.
    pub shed: u64,
    /// Verdicts resolved `Expired`.
    pub expired: u64,
    /// Requests refused at or after ingress without a verdict
    /// ([`SubmitError`] other than `Unavailable`, or
    /// [`VerdictError::Refused`]).
    pub refused: u64,
    /// Requests whose transport died or whose wait bound elapsed
    /// ([`SubmitError::Unavailable`], [`VerdictError::Transport`],
    /// [`VerdictError::TimedOut`]).
    pub transport: u64,
    /// Requests the backend lost without resolving
    /// ([`VerdictError::Lost`]) — always a bug in the tier under test.
    pub lost: u64,
}

impl WireTally {
    /// Total resolved verdicts.
    pub fn outcomes(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.expired
    }

    /// Requests that ended in an error instead of a verdict.
    pub fn errors(&self) -> u64 {
        self.refused + self.transport + self.lost
    }

    /// Folds another driver's tally into this one.
    pub fn merge(&mut self, o: WireTally) {
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.expired += o.expired;
        self.refused += o.refused;
        self.transport += o.transport;
        self.lost += o.lost;
    }

    /// Records one resolved pending verdict.
    pub fn observe(&mut self, verdict: &Result<Outcome, VerdictError>) {
        match verdict {
            Ok(Outcome::Admitted { .. }) => self.admitted += 1,
            Ok(Outcome::Rejected { .. }) => self.rejected += 1,
            Ok(Outcome::Shed { .. }) => self.shed += 1,
            Ok(Outcome::Expired { .. }) => self.expired += 1,
            Err(VerdictError::Refused(_)) => self.refused += 1,
            Err(VerdictError::Transport(_) | VerdictError::TimedOut) => self.transport += 1,
            Err(VerdictError::Lost) => self.lost += 1,
        }
    }

    /// Where the verdicts the drivers saw disagree with the driven
    /// tier's own `ledger`, class by class; empty when they agree. Only
    /// an error-free run ([`WireTally::errors`] `== 0`) is expected to
    /// agree: an errored request may still have been counted by the tier.
    pub fn mismatches(&self, ledger: &MetricsSnapshot) -> Vec<String> {
        [
            ("submitted", self.outcomes(), ledger.submitted),
            ("admitted", self.admitted, ledger.admitted),
            ("rejected", self.rejected, ledger.rejected),
            ("shed", self.shed, ledger.shed),
            ("expired", self.expired, ledger.expired),
        ]
        .into_iter()
        .filter(|(_, seen, counted)| seen != counted)
        .map(|(class, seen, counted)| format!("{class}: drivers saw {seen}, ledger counted {counted}"))
        .collect()
    }
}

impl fmt::Display for WireTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admitted {}  rejected {}  shed {}  expired {}  refused {}  transport-err {}  lost {}",
            self.admitted, self.rejected, self.shed, self.expired, self.refused, self.transport, self.lost,
        )
    }
}

/// Parameters of one [`drive`] loop.
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Submits this driver offers.
    pub requests: u64,
    /// Driver index (`< drivers`): decorrelates the RNG and, interleaved
    /// with `drivers`, keeps task ids distinct across concurrent drivers
    /// (so routing spreads and a departure releases exactly one task).
    pub driver: usize,
    /// Concurrent drivers sharing the tier (`1` for a lone driver).
    pub drivers: usize,
    /// Base RNG seed, shared across drivers.
    pub seed: u64,
    /// Pipeline depth before the oldest pending verdict is reaped.
    pub window: usize,
    /// Admitted tasks kept alive before the oldest departs (`0` =
    /// depart every admission as soon as its verdict is seen).
    pub max_active: usize,
    /// Caller-shipped admission budget (`None` = tier policy).
    pub deadline: Option<Duration>,
}

/// How long a reaped verdict may stay outstanding before the driver
/// declares the tier wedged (counted as a transport error, never a
/// hang): generous, since a mid-run node kill legitimately parks a
/// ticket for a full gateway deadline + grace while failover runs.
pub const VERDICT_TIMEOUT: Duration = Duration::from_secs(30);

/// What one [`drive`] loop observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriveReport {
    /// The verdicts and errors this driver saw.
    pub tally: WireTally,
    /// Admitted tasks this driver departed.
    pub departed: u64,
}

/// Id of driver `driver`'s `i`-th request among `drivers` concurrent
/// drivers: interleaved, so the ids of a run are exactly `0..total`.
fn task_id(driver: usize, drivers: usize, i: u64) -> TaskId {
    TaskId(u32::try_from(i * drivers as u64 + driver as u64).expect("drive() bounds the id space"))
}

fn settle(pending: PendingVerdict, tally: &mut WireTally, active: &mut VecDeque<TaskId>) {
    let task = pending.task();
    let verdict = pending.wait_timeout(VERDICT_TIMEOUT);
    if matches!(verdict, Ok(Outcome::Admitted { .. })) {
        active.push_back(task);
    }
    tally.observe(&verdict);
}

/// The one driver body every load generator, harness and bench shares:
/// offers `cfg.requests` synthetic submits derived from `template`'s
/// task/option prototypes to *any* admission tier behind [`Admitter`],
/// pipelines up to `cfg.window` pending verdicts, departs the oldest
/// admission beyond `cfg.max_active`, and tallies every resolution.
/// Each request gets a jittered priority (so shedding has an order to
/// respect) and rate — fresh per request, or through the deterministic
/// Zipf `shapes` pool, where popular ranks repeat bit-identically across
/// every driver so a plan cache downstream has something to hit.
/// `offered` is bumped once per submit so concurrent chaos (node kills,
/// reshards) can trigger on the global offered count.
///
/// # Panics
///
/// Panics if the template has no tasks, or if `requests × drivers`
/// does not fit the `u32` task-id space.
pub fn drive(
    admitter: &dyn Admitter,
    cfg: &DriveConfig,
    template: &DotInstance,
    shapes: Option<&ShapePool>,
    offered: &AtomicU64,
) -> DriveReport {
    assert!(!template.tasks.is_empty(), "template needs at least one prototype task");
    assert!(
        cfg.requests.saturating_mul(cfg.drivers as u64) <= u64::from(u32::MAX),
        "requests x drivers must fit the u32 task-id space"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (cfg.driver as u64).wrapping_mul(0x9E37_79B9));
    let mut report = DriveReport::default();
    let mut pending = VecDeque::new();
    let mut active: VecDeque<TaskId> = VecDeque::new();

    for i in 0..cfg.requests {
        let (proto, priority, rate) = match shapes {
            Some(pool) => pool.draw(&mut rng),
            None => (
                rng.random_range(0..template.tasks.len()),
                rng.random_range(0.6f64..1.4),
                rng.random_range(0.8f64..1.2),
            ),
        };
        let mut task = template.tasks[proto].clone();
        task.id = task_id(cfg.driver, cfg.drivers, i);
        task.priority = (task.priority * priority).clamp(0.05, 1.0);
        task.request_rate *= rate;
        match admitter.submit(task, template.options[proto].clone(), cfg.deadline) {
            Ok(p) => pending.push_back(p),
            Err(SubmitError::Unavailable) => report.tally.transport += 1,
            Err(_) => report.tally.refused += 1,
        }
        offered.fetch_add(1, Ordering::Relaxed);
        if pending.len() >= cfg.window {
            if let Some(p) = pending.pop_front() {
                settle(p, &mut report.tally, &mut active);
            }
        }
        while active.len() > cfg.max_active {
            if let Some(id) = active.pop_front() {
                admitter.depart(id);
                report.departed += 1;
            }
        }
    }
    // Stragglers resolve too; whatever stays in `active` is left in
    // place, so the tier's drain must cope with a loaded fleet.
    while let Some(p) = pending.pop_front() {
        settle(p, &mut report.tally, &mut active);
    }
    // A metrics round trip fences the fire-and-forget departures: a wire
    // tier dispatches a connection's frames in order (its replies leave
    // in resolution order), so once this answers, every depart above has
    // reached the tier's ledger.
    let _ = admitter.metrics();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::Service;
    use offloadnn_core::scenario::small_scenario;
    use offloadnn_plancache::PlanCacheConfig;
    use std::collections::HashSet;

    fn drive_config(requests: u64, seed: u64) -> DriveConfig {
        DriveConfig { requests, driver: 0, drivers: 1, seed, window: 32, max_active: 16, deadline: None }
    }

    #[test]
    fn tally_merge_and_conservation_arithmetic() {
        let mut a = WireTally { admitted: 2, shed: 1, ..WireTally::default() };
        let b = WireTally { rejected: 3, transport: 1, lost: 1, ..WireTally::default() };
        a.merge(b);
        assert_eq!(a.outcomes(), 6);
        assert_eq!(a.errors(), 2);
        let shown = format!("{a}");
        assert!(shown.contains("admitted 2") && shown.contains("lost 1"), "{shown}");
    }

    #[test]
    fn concurrent_drivers_mint_distinct_task_ids() {
        // The reactor gate's shape: 512 drivers x 10 requests.
        let ids: HashSet<TaskId> =
            (0..512).flat_map(|driver| (0..10).map(move |i| task_id(driver, 512, i))).collect();
        assert_eq!(ids.len(), 5_120);
        assert!(ids.iter().all(|id| id.0 < 5_120), "interleaving fills exactly 0..total");
    }

    #[test]
    fn drive_conserves_over_an_in_process_service() {
        let scenario = small_scenario(5);
        let service =
            Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &scenario.instance)
                .expect("service start");
        let offered = AtomicU64::new(0);
        let report = drive(&service, &drive_config(300, 11), &scenario.instance, None, &offered);
        assert_eq!(offered.load(Ordering::Relaxed), 300);
        assert_eq!(report.tally.errors(), 0, "{:?}", report.tally);
        assert!(report.tally.admitted > 0, "some capacity must be granted: {:?}", report.tally);
        let drain = service.drain();
        assert!(drain.metrics.is_conserved());
        assert!(drain.within_budgets());
        assert_eq!(report.tally.mismatches(&drain.metrics), Vec::<String>::new());
        assert_eq!(drain.metrics.submitted, 300);
        assert_eq!(drain.metrics.departed, report.departed);
    }

    #[test]
    fn zipf_run_with_plan_cache_conserves_and_hits() {
        let scenario = small_scenario(5);
        let service_config = ServiceConfig {
            shards: 2,
            plan_cache: Some(PlanCacheConfig::default()),
            ..ServiceConfig::default()
        };
        let service = Service::start(service_config, &scenario.instance).expect("service start");
        let shapes = ShapePool::new(32, 1.2, scenario.instance.tasks.len(), 7);
        let report =
            drive(&service, &drive_config(600, 7), &scenario.instance, Some(&shapes), &AtomicU64::new(0));
        let drain = service.drain();
        assert!(drain.metrics.is_conserved());
        assert_eq!(report.tally.mismatches(&drain.metrics), Vec::<String>::new());
        let pc = drain.plan_cache.expect("cache enabled");
        assert!(pc.lookups() > 0, "{pc:?}");
        assert!(pc.hits + pc.negative_hits > 0, "a skewed stream must hit: {pc:?}");
    }

    #[test]
    fn zipf_pool_draws_are_deterministic() {
        let pool = ShapePool::new(16, 1.0, 3, 42);
        let twin = ShapePool::new(16, 1.0, 3, 42);
        assert_eq!(pool.shapes, twin.shapes);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(pool.draw(&mut a), twin.draw(&mut b));
        }
        // Skew concentrates mass on the head ranks.
        let mut rng = StdRng::seed_from_u64(3);
        let skewed = ShapePool::new(16, 1.5, 3, 42);
        let head = skewed.shapes[0];
        let hits = (0..1000).filter(|_| skewed.draw(&mut rng) == head).count();
        assert!(hits > 250, "rank 0 should dominate a 1.5-skew stream, got {hits}/1000");
    }
}
