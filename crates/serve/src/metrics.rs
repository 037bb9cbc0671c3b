//! Thread-safe service metrics: verdict counters, peak gauges and
//! latency histograms, snapshotable from any thread without stopping the
//! workers.
//!
//! Since the telemetry subsystem landed, the instruments themselves live
//! in [`offloadnn_telemetry`]: every counter, gauge and histogram here is
//! a handle registered in a per-service [`Registry`], so the whole
//! service can be exported through the shared JSONL/table exporters
//! ([`ServiceMetrics::registry`]). The conservation invariant is
//! *functional* accounting, so these instruments record unconditionally —
//! they are not gated on [`offloadnn_telemetry::enabled`] and the
//! invariant holds with telemetry on, off, or compiled out.

use crate::service::Outcome;
use offloadnn_telemetry::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use offloadnn_telemetry::HISTOGRAM_BUCKETS;

/// The service's latency histogram type (the shared telemetry
/// implementation; kept under its historical name for call sites).
pub type LatencyHistogram = Histogram;

/// Point-in-time copy of a [`LatencyHistogram`], serde-serialisable for
/// reports. Convertible from the telemetry snapshot it mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket 0 is sub-microsecond, bucket `i >= 1`
    /// covers `[2^(i-1) µs, 2^i µs)`, the last bucket is the overflow.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observations in microseconds.
    pub sum_us: u64,
}

impl From<offloadnn_telemetry::HistogramSnapshot> for HistogramSnapshot {
    fn from(s: offloadnn_telemetry::HistogramSnapshot) -> Self {
        Self { buckets: s.buckets, count: s.count, sum_us: s.sum_us }
    }
}

impl HistogramSnapshot {
    fn as_telemetry(&self) -> offloadnn_telemetry::HistogramSnapshot {
        offloadnn_telemetry::HistogramSnapshot {
            buckets: self.buckets,
            count: self.count,
            sum_us: self.sum_us,
        }
    }

    /// Mean observation, or zero when empty.
    pub fn mean(&self) -> Duration {
        self.as_telemetry().mean()
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0 < p <= 1`), or zero when empty. Log-bucket resolution: the
    /// estimate is within 2x of the true quantile.
    pub fn quantile(&self, p: f64) -> Duration {
        self.as_telemetry().quantile(p)
    }
}

/// Verdict counters, gauges and histograms of a running service.
///
/// Every submitted request increments `submitted` at ingress and exactly
/// one of `admitted` / `rejected` / `shed` / `expired` at resolution, so
/// at any quiescent point (no request in flight) the counters satisfy
/// `submitted = admitted + rejected + shed + expired`.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Registry,
    /// Requests accepted at ingress.
    pub submitted: Arc<Counter>,
    /// Requests granted a slice by the solver.
    pub admitted: Arc<Counter>,
    /// Requests the solver declined (infeasible or not worth capacity).
    pub rejected: Arc<Counter>,
    /// Requests dropped by backpressure or priority shedding.
    pub shed: Arc<Counter>,
    /// Requests that waited past their admission deadline.
    pub expired: Arc<Counter>,
    /// Departure notices processed (capacity released).
    pub departed: Arc<Counter>,
    /// Solver rounds executed across all shards.
    pub solver_rounds: Arc<Counter>,
    /// Solver rounds that returned an error (every request in the round is
    /// counted `rejected`).
    pub solver_errors: Arc<Counter>,
    /// Completed [`crate::Service::scale_to`] topology changes.
    pub reshards: Arc<Counter>,
    /// In-flight tasks migrated to a new owner shard across all reshards.
    pub migrated: Arc<Counter>,
    /// Current fleet generation (0 at start, +1 per completed reshard).
    pub generation: Arc<Gauge>,
    /// Highest queue depth observed at round assembly on any shard.
    pub peak_queue_depth: Arc<Gauge>,
    /// Largest batch resolved in one round.
    pub peak_batch: Arc<Gauge>,
    /// Wall-clock time of the most recent solver round in microseconds
    /// (rounds take 20–500 µs, so milliseconds would read 0), for an
    /// operator's dashboard. Not part of the wire [`MetricsSnapshot`],
    /// which carries the full `round_time` histogram.
    pub solver_round_us: Arc<Gauge>,
    /// End-to-end request latency (submit to verdict).
    pub latency: Arc<LatencyHistogram>,
    /// Wall-clock time of each solver round.
    pub round_time: Arc<LatencyHistogram>,
}

impl ServiceMetrics {
    /// Creates zeroed metrics on a fresh per-service registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        Self {
            submitted: registry.counter("serve.submitted"),
            admitted: registry.counter("serve.admitted"),
            rejected: registry.counter("serve.rejected"),
            shed: registry.counter("serve.shed"),
            expired: registry.counter("serve.expired"),
            departed: registry.counter("serve.departed"),
            solver_rounds: registry.counter("serve.solver_rounds"),
            solver_errors: registry.counter("serve.solver_errors"),
            reshards: registry.counter("serve.reshards"),
            migrated: registry.counter("serve.migrated"),
            generation: registry.gauge("serve.generation"),
            peak_queue_depth: registry.gauge("serve.peak_queue_depth"),
            peak_batch: registry.gauge("serve.peak_batch"),
            solver_round_us: registry.gauge("solver.round_us"),
            latency: registry.phase("serve.latency"),
            round_time: registry.phase("serve.round"),
            registry,
        }
    }

    /// Books one verdict: counts its class and records its
    /// submit-to-verdict latency. Every tier books verdicts only here.
    ///
    /// The release fence pairs with the acquire fence in
    /// [`ServiceMetrics::snapshot`]: a snapshot that counts this verdict
    /// also sees the `submitted` increment that preceded it.
    pub fn book(&self, outcome: &Outcome, latency: Duration) {
        fence(Ordering::Release);
        match outcome {
            Outcome::Admitted { .. } => &self.admitted,
            Outcome::Rejected { .. } => &self.rejected,
            Outcome::Shed { .. } => &self.shed,
            Outcome::Expired { .. } => &self.expired,
        }
        .inc();
        self.latency.record(latency);
    }

    /// The per-service telemetry registry holding these instruments —
    /// snapshot it for the shared JSONL/table exporters.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Copies all counters and histograms. Taken under load it is not a
    /// single instant, but it never shows more verdicts than submits: the
    /// verdict counters are read first and `submitted` after the acquire
    /// fence (see [`ServiceMetrics::book`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (admitted, rejected, shed, expired) =
            (self.admitted.get(), self.rejected.get(), self.shed.get(), self.expired.get());
        fence(Ordering::Acquire);
        MetricsSnapshot {
            submitted: self.submitted.get(),
            admitted,
            rejected,
            shed,
            expired,
            departed: self.departed.get(),
            solver_rounds: self.solver_rounds.get(),
            solver_errors: self.solver_errors.get(),
            reshards: self.reshards.get(),
            migrated: self.migrated.get(),
            generation: self.generation.get(),
            peak_queue_depth: self.peak_queue_depth.get(),
            peak_batch: self.peak_batch.get(),
            latency: self.latency.snapshot().into(),
            round_time: self.round_time.snapshot().into(),
        }
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time copy of [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests accepted at ingress.
    pub submitted: u64,
    /// Requests granted a slice.
    pub admitted: u64,
    /// Requests declined by the solver.
    pub rejected: u64,
    /// Requests dropped by backpressure or priority shedding.
    pub shed: u64,
    /// Requests that waited past their deadline.
    pub expired: u64,
    /// Departure notices processed.
    pub departed: u64,
    /// Solver rounds executed.
    pub solver_rounds: u64,
    /// Solver rounds that errored.
    pub solver_errors: u64,
    /// Completed reshards (topology changes).
    pub reshards: u64,
    /// In-flight tasks migrated across all reshards.
    pub migrated: u64,
    /// Fleet generation at snapshot time.
    pub generation: u64,
    /// Highest observed queue depth.
    pub peak_queue_depth: u64,
    /// Largest batch resolved in one round.
    pub peak_batch: u64,
    /// End-to-end request latency histogram.
    pub latency: HistogramSnapshot,
    /// Solver round time histogram.
    pub round_time: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Total resolved requests.
    pub fn resolved(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.expired
    }

    /// Conservation invariant: every submitted request has exactly one
    /// verdict. Holds at any quiescent point; in particular after
    /// [`crate::service::Service::drain`].
    pub fn is_conserved(&self) -> bool {
        self.submitted == self.resolved()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "submitted {:>8}   admitted {:>8}   rejected {:>8}   shed {:>8}   expired {:>8}",
            self.submitted, self.admitted, self.rejected, self.shed, self.expired
        )?;
        writeln!(
            f,
            "rounds    {:>8}   errors   {:>8}   departed {:>8}   peak queue {:>5}   peak batch {:>5}",
            self.solver_rounds, self.solver_errors, self.departed, self.peak_queue_depth, self.peak_batch
        )?;
        writeln!(
            f,
            "reshards  {:>8}   migrated {:>8}   generation {:>6}",
            self.reshards, self.migrated, self.generation
        )?;
        writeln!(
            f,
            "latency   mean {:>10.3?}   p50 {:>10.3?}   p99 {:>10.3?}",
            self.latency.mean(),
            self.latency.quantile(0.5),
            self.latency.quantile(0.99)
        )?;
        write!(
            f,
            "round     mean {:>10.3?}   p50 {:>10.3?}   p99 {:>10.3?}",
            self.round_time.mean(),
            self.round_time.quantile(0.5),
            self.round_time.quantile(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_spaced() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 1
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(1000)); // bucket 10
        h.record(Duration::from_secs(100)); // overflow bucket
        let s: HistogramSnapshot = h.snapshot().into();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn edge_samples_land_in_first_and_last_bucket() {
        // The satellite fix: zero-duration and u64::MAX-µs samples must be
        // counted (first/last bucket), never panic or vanish — and a
        // pathological sample must not wrap the sum.
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        h.record_us(u64::MAX);
        h.record(Duration::MAX);
        let s: HistogramSnapshot = h.snapshot().into();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(s.sum_us, u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn quantiles_bound_observations() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record(Duration::from_micros(us));
        }
        let s: HistogramSnapshot = h.snapshot().into();
        assert!(s.quantile(0.5) >= Duration::from_micros(32));
        assert!(s.quantile(0.5) <= Duration::from_micros(128));
        assert!(s.quantile(1.0) >= Duration::from_micros(1000));
        assert_eq!(
            HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum_us: 0 }.quantile(0.5),
            Duration::ZERO
        );
    }

    #[test]
    fn conservation_checks_the_four_verdicts() {
        let m = ServiceMetrics::new();
        m.submitted.add(10);
        m.admitted.add(4);
        m.rejected.add(3);
        m.shed.add(2);
        assert!(!m.snapshot().is_conserved());
        m.expired.inc();
        let s = m.snapshot();
        assert!(s.is_conserved());
        assert_eq!(s.resolved(), 10);
    }

    #[test]
    fn a_snapshot_under_load_never_resolves_more_than_it_submitted() {
        // One thread books submit + verdict pairs in a tight loop while
        // another snapshots: a snapshot that read `submitted` before the
        // verdict counters would catch a pair half-read.
        let m = ServiceMetrics::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let torn = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    m.submitted.inc();
                    m.book(&Outcome::Rejected { shard: 0 }, Duration::ZERO);
                }
            });
            let torn = (0..200_000).map(|_| m.snapshot()).find(|s| s.resolved() > s.submitted);
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert!(m.submitted.get() > 0, "the booking thread never ran");
        if let Some(s) = torn {
            panic!("torn snapshot: {} resolved, {} submitted", s.resolved(), s.submitted);
        }
    }

    #[test]
    fn peaks_only_rise() {
        let m = ServiceMetrics::new();
        m.peak_batch.raise(5);
        m.peak_batch.raise(3);
        assert_eq!(m.snapshot().peak_batch, 5);
        m.peak_batch.raise(9);
        assert_eq!(m.snapshot().peak_batch, 9);
    }

    #[test]
    fn metrics_live_on_the_service_registry() {
        let m = ServiceMetrics::new();
        m.submitted.add(7);
        m.latency.record(Duration::from_micros(50));
        let snap = m.registry().snapshot();
        assert!(snap.counters.iter().any(|(n, v)| *n == "serve.submitted" && *v == 7));
        assert!(snap.phases.iter().any(|(n, h)| *n == "serve.latency" && h.count == 1));
    }
}
