//! Always-on cache statistics, independent of the telemetry feature.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free internal counters. Relaxed ordering is fine: each counter is
/// an independent monotonic tally, never used to synchronize memory.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub hits: AtomicU64,
    pub negative_hits: AtomicU64,
    pub misses: AtomicU64,
    pub inserts: AtomicU64,
    pub evictions: AtomicU64,
    pub invalidations: AtomicU64,
    pub expirations: AtomicU64,
    pub validation_failures: AtomicU64,
}

impl AtomicStats {
    pub fn snapshot(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            validation_failures: self.validation_failures.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of cache statistics.
///
/// Counters are monotonic over the cache's lifetime; rates derived from a
/// single snapshot are cumulative, not windowed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a positive (admit) plan.
    pub hits: u64,
    /// Rejections answered without a solve: negative entries returned by
    /// `lookup` plus replays the caller reported through
    /// `PlanCache::note_negative_hit` (the serve tier's per-shard memo).
    pub negative_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written (fresh inserts and overwrites).
    pub inserts: u64,
    /// Entries displaced by CLOCK second-chance eviction.
    pub evictions: u64,
    /// Entries dropped because their plan failed re-validation.
    pub invalidations: u64,
    /// Entries dropped because their TTL lapsed.
    pub expirations: u64,
    /// Cache hits whose plan failed re-validation against the live ledger.
    pub validation_failures: u64,
}

impl PlanCacheStats {
    /// Total lookups served (hits + negative hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.negative_hits + self.misses
    }

    /// Fraction of lookups answered without a solve, in `[0, 1]`: hits
    /// whose plan failed re-validation were re-solved and do not count.
    /// Zero lookups yields 0.0.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.negative_hits).saturating_sub(self.validation_failures) as f64 / lookups as f64
        }
    }
}

/// Field-wise total, e.g. over the serve nodes of a cluster.
impl std::iter::Sum for PlanCacheStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            hits: a.hits + b.hits,
            negative_hits: a.negative_hits + b.negative_hits,
            misses: a.misses + b.misses,
            inserts: a.inserts + b.inserts,
            evictions: a.evictions + b.evictions,
            invalidations: a.invalidations + b.invalidations,
            expirations: a.expirations + b.expirations,
            validation_failures: a.validation_failures + b.validation_failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_negative_hits_and_handles_zero() {
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
        let s = PlanCacheStats { hits: 6, negative_hits: 2, misses: 2, ..Default::default() };
        assert_eq!(s.lookups(), 10);
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        let total: PlanCacheStats = [s, s].into_iter().sum();
        assert_eq!((total.hits, total.lookups()), (12, 20));
        assert!((total.hit_rate() - 0.8).abs() < 1e-12);
        // Hits that failed validation were re-solved: they are not usable.
        let failed = PlanCacheStats { validation_failures: 3, ..s };
        assert!((failed.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(PlanCacheStats { validation_failures: 9, ..s }.hit_rate(), 0.0);
    }
}
