//! The concrete plan value memoized by the serve tier.

/// A memoized solver decision for one task shape.
///
/// The cache stores the *plan* — which option to run and how much to
/// grant — never the verdict. An `Admit` plan is only a proposal: on every
/// hit it is re-validated against the live ledger
/// (`Controller::try_apply_plan`) before any budget moves, and falls
/// through to a cold solve if validation fails.
///
/// Rejections are not plans and are not stored here: a rejection depends
/// on the whole ledger of the shard that produced it, so the serve tier
/// keeps them in a per-shard memo that is cleared whenever that ledger
/// moves.
///
/// The serve tier only mints `Admit` entries for *full* admissions
/// (`z = 1`): a full grant's sizing is the shape's unconstrained optimum
/// (rate-driven RBs, independent of residual headroom), so a validated
/// replay hands out what a fresh solve grants whenever the ledger has
/// slack. Partial grants are shaped by the exact residual at solve time
/// and are never memoized — replaying one later would apply a stale
/// fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachedPlan {
    /// Admit on `options[option]` with this admission fraction and RB grant.
    Admit {
        /// Index into the request's option slice.
        option: usize,
        /// Admission fraction `z` in `(0, 1]`.
        admission: f64,
        /// Radio resource blocks `r` granted.
        rbs: f64,
    },
}
