//! The unified admission API: one trait for every tier.
//!
//! [`Admitter`] is the stack's one data-plane surface: a single
//! object-safe trait (`submit` / `depart` / `metrics` / `begin_drain`)
//! with a single type-erased [`PendingVerdict`], implemented by
//! `Service`, `net::Client` and `Gateway` (federated or not). Drivers
//! exercise every tier behind `&dyn Admitter`, and the TCP frontend
//! serves any tier that adds the control-plane extension `net::Backend`
//! — so a tier is written once and both driven and served through it.
//!
//! ## Verdict resolution
//!
//! Each tier resolves a pending verdict differently — an in-process
//! ticket can only be lost to a chaos-killed worker, a wire verdict can
//! die with its connection or be refused by a draining server. The
//! [`VerdictError`] enum preserves those distinctions (drivers keep
//! separate `lost` / `refused` / `transport` tallies and their
//! cross-tier conservation checks), while `Ok(Outcome)` is identical
//! everywhere.

use crate::error::{validate_request, SubmitError};
use crate::mailbox::{Bell, Mailbox};
use crate::metrics::MetricsSnapshot;
use crate::service::Outcome;
use offloadnn_core::instance::PathOption;
use offloadnn_core::task::{Task, TaskId};
use std::fmt;
use std::time::Duration;

/// Why a [`PendingVerdict`] resolved without an [`Outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictError {
    /// The backend lost the request without resolving it (e.g. a
    /// chaos-killed shard worker). Conservation treats it as a leak of
    /// the backend under test, never of the driver.
    Lost,
    /// The endpoint answered with a typed refusal after accepting the
    /// frame (e.g. a drain fence raced the submit on the far side).
    Refused(String),
    /// The transport died before the verdict arrived; whether the
    /// backend resolved it is unknowable from here.
    Transport(String),
    /// The caller-side wait bound elapsed with the request still in
    /// flight.
    TimedOut,
}

impl fmt::Display for VerdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerdictError::Lost => f.write_str("backend lost the request without a verdict"),
            VerdictError::Refused(msg) => write!(f, "refused by the endpoint: {msg}"),
            VerdictError::Transport(msg) => write!(f, "transport died before the verdict: {msg}"),
            VerdictError::TimedOut => f.write_str("no verdict within the wait bound"),
        }
    }
}

impl std::error::Error for VerdictError {}

/// The tier-specific half of a [`PendingVerdict`]. Implemented by each
/// tier's native pending handle (the service's verdict mailbox,
/// `net::PendingVerdict`, the gateway's ticket); drivers never see this
/// trait, only the facade.
pub trait VerdictHandle: Send {
    /// Non-blocking check: `None` while the verdict is in flight. Once
    /// `Some(...)` has been returned the verdict is consumed; further
    /// polls may report the handle as dead.
    fn poll(&self) -> Option<Result<Outcome, VerdictError>>;

    /// Blocks until the verdict arrives or the tier gives up.
    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError>;

    /// Blocks at most `timeout`; [`VerdictError::TimedOut`] strictly
    /// after the bound elapsed with the request still unresolved.
    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError>;

    /// Rings `bell` once [`VerdictHandle::poll`] would find the verdict
    /// (at once if it would now). The default rings nothing: the TCP
    /// frontend also polls every millisecond.
    fn ring_on_resolve(&self, bell: &Bell) {
        let _ = bell;
    }
}

/// A type-erased handle to one in-flight admission, redeemable for its
/// verdict regardless of which tier issued it.
pub struct PendingVerdict {
    task: TaskId,
    inner: Box<dyn VerdictHandle>,
}

impl fmt::Debug for PendingVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingVerdict").field("task", &self.task).finish_non_exhaustive()
    }
}

impl PendingVerdict {
    /// Wraps a tier's native pending handle. Used by [`Admitter`]
    /// implementations, not by drivers.
    pub fn new(task: TaskId, inner: Box<dyn VerdictHandle>) -> Self {
        Self { task, inner }
    }

    /// Id of the submitted task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Non-blocking check: `None` while the verdict is in flight.
    pub fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        self.inner.poll()
    }

    /// Blocks until the verdict arrives or the tier gives up.
    ///
    /// # Errors
    ///
    /// A [`VerdictError`] describing how the verdict was lost.
    pub fn wait(self) -> Result<Outcome, VerdictError> {
        self.inner.wait()
    }

    /// Blocks at most `timeout` for the verdict.
    ///
    /// # Errors
    ///
    /// As [`PendingVerdict::wait`], plus [`VerdictError::TimedOut`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Outcome, VerdictError> {
        self.inner.wait_timeout(timeout)
    }

    /// See [`VerdictHandle::ring_on_resolve`].
    pub fn ring_on_resolve(&self, bell: &Bell) {
        self.inner.ring_on_resolve(bell);
    }
}

/// The unified admission surface: what every tier — in-process service,
/// wire client, cluster gateway, federated gateway — offers a driver.
///
/// `deadline` is the caller's admission budget (`None` = the tier's
/// policy default); every implementation applies the *tighter* of it
/// and its own policy, so a caller can shrink its admission window but
/// never extend it. Object-safe by construction: drivers hold
/// `&dyn Admitter` / `Box<dyn Admitter>` and exercise every tier with
/// one loop body.
pub trait Admitter: Send + Sync {
    /// Submits an admission request.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for requests refused at ingress — draining, no
    /// candidate options, or (wire tiers) an unreachable endpoint.
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError>;

    /// Releases the capacity of an admitted task (fire-and-forget; wire
    /// tiers swallow transport errors, exactly as a crashed client
    /// would).
    fn depart(&self, task: TaskId);

    /// Point-in-time metrics, `None` when the tier cannot produce them
    /// right now (e.g. the wire endpoint is unreachable).
    fn metrics(&self) -> Option<MetricsSnapshot>;

    /// Fences the ingress: subsequent submits fail with
    /// [`SubmitError::Draining`] while in-flight requests still resolve.
    fn begin_drain(&self);

    /// Short name of the tier (`service` / `net` / `gateway`), for
    /// logs and test diagnostics.
    fn tier(&self) -> &'static str;
}

/// The ingress rule of every tier that owns a ledger (`Service` and the
/// gateway), applied before a submit is counted: refuse while
/// `draining`, refuse a request with no candidate options, refuse one
/// that fails [`validate_request`], and clamp the caller's `asked`
/// budget to the tier's `policy` deadline — a caller can shrink its
/// admission window but never extend it (`None` takes the policy).
///
/// # Errors
///
/// [`SubmitError::Draining`], [`SubmitError::NoOptions`] or
/// [`SubmitError::Invalid`], checked in that order.
pub fn admission_budget(
    draining: bool,
    task: &Task,
    options: &[PathOption],
    asked: Option<Duration>,
    policy: Duration,
) -> Result<Duration, SubmitError> {
    if draining {
        return Err(SubmitError::Draining);
    }
    if options.is_empty() {
        return Err(SubmitError::NoOptions);
    }
    validate_request(task, options)?;
    Ok(asked.map_or(policy, |asked| asked.min(policy)))
}

/// An in-process verdict is the one answer its shard sends back; the
/// mailbox resolving without it means the shard died (chaos injection)
/// and the verdict is lost.
impl VerdictHandle for Mailbox<Outcome> {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        self.take(Some(Duration::ZERO))
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        self.take(None).unwrap_or(Err(VerdictError::Lost))
    }

    fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
        self.take(Some(timeout)).unwrap_or(Err(VerdictError::TimedOut))
    }

    fn ring_on_resolve(&self, bell: &Bell) {
        Mailbox::ring_on_resolve(self, bell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::Service;
    use offloadnn_core::scenario::small_scenario;

    #[test]
    fn service_admits_through_the_trait_object() {
        let scenario = small_scenario(4);
        let service = Service::start(ServiceConfig::default(), &scenario.instance).unwrap();
        let admitter: &dyn Admitter = &service;
        assert_eq!(admitter.tier(), "service");
        let task = scenario.instance.tasks[0].clone();
        let options = scenario.instance.options[0].clone();
        let pending = admitter.submit(task, options, Some(Duration::from_secs(2))).unwrap();
        let outcome = pending.wait().expect("in-process verdicts are never lost without chaos");
        if matches!(outcome, Outcome::Admitted { .. }) {
            admitter.depart(scenario.instance.tasks[0].id);
        }
        let m = admitter.metrics().expect("service metrics are always available");
        assert_eq!(m.submitted, 1);
        admitter.begin_drain();
        let err = admitter
            .submit(scenario.instance.tasks[1].clone(), scenario.instance.options[1].clone(), None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        let report = service.drain();
        assert!(report.metrics.is_conserved());
    }

    #[test]
    fn the_ingress_rule_refuses_in_order_and_clamps_to_the_policy() {
        let scenario = small_scenario(4);
        let (task, options) = (&scenario.instance.tasks[0], &scenario.instance.options[0]);
        let mut nan = task.clone();
        nan.request_rate = f64::NAN;
        let policy = Duration::from_millis(50);
        assert_eq!(admission_budget(true, &nan, &[], None, policy), Err(SubmitError::Draining));
        assert_eq!(admission_budget(false, &nan, &[], None, policy), Err(SubmitError::NoOptions));
        assert_eq!(admission_budget(false, &nan, options, None, policy), Err(SubmitError::Invalid));
        assert_eq!(admission_budget(false, task, options, None, policy), Ok(policy));
        assert_eq!(admission_budget(false, task, options, Some(policy * 2), policy), Ok(policy));
        assert_eq!(admission_budget(false, task, options, Some(policy / 5), policy), Ok(policy / 5));
    }
}
