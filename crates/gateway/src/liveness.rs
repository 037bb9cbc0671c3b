//! The liveness rule: one state machine for every remote the gateway
//! dials, serve node or peer gateway alike. It reads no clock, takes no
//! lock, touches no socket and spawns no thread — the health monitor
//! (`health.rs`) and the data path feed it `now` and what they saw.
//!
//! States are the wire-level [`MemberState`]:
//!
//! ```text
//!                    announce           probe succeeds
//!        (unknown) ──────────▶ Probing ───────────────▶ Healthy
//!                                 ▲                    │      ▲
//!   announce with a               │     K missed probes or    │
//!   higher incarnation            │     a data-path failure   │ probe succeeds
//!   (a restarted node             │                    ▼      │ after probation
//!   re-proves itself)             │                  Ejected ─┘
//!                                 │                    │
//!                                 │        leave       ▼
//!                                 └─────────────── Departed  (terminal but for
//!                                                             a *newer* incarnation)
//! ```
//!
//! Only `Healthy` is routable. `Probing` is the join-through-probation
//! gate: an announced node receives zero traffic until a probe succeeds.
//! `Departed` is terminal: only [`Liveness::restart`], which the
//! membership engine calls for a strictly newer incarnation, leaves it,
//! so a delayed or replayed announce can never resurrect a node that
//! left. Peers start `Healthy` and never probe-join or depart. The data
//! path may eject directly (a failed send or a dropped connection is
//! stronger evidence than a missed probe); only a probe promotes or
//! readmits.
//!
//! Probes of an unhealthy (probing or ejected) remote back off: after
//! [`PROBE_BACKOFF_AFTER`] consecutive failures the probe stride doubles
//! per failure, capped at [`PROBE_BACKOFF_LIMIT`] sweeps. Without this a
//! remote that announced and then died — or an ejected one that never
//! comes back — costs the monitor a full connect timeout every sweep,
//! forever, crowding out the probes that matter.

use offloadnn_net::MemberState;
use std::time::{Duration, Instant};

/// Consecutive failed probes of an unhealthy remote after which the
/// monitor starts backing off.
const PROBE_BACKOFF_AFTER: u32 = 4;

/// Cap on the probe-backoff stride, in monitor sweeps. A long-dead
/// remote is still probed at least once per this many sweeps, bounding
/// how stale its revival can go unnoticed.
const PROBE_BACKOFF_LIMIT: u32 = 64;

/// A transition worth logging once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    /// Healthy → Ejected by missed probes.
    Ejected,
    /// Probing → Healthy: the first probe succeeded.
    Promoted,
    /// Ejected → Healthy: a probe succeeded after probation.
    Readmitted,
}

/// One remote's lifecycle state and probe history.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Liveness {
    state: MemberState,
    /// Consecutive missed probes while healthy.
    misses: u32,
    /// Consecutive failed probes while unhealthy; drives the backoff.
    failures: u32,
    /// Monitor sweeps left to skip before the next probe.
    skips: u32,
    /// Earliest instant a probe may readmit after an ejection.
    probation_until: Option<Instant>,
}

impl Liveness {
    /// A remote in `state` with a clean probe history.
    pub(crate) fn new(state: MemberState) -> Self {
        Self { state, misses: 0, failures: 0, skips: 0, probation_until: None }
    }

    pub(crate) fn state(&self) -> MemberState {
        self.state
    }

    fn probation_over(&self, now: Instant) -> bool {
        self.probation_until.is_none_or(|until| now >= until)
    }

    fn eject(&mut self, now: Instant, probation: Duration) {
        self.state = MemberState::Ejected;
        self.probation_until = Some(now + probation);
    }

    /// Whether the sweep at `now` should probe, consuming one backoff
    /// skip otherwise. Healthy remotes are always due; an ejected one
    /// only once its probation is over; a departed one never.
    pub(crate) fn due(&mut self, now: Instant) -> bool {
        match self.state {
            MemberState::Healthy => true,
            MemberState::Departed => false,
            MemberState::Ejected if !self.probation_over(now) => false,
            MemberState::Probing | MemberState::Ejected => {
                let due = self.skips == 0;
                self.skips = self.skips.saturating_sub(1);
                due
            }
        }
    }

    /// Applies the result of a probe sent at `now`: `eject_after`
    /// consecutive misses eject a healthy remote, a success promotes a
    /// probing one or readmits an ejected one whose probation is over,
    /// and a failure of an unhealthy one schedules the backoff (and, if
    /// ejected, restarts its probation). The state is re-read here, not
    /// at [`Liveness::due`], so a departure or a data-path ejection that
    /// raced the probe sticks.
    pub(crate) fn probed(
        &mut self,
        now: Instant,
        ok: bool,
        eject_after: u32,
        probation: Duration,
    ) -> Option<Change> {
        let change = match (self.state, ok) {
            (MemberState::Departed, _) => return None,
            (MemberState::Healthy, true) => None,
            (MemberState::Probing, true) => Some(Change::Promoted),
            (MemberState::Ejected, true) if !self.probation_over(now) => return None,
            (MemberState::Ejected, true) => Some(Change::Readmitted),
            (MemberState::Healthy, false) => {
                self.misses += 1;
                if self.misses < eject_after {
                    return None;
                }
                self.eject(now, probation);
                return Some(Change::Ejected);
            }
            (MemberState::Probing | MemberState::Ejected, false) => {
                if self.state == MemberState::Ejected {
                    self.probation_until = Some(now + probation);
                }
                self.failures = self.failures.saturating_add(1);
                let stride = match self.failures.checked_sub(PROBE_BACKOFF_AFTER) {
                    None | Some(0) => 1,
                    Some(doublings) => (1u32 << doublings.min(16)).min(PROBE_BACKOFF_LIMIT),
                };
                self.skips = stride - 1;
                return None;
            }
        };
        *self = Self::new(MemberState::Healthy);
        change
    }

    /// A data-path transport failure at `now`: a healthy remote is
    /// ejected at once. Returns `true` only on that transition, so the
    /// caller logs it once.
    pub(crate) fn data_failed(&mut self, now: Instant, probation: Duration) -> bool {
        let flipped = self.state == MemberState::Healthy;
        if flipped {
            self.eject(now, probation);
        }
        flipped
    }

    /// A graceful leave: `Departed` from every state, idempotently;
    /// returns `true` on the first transition.
    pub(crate) fn depart(&mut self) -> bool {
        let flipped = self.state != MemberState::Departed;
        self.state = MemberState::Departed;
        flipped
    }

    /// A newer incarnation: back to `Probing` with a clean history,
    /// whatever the state — `Departed` included.
    pub(crate) fn restart(&mut self) {
        *self = Self::new(MemberState::Probing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBATION: Duration = Duration::from_millis(20);

    /// Feeds `n` probe results at `now`, returning the last change.
    fn probe_n(l: &mut Liveness, now: Instant, ok: bool, n: u32) -> Option<Change> {
        (0..n).map(|_| l.probed(now, ok, 3, PROBATION)).last().flatten()
    }

    #[test]
    fn misses_accumulate_to_the_threshold_and_a_success_resets_them() {
        let (mut l, t0) = (Liveness::new(MemberState::Healthy), crate::gateway::test_epoch());
        assert_eq!(probe_n(&mut l, t0, false, 2), None);
        assert_eq!(l.probed(t0, true, 3, PROBATION), None);
        assert_eq!(probe_n(&mut l, t0, false, 2), None, "the success restarted the streak");
        assert_eq!(l.probed(t0, false, 3, PROBATION), Some(Change::Ejected));
        assert_eq!(l.state(), MemberState::Ejected);
    }

    #[test]
    fn eject_is_reported_once_and_probation_gates_readmission() {
        let (mut l, t0) = (Liveness::new(MemberState::Healthy), crate::gateway::test_epoch());
        assert!(l.data_failed(t0, PROBATION));
        assert!(!l.data_failed(t0 + PROBATION, PROBATION), "a second failure must not re-report");
        assert_eq!(l.state(), MemberState::Ejected);
        let early = t0 + PROBATION - Duration::from_nanos(1);
        assert!(!l.due(early));
        // A probe that raced the ejection cannot cut probation short.
        assert_eq!(l.probed(early, true, 3, PROBATION), None);
        assert_eq!(l.state(), MemberState::Ejected);
        assert!(l.due(t0 + PROBATION), "a re-eject must not restart the window either");
        assert_eq!(l.probed(t0 + PROBATION, true, 3, PROBATION), Some(Change::Readmitted));
        assert_eq!(l, Liveness::new(MemberState::Healthy), "readmission clears the history");
    }

    /// The rule a peer gateway follows too: down after `eject_after`
    /// missed probes, and back after probation by one good probe.
    #[test]
    fn missed_probes_eject_and_one_probe_after_probation_restores() {
        let (mut l, t0) = (Liveness::new(MemberState::Healthy), crate::gateway::test_epoch());
        assert_eq!(probe_n(&mut l, t0, false, 3), Some(Change::Ejected));
        assert_eq!(l.probed(t0, false, 3, PROBATION), None, "already down: no re-report");
        let t1 = t0 + PROBATION / 2;
        assert!(!l.due(t1));
        // A failed readmission probe restarts probation from its own sweep.
        let t2 = t0 + PROBATION;
        assert!(l.due(t2));
        assert_eq!(l.probed(t2, false, 3, PROBATION), None);
        assert!(!l.due(t2 + PROBATION / 2));
        assert!(l.due(t2 + PROBATION));
        assert_eq!(l.probed(t2 + PROBATION, true, 3, PROBATION), Some(Change::Readmitted));
        assert_eq!(l.state(), MemberState::Healthy);
    }

    #[test]
    fn a_probing_remote_is_not_routable_until_promoted() {
        let (mut l, t0) = (Liveness::new(MemberState::Probing), crate::gateway::test_epoch());
        assert!(l.due(t0));
        assert_eq!(l.probed(t0, false, 3, PROBATION), None);
        assert_eq!(l.state(), MemberState::Probing, "a failure never ejects a probing remote");
        assert!(!l.data_failed(t0, PROBATION), "nor does the data path");
        assert_eq!(l.probed(t0, true, 3, PROBATION), Some(Change::Promoted));
        assert_eq!(l.state(), MemberState::Healthy);
        assert_eq!(l.probed(t0, true, 3, PROBATION), None, "promotion is a one-shot transition");
    }

    #[test]
    fn departed_is_terminal_for_every_monitor_transition() {
        let (mut l, t0) = (Liveness::new(MemberState::Healthy), crate::gateway::test_epoch());
        assert!(l.depart());
        assert!(!l.depart(), "a second depart must not re-report");
        assert!(!l.due(t0), "a departed remote is never probed");
        assert!(!l.data_failed(t0, Duration::ZERO), "a departed remote cannot be ejected");
        for ok in [true, false] {
            assert_eq!(probe_n(&mut l, t0 + PROBATION, ok, 5), None);
        }
        assert_eq!(l.state(), MemberState::Departed);
        // Only a restart under a newer incarnation revives it — into
        // probation, not straight to routable.
        l.restart();
        assert_eq!(l, Liveness::new(MemberState::Probing));
    }

    #[test]
    fn probe_backoff_doubles_after_the_grace_failures_and_caps() {
        let (mut l, t0) = (Liveness::new(MemberState::Probing), crate::gateway::test_epoch());
        let fail = |l: &mut Liveness| l.probed(t0, false, 3, PROBATION);
        // Within the grace window every sweep probes.
        for _ in 0..PROBE_BACKOFF_AFTER {
            assert!(l.due(t0));
            fail(&mut l);
        }
        // First failure past the window: stride 2 ⇒ skip one sweep.
        assert!(l.due(t0));
        fail(&mut l);
        assert!(!l.due(t0));
        assert!(l.due(t0));
        // The next one: stride 4 ⇒ skip three.
        fail(&mut l);
        for _ in 0..3 {
            assert!(!l.due(t0));
        }
        assert!(l.due(t0));
        // Far past the window the stride is capped at the limit.
        for _ in 0..40 {
            fail(&mut l);
        }
        let mut skips = 0;
        while !l.due(t0) {
            skips += 1;
        }
        assert_eq!(skips, PROBE_BACKOFF_LIMIT - 1, "stride caps at the limit (N sweeps ⇒ N - 1 skips)");
        // A success clears the backoff entirely.
        assert_eq!(l.probed(t0, true, 3, PROBATION), Some(Change::Promoted));
        assert_eq!(l, Liveness::new(MemberState::Healthy));
    }
}
