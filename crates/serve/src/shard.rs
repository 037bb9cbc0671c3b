//! The shard engine: every admission decision of one shard — priority
//! shedding, expiry, the plan-cache pass, solver rounds, departures and
//! reshard handoffs around one `Controller` — as a state machine that
//! never blocks, spawns nothing and reads time only through [`Clock`].
//! It answers through single-slot mailboxes (each [`Waiter`], each
//! order's reply); the thread, queue and wall clock are the driver's
//! (`spawn_worker` in `service.rs`). `ci.sh` keeps this file pure.

use crate::config::ServiceConfig;
use crate::mailbox::Responder;
use crate::metrics::ServiceMetrics;
use crate::router;
use crate::service::Outcome;
use crossbeam::channel::Sender;
use offloadnn_core::controller::{ActiveTask, AdmissionRequest, Controller, ControllerSnapshot};
use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::instance::{Budgets, DotInstance, PathOption};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_plancache::{
    budget_bucket, shape_fingerprint, CachedPlan, PlanCache, PlanKey, ShapeFingerprint,
};
use offloadnn_telemetry::{event, Severity};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on buffered orphan departures (departure notices that
/// arrived before the migration handing us the task). Reconciliation
/// removes entries, so in a healthy fleet the set stays tiny; the cap
/// only bounds memory against a caller departing ids that never existed.
const ORPHAN_CAP: usize = 65_536;

/// Upper bound on memoized rejections per shard. A stream of fresh
/// rejected shapes on an unmoving ledger would otherwise grow the memo
/// without limit; a full memo is simply cleared (its shapes re-solve).
const REJECTED_CAP: usize = 4096;

/// One queued admission request. The task and option list are the
/// allocation made at ingress; they are only ever moved or borrowed from
/// here on (see [`Shard::round`]).
pub(crate) struct ServiceRequest {
    pub task: Task,
    pub options: Vec<PathOption>,
    pub deadline: Instant,
    pub waiter: Waiter,
}

/// What is left of a request once its task and options have moved into
/// a solver round: whom to answer, and since when they have waited.
pub(crate) struct Waiter {
    pub enqueued_at: Instant,
    pub responder: Responder<Outcome>,
}

/// A reshard order, sent to every shard of the old fleet alike: adopt
/// `budgets`, extract every active task a `shards`-shard fleet routes
/// elsewhere and hand the extracted tasks back on `reply`. A retiring
/// shard owns no key of the new fleet, so it hands back its whole
/// active set.
pub(crate) struct ReshardCmd {
    pub shards: usize,
    pub budgets: Budgets,
    pub reply: Sender<Vec<ActiveTask>>,
}

/// Messages on a shard's ingress queue.
pub(crate) enum ShardMsg {
    /// An admission request.
    Request(ServiceRequest),
    /// A departure notice: release the task's capacity.
    Depart(TaskId),
    /// A reshard order (see [`ReshardCmd`]).
    Reshard(ReshardCmd),
    /// In-flight tasks migrating in from another shard's keyspace.
    Adopt(Vec<ActiveTask>),
}

/// The engine's only view of time. The driver passes the wall clock;
/// tests pass one they advance by hand.
pub(crate) trait Clock {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Lets `d` pass (the chaos slow-solver stall).
    fn stall(&self, d: Duration);
}

/// Final state a shard worker returns when it exits (after
/// [`crate::service::Service::drain`] or when the service is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The budget partition this shard was given (the latest one, if the
    /// fleet resharded).
    pub budgets: Budgets,
    /// Controller state at exit.
    pub snapshot: ControllerSnapshot,
    /// Highest admission-weighted RB usage observed after any round
    /// since the last reshard (peaks reset when the partition changes).
    pub peak_rbs: f64,
    /// Highest compute usage observed after any round (GPU-s/s).
    pub peak_compute: f64,
    /// Highest block-memory usage observed after any round (bytes).
    pub peak_memory: f64,
    /// Solver rounds this shard executed.
    pub rounds: u64,
}

impl ShardReport {
    /// Whether the shard's resource usage stayed within its budget
    /// partition at every observed point (small relative tolerance for
    /// floating-point accumulation).
    pub fn within_budgets(&self) -> bool {
        const EPS: f64 = 1e-6;
        self.peak_rbs <= self.budgets.rbs * (1.0 + EPS)
            && self.peak_compute <= self.budgets.compute_seconds * (1.0 + EPS)
            && self.peak_memory <= self.budgets.memory_bytes * (1.0 + EPS)
    }
}

/// One shard's admission state (see the module docs).
pub(crate) struct Shard {
    index: usize,
    controller: Controller,
    budgets: Budgets,
    config: ServiceConfig,
    metrics: Arc<ServiceMetrics>,
    /// Service-wide plan cache shared by every shard; `None` keeps the
    /// cold-solve path.
    plan_cache: Option<Arc<PlanCache<CachedPlan>>>,
    /// Shapes the solver refused since this shard's ledger last moved. A
    /// rejection depends on the whole ledger, so there is nothing to
    /// re-validate: it replays only while the ledger is literally
    /// unchanged (see [`Shard::ledger_moved`]) — the negative-path
    /// counterpart of `Controller::try_apply_plan` re-validation. Stays
    /// empty with the plan cache off.
    rejected: HashSet<ShapeFingerprint>,
    /// Departures that outran their task's migration: a departure routed
    /// here before the matching `Adopt` arrived. Reconciled on adoption.
    orphans: HashSet<TaskId>,
    /// Reshard orders taken mid-batch; executed once that batch's round
    /// has ended.
    pending_reshards: Vec<ReshardCmd>,
    /// Highest (RBs, compute, memory) usage observed after any round
    /// since the partition last changed.
    peak: (f64, f64, f64),
    /// Solver rounds executed (chaos injection is keyed on it).
    rounds: u64,
}

impl Shard {
    /// A shard with a fresh controller over `budgets`; `template`
    /// supplies the cost tables, the rate model and `alpha`.
    pub(crate) fn new(
        index: usize,
        budgets: Budgets,
        template: &DotInstance,
        config: ServiceConfig,
        metrics: Arc<ServiceMetrics>,
        plan_cache: Option<Arc<PlanCache<CachedPlan>>>,
    ) -> Self {
        let mut controller = Controller::new(template, OffloadnnSolver::new());
        controller.set_budgets(budgets);
        Self {
            index,
            controller,
            budgets,
            config,
            metrics,
            plan_cache,
            rejected: HashSet::new(),
            orphans: HashSet::new(),
            pending_reshards: Vec::new(),
            peak: (0.0, 0.0, 0.0),
            rounds: 0,
        }
    }

    /// Takes one message off the queue: a departure or an adoption
    /// applies now, a request joins `batch`, and a reshard order waits
    /// for the end of the next [`Shard::round`].
    pub(crate) fn take(&mut self, msg: ShardMsg, batch: &mut Vec<ServiceRequest>) {
        match msg {
            ShardMsg::Request(req) => batch.push(req),
            ShardMsg::Depart(id) => {
                if self.controller.release(&[id]) > 0 {
                    self.ledger_moved();
                } else if self.orphans.len() < ORPHAN_CAP {
                    // The departure outran the migration handing us this
                    // task (or names an id we never held): remember it so
                    // a later Adopt does not resurrect departed capacity.
                    self.orphans.insert(id);
                }
                self.metrics.departed.inc();
            }
            ShardMsg::Reshard(cmd) => self.pending_reshards.push(cmd),
            ShardMsg::Adopt(tasks) => {
                let mut keep = Vec::with_capacity(tasks.len());
                for task in tasks {
                    // A buffered orphan departure settles here: the task
                    // departed while its migration was in flight, so its
                    // capacity is simply never adopted.
                    if !self.orphans.remove(&task.task.id) {
                        keep.push(task);
                    }
                }
                if !keep.is_empty() {
                    self.ledger_moved();
                }
                self.controller.adopt(keep);
            }
        }
    }

    /// Resolves one batch — past `batch_max` the tail is shed *by
    /// priority*, not by arrival order — then executes the reshard orders
    /// taken while it was assembled: every request that FIFO-preceded an
    /// order has its verdict first, and any that followed it was admitted
    /// into a controller the extraction re-checks against the new fleet.
    pub(crate) fn round(&mut self, mut batch: Vec<ServiceRequest>, clock: &impl Clock) {
        if batch.len() > self.config.batch_max {
            batch.sort_by(|a, b| {
                b.task.priority.partial_cmp(&a.task.priority).unwrap_or(std::cmp::Ordering::Equal)
            });
            for req in batch.split_off(self.config.batch_max) {
                self.resolve(req.waiter, Outcome::Shed { shard: self.index }, clock);
            }
        }
        if self.solve(batch, clock) {
            self.rounds += 1;
            let snap = self.controller.snapshot();
            let (rbs, compute, memory) = self.peak;
            self.peak = (rbs.max(snap.rbs), compute.max(snap.compute_seconds), memory.max(snap.memory_bytes));
        }
        for cmd in std::mem::take(&mut self.pending_reshards) {
            self.reshard(cmd);
        }
    }

    /// The final report, once the queue has disconnected and drained.
    pub(crate) fn finish(self) -> ShardReport {
        let (peak_rbs, peak_compute, peak_memory) = self.peak;
        ShardReport {
            shard: self.index,
            budgets: self.budgets,
            snapshot: self.controller.snapshot(),
            peak_rbs,
            peak_compute,
            peak_memory,
            rounds: self.rounds,
        }
    }

    /// Applies one reshard order: adopt the order's budget partition,
    /// then evacuate every active task the new fleet routes to another
    /// shard.
    fn reshard(&mut self, cmd: ReshardCmd) {
        self.ledger_moved();
        // Peaks restart against a new partition: a peak recorded under
        // other budgets says nothing about these. A retiree's order
        // carries its current partition, so it keeps its peaks.
        if cmd.budgets != self.budgets {
            self.peak = (0.0, 0.0, 0.0);
        }
        self.budgets = cmd.budgets;
        self.controller.set_budgets(cmd.budgets);
        let shard = self.index;
        let evacuated = self.controller.extract_if(|a| router::shard(a.task.id, cmd.shards) != shard);
        event!(
            Severity::Info,
            "serve.shard",
            "shard {} resharded: {} task(s) evacuated, budgets rescoped",
            shard,
            evacuated.len()
        );
        let _ = cmd.reply.send(evacuated);
    }

    /// Expires, then solves one culled batch; returns whether a solver
    /// round actually ran. Chaos injection is keyed on the 1-based number
    /// this round will get if it runs, and its stall falls between the
    /// expiry check and the solve.
    fn solve(&mut self, batch: Vec<ServiceRequest>, clock: &impl Clock) -> bool {
        if batch.is_empty() {
            return false;
        }
        let now = clock.now();
        let (live, stale): (Vec<_>, Vec<_>) = batch.into_iter().partition(|r| r.deadline > now);
        for req in stale {
            self.resolve(req.waiter, Outcome::Expired { shard: self.index }, clock);
        }
        if live.is_empty() {
            return false;
        }
        if let Some((shard, at_round)) = self.config.chaos.panic_shard_at_round {
            if shard == self.index && at_round == self.rounds + 1 {
                panic!("chaos injection: shard {shard} panics entering solver round {at_round}");
            }
        }
        if !self.config.chaos.slow_solver.is_zero() {
            clock.stall(self.config.chaos.slow_solver);
        }
        self.metrics.peak_batch.raise(live.len() as u64);

        // Plan-cache pass: resolve repeat shapes from memoized plans
        // (re-validated against the live ledger); only the remainder pays
        // for a solver round. With the cache off, this is the identity.
        let cache = self.plan_cache.clone();
        let (to_solve, keys) = match cache.as_deref() {
            Some(cache) => self.cache_pass(cache, live, clock),
            None => (live, Vec::new()),
        };
        if to_solve.is_empty() {
            return true; // every request was answered from cache
        }

        // The task and option list move into the round; only the
        // waiter (and the id its verdict is matched by) stays behind.
        let (requests, waiting): (Vec<AdmissionRequest>, Vec<(TaskId, Waiter)>) = to_solve
            .into_iter()
            .map(|r| {
                let waiting = (r.task.id, r.waiter);
                (AdmissionRequest { task: r.task, options: r.options }, waiting)
            })
            .unzip();
        let solve_start = clock.now();
        match self.controller.submit(requests) {
            Ok(outcome) => {
                let took = clock.now().saturating_duration_since(solve_start);
                self.metrics.round_time.record(took);
                self.metrics.solver_rounds.inc();
                self.metrics.solver_round_us.set(took.as_micros() as u64);
                debug_assert!(outcome.accounts_for(waiting.len()), "round lost a verdict");
                // The round's admits all landed inside `submit`, so the
                // rejections memoized below are against the post-round
                // ledger.
                if !outcome.admitted.is_empty() {
                    self.ledger_moved();
                }
                // Both outcome lists preserve request order, so a single
                // forward scan pairs verdicts with requests even if a
                // caller submitted duplicate task ids in one batch.
                let mut admitted = outcome.admitted.into_iter().zip(outcome.chosen).peekable();
                let mut rejected = outcome.rejected.into_iter().peekable();
                for (i, (id, waiter)) in waiting.into_iter().enumerate() {
                    // `keys` is empty with the cache off.
                    let key = keys.get(i);
                    if admitted.peek().is_some_and(|(a, _)| a.task.id == id) {
                        let (grant, option) = admitted.next().expect("peeked");
                        // Only the unconstrained optimum is worth
                        // memoizing: a full admission's sizing depends on
                        // the shape alone, so a validated replay matches
                        // what a fresh solve would grant. A partial grant
                        // is shaped by the residual headroom at solve
                        // time — replaying it later would hand out a
                        // stale fraction — so it is never cached.
                        if let (Some(cache), Some(key)) = (cache.as_deref(), key) {
                            if grant.admission >= 1.0 - 1e-9 {
                                let plan =
                                    CachedPlan::Admit { option, admission: grant.admission, rbs: grant.rbs };
                                cache.insert(*key, plan, false);
                            }
                        }
                        self.resolve(waiter, self.admitted(&grant), clock);
                    } else {
                        debug_assert!(rejected.peek() == Some(&id), "verdict misaligned");
                        rejected.next();
                        if let Some(key) = key {
                            if self.rejected.len() >= REJECTED_CAP {
                                self.rejected.clear();
                            }
                            self.rejected.insert(key.shape);
                        }
                        self.resolve(waiter, Outcome::Rejected { shard: self.index }, clock);
                    }
                }
            }
            Err(e) => {
                // A malformed round (e.g. an option naming an unknown
                // block) admits nothing; every caller still gets a
                // verdict. Solver errors are not memoized as rejections.
                self.metrics.solver_errors.inc();
                event!(Severity::Warn, "serve.shard", "shard {} solver round failed: {e}", self.index);
                for (_, waiter) in waiting {
                    self.resolve(waiter, Outcome::Rejected { shard: self.index }, clock);
                }
            }
        }
        true
    }

    /// Splits `live` into cache-resolved requests (answered in place) and
    /// the remainder that needs a solver round, returned with the cache
    /// key of each (aligned by index). A shape this shard's solver refused
    /// since the ledger last moved is rejected again; a memoized admit
    /// plan is re-validated against the live ledger and activates exactly
    /// as a cold solve would, or is dropped and solved fresh.
    fn cache_pass(
        &mut self,
        cache: &PlanCache<CachedPlan>,
        live: Vec<ServiceRequest>,
        clock: &impl Clock,
    ) -> (Vec<ServiceRequest>, Vec<PlanKey>) {
        let generation = self.metrics.generation.get();
        let bucket = budget_bucket(&self.controller.snapshot().headroom, &self.budgets);
        let mut to_solve = Vec::new();
        let mut keys = Vec::new();
        for req in live {
            let key = PlanKey { shape: shape_fingerprint(&req.task, &req.options), bucket, generation };
            if self.rejected.contains(&key.shape) {
                cache.note_negative_hit();
                self.resolve(req.waiter, Outcome::Rejected { shard: self.index }, clock);
                continue;
            }
            if let Some(cached) = cache.lookup(&key) {
                let CachedPlan::Admit { option, admission, rbs } = cached.value;
                match self.controller.try_apply_plan(&req.task, &req.options, option, admission, rbs) {
                    Some(grant) => {
                        self.ledger_moved();
                        self.resolve(req.waiter, self.admitted(&grant), clock);
                        continue;
                    }
                    None => cache.note_validation_failure(&key),
                }
            }
            to_solve.push(req);
            keys.push(key);
        }
        (to_solve, keys)
    }

    /// Every ledger mutation (admit, departure, adoption, reshard) goes
    /// through here: capacity may have been freed or taken, so no
    /// memoized rejection can be replayed verbatim any more.
    fn ledger_moved(&mut self) {
        self.rejected.clear();
    }

    /// The verdict for an admission granted on this shard.
    fn admitted(&self, grant: &ActiveTask) -> Outcome {
        Outcome::Admitted { admission: grant.admission, rbs: grant.rbs, shard: self.index }
    }

    /// Delivers a verdict: books it with its submit-to-verdict latency
    /// and answers the ticket (a dropped ticket is fine — the verdict is
    /// still accounted).
    fn resolve(&self, waiter: Waiter, outcome: Outcome, clock: &impl Clock) {
        self.metrics.book(&outcome, clock.now().saturating_duration_since(waiter.enqueued_at));
        waiter.responder.send(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChaosConfig;
    use crate::mailbox::{mailbox, Mailbox};
    use crate::router::partition_budgets;
    use crate::service::WallClock;
    use crossbeam::channel;
    use offloadnn_core::scenario::small_scenario;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Far beyond any test's clock movement.
    const DUE: Duration = Duration::from_secs(5);

    /// A clock that moves only when the engine stalls on it or a test
    /// advances it.
    struct FakeClock(Cell<Instant>);

    impl FakeClock {
        /// Starts at an arbitrary instant; only the driver's clock mints one.
        fn new() -> Self {
            Self(Cell::new(WallClock.now()))
        }

        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.0.get()
        }

        fn stall(&self, d: Duration) {
            self.advance(d);
        }
    }

    /// The verdict the engine has already put in `verdict`.
    fn answered(verdict: &Mailbox<Outcome>) -> Outcome {
        verdict.take(Some(Duration::ZERO)).expect("answered").expect("resolved")
    }

    fn shard(s: &DotInstance, index: usize, budgets: Budgets, config: ServiceConfig) -> Shard {
        Shard::new(index, budgets, s, config, Arc::new(ServiceMetrics::new()), None)
    }

    /// Request `id` (task prototype `id % 5`) at `priority`, due `due`
    /// after `clock.now()`, and the receiver its verdict arrives on.
    fn request(
        s: &DotInstance,
        id: u32,
        priority: f64,
        due: Duration,
        clock: &FakeClock,
    ) -> (ServiceRequest, Mailbox<Outcome>) {
        let proto = id as usize % s.tasks.len();
        let mut task = s.tasks[proto].clone();
        task.id = TaskId(id);
        task.priority = priority;
        let (responder, verdict) = mailbox();
        let now = clock.now();
        let waiter = Waiter { enqueued_at: now, responder };
        (ServiceRequest { task, options: s.options[proto].clone(), deadline: now + due, waiter }, verdict)
    }

    #[test]
    fn overload_keeps_the_top_priorities_and_sheds_the_rest() {
        let s = small_scenario(5).instance;
        let clock = FakeClock::new();
        let mut shard = shard(&s, 0, s.budgets, ServiceConfig { batch_max: 2, ..ServiceConfig::default() });
        // Arrival order is not priority order.
        let priorities = [0.3, 0.9, 0.1, 0.7, 0.5];
        let (batch, verdicts): (Vec<_>, Vec<_>) =
            priorities.iter().enumerate().map(|(id, &p)| request(&s, id as u32, p, DUE, &clock)).unzip();
        shard.round(batch, &clock);
        let shed: Vec<f64> = priorities
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| matches!(answered(v), Outcome::Shed { shard: 0 }))
            .map(|(&p, _)| p)
            .collect();
        assert_eq!(shed, [0.3, 0.1, 0.5], "the two highest priorities reach the solver");
        assert_eq!(shard.metrics.shed.get(), 3);
        assert_eq!(shard.rounds, 1);
    }

    #[test]
    fn a_reshard_taken_mid_batch_runs_after_its_verdicts_and_evacuates_remapped_keys() {
        let s = small_scenario(5).instance;
        let clock = FakeClock::new();
        let mut shard = shard(&s, 0, s.budgets, ServiceConfig::default());
        let stays = (100..).filter(|&id| router::shard(TaskId(id), 3) == 0).take(3);
        let leaves = (100..).filter(|&id| router::shard(TaskId(id), 3) != 0).take(3);
        let ids: Vec<u32> = stays.zip(leaves).flat_map(|(a, b)| [a, b]).collect();
        let (mut msgs, verdicts): (Vec<_>, Vec<_>) = ids
            .iter()
            .map(|&id| {
                let (req, verdict) = request(&s, id, 0.5, DUE, &clock);
                (ShardMsg::Request(req), verdict)
            })
            .unzip();
        // The order arrives mid-batch: one staying and one leaving key follow it.
        let budgets = partition_budgets(s.budgets, 3)[0];
        let (reply, evacuated) = channel::bounded(1);
        msgs.insert(4, ShardMsg::Reshard(ReshardCmd { shards: 3, budgets, reply }));
        let mut batch = Vec::new();
        for msg in msgs {
            shard.take(msg, &mut batch);
        }
        assert!(evacuated.try_recv().is_err(), "the order waits for the round");
        shard.round(batch, &clock);

        let admitted: Vec<TaskId> = ids
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| answered(v).is_admitted())
            .map(|(&id, _)| TaskId(id))
            .collect();
        assert_eq!(admitted.len(), ids.len(), "the full budget admits all six");
        let moved: HashSet<TaskId> =
            evacuated.try_recv().expect("answered").iter().map(|a| a.task.id).collect();
        let remapped: HashSet<TaskId> =
            admitted.iter().copied().filter(|&id| router::shard(id, 3) != 0).collect();
        assert_eq!(moved, remapped, "exactly the keys the new fleet routes away");
        assert!(
            moved.contains(&TaskId(ids[5])),
            "a request taken after the order is decided, then handed off"
        );
        assert_eq!(shard.controller.snapshot().active_tasks, admitted.len() - moved.len());
        assert_eq!(shard.budgets, budgets);
        assert_eq!(shard.peak, (0.0, 0.0, 0.0), "a new partition restarts the peaks");
    }

    #[test]
    fn a_retiree_hands_back_everything_and_keeps_its_peaks() {
        let s = small_scenario(5).instance;
        let clock = FakeClock::new();
        let partition = partition_budgets(s.budgets, 2)[1];
        let mut shard = shard(&s, 1, partition, ServiceConfig::default());
        let (batch, verdicts): (Vec<_>, Vec<_>) = (0..3).map(|id| request(&s, id, 0.5, DUE, &clock)).unzip();
        shard.round(batch, &clock);
        let admitted = verdicts.iter().filter(|v| answered(v).is_admitted()).count();
        assert!(admitted > 0);
        let peak = shard.peak;
        assert!(peak.0 > 0.0 && peak.1 > 0.0 && peak.2 > 0.0);

        // A one-shard fleet routes no key to shard 1; the order carries
        // the retiree's current partition.
        let (reply, evacuated) = channel::bounded(1);
        let order = ReshardCmd { shards: 1, budgets: partition, reply };
        shard.take(ShardMsg::Reshard(order), &mut Vec::new());
        shard.round(Vec::new(), &clock);
        assert_eq!(evacuated.try_recv().expect("answered").len(), admitted);
        let report = shard.finish();
        assert_eq!(report.snapshot.active_tasks, 0);
        assert_eq!((report.peak_rbs, report.peak_compute, report.peak_memory), peak);
        assert_eq!((report.budgets, report.rounds), (partition, 1));
        assert!(report.within_budgets());
    }

    #[test]
    fn a_departure_that_outruns_its_adoption_drops_the_task() {
        let s = small_scenario(5).instance;
        let mut shard = shard(&s, 0, s.budgets, ServiceConfig::default());
        // Two admitted tasks, as another shard's evacuation hands them over.
        let mut donor = Controller::new(&s, OffloadnnSolver::new());
        let requests =
            (0..2).map(|i| AdmissionRequest { task: s.tasks[i].clone(), options: s.options[i].clone() });
        donor.submit(requests.collect()).expect("well-formed round");
        let migrating = donor.extract_if(|_| true);
        let ids: Vec<TaskId> = migrating.iter().map(|a| a.task.id).collect();
        assert_eq!(ids.len(), 2);

        shard.take(ShardMsg::Depart(ids[0]), &mut Vec::new());
        assert!(shard.orphans.contains(&ids[0]), "an unmatched departure is buffered");
        assert_eq!(shard.metrics.departed.get(), 1);
        shard.take(ShardMsg::Adopt(migrating), &mut Vec::new());
        assert!(shard.orphans.is_empty(), "the adoption settles the orphan");
        let active: Vec<TaskId> = shard.controller.active().iter().map(|a| a.task.id).collect();
        assert_eq!(active, [ids[1]], "the departed task's capacity is never adopted");
    }

    #[test]
    fn the_slow_solver_stall_falls_between_expiry_and_the_solve() {
        let s = small_scenario(5).instance;
        let clock = FakeClock::new();
        let stall = Duration::from_millis(50);
        let chaos = ChaosConfig { slow_solver: stall, ..ChaosConfig::default() };
        let mut shard = shard(&s, 0, s.budgets, ServiceConfig { chaos, ..ServiceConfig::default() });
        let start = clock.now();

        // Due inside the stall: live at the expiry check, so still solved.
        let (req, verdict) = request(&s, 1, 0.5, stall / 5, &clock);
        shard.round(vec![req], &clock);
        assert!(answered(&verdict).is_admitted());
        assert_eq!(clock.now() - start, stall);
        assert_eq!(shard.metrics.latency.snapshot().sum_us, 50_000, "the stall is part of the latency");

        // Past due before the round: expired, and a round with nothing
        // left to solve does not stall.
        let (req, verdict) = request(&s, 2, 0.5, stall / 5, &clock);
        clock.advance(stall / 2);
        shard.round(vec![req], &clock);
        assert_eq!(answered(&verdict), Outcome::Expired { shard: 0 });
        assert_eq!(clock.now() - start, stall + stall / 2);
    }

    #[test]
    fn the_chaos_panic_fires_on_exactly_its_round() {
        let s = small_scenario(5).instance;
        let clock = FakeClock::new();
        let chaos = ChaosConfig { panic_shard_at_round: Some((0, 2)), ..ChaosConfig::default() };
        let mut shard = shard(&s, 0, s.budgets, ServiceConfig { chaos, ..ServiceConfig::default() });
        let mut panics = |id: u32, due: Duration| {
            let (req, _verdict) = request(&s, id, 0.5, due, &clock);
            catch_unwind(AssertUnwindSafe(|| shard.round(vec![req], &clock))).is_err()
        };
        assert!(!panics(1, DUE), "round 1 runs");
        assert!(!panics(2, Duration::ZERO), "an all-expired batch runs no solver round");
        assert!(panics(3, DUE), "round 2 panics");
    }
}
