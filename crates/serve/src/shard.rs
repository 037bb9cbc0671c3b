//! The per-shard worker: batch assembly, expiry, priority shedding,
//! the plan-cache pass (shared positive plans re-validated on hit, plus
//! this shard's own rejection memo), solver rounds, departure handling
//! and reshard handoffs around one `Controller`.

use crate::config::ServiceConfig;
use crate::metrics::ServiceMetrics;
use crate::service::{Outcome, ReshardCmd, ServiceRequest, ShardMsg, Waiter};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use offloadnn_core::controller::{ActiveTask, AdmissionRequest, Controller, ControllerSnapshot};
use offloadnn_core::instance::Budgets;
use offloadnn_core::task::TaskId;
use offloadnn_plancache::{
    budget_bucket, shape_fingerprint, CachedPlan, PlanCache, PlanKey, ShapeFingerprint,
};
use offloadnn_telemetry::{event, span, Severity};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on buffered orphan departures (departure notices that
/// arrived before the migration handing us the task). Reconciliation
/// removes entries, so in a healthy fleet the set stays tiny; the cap
/// only bounds memory against a caller departing ids that never existed.
const ORPHAN_CAP: usize = 65_536;

/// Upper bound on memoized rejections per shard. A stream of fresh
/// rejected shapes on an unmoving ledger would otherwise grow the memo
/// without limit; a full memo is simply cleared (its shapes re-solve).
const REJECTED_CAP: usize = 4096;

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

/// What a worker thread yields on exit: its report plus whatever tasks
/// were still active, so a scale-down can migrate them to the surviving
/// shards instead of leaking their capacity.
pub(crate) struct ShardExit {
    pub report: ShardReport,
    pub active: Vec<ActiveTask>,
}

/// One shard's worker state; consumed by [`ShardWorker::run`] on its own
/// thread.
pub(crate) struct ShardWorker {
    pub shard: usize,
    pub rx: Receiver<ShardMsg>,
    pub controller: Controller,
    pub budgets: Budgets,
    pub config: ServiceConfig,
    pub metrics: Arc<ServiceMetrics>,
    /// Service-wide plan cache shared by every shard worker; `None` keeps
    /// the cold-solve path exactly as before.
    pub plan_cache: Option<Arc<PlanCache<CachedPlan>>>,
    /// Shapes the solver refused since this shard's ledger last moved. A
    /// rejection depends on the whole ledger, so there is nothing to
    /// re-validate: it replays only while the ledger is literally
    /// unchanged (see [`ShardWorker::ledger_moved`]) — the negative-path
    /// counterpart of `Controller::try_apply_plan` re-validation. Stays
    /// empty with the plan cache off.
    pub rejected: HashSet<ShapeFingerprint>,
    /// Departures that outran their task's migration: a departure routed
    /// here before the matching `Adopt` arrived. Reconciled on adoption.
    pub orphans: HashSet<TaskId>,
    /// Reshard orders received mid-batch; executed after the current
    /// round so every pre-swap request resolves before the handoff.
    pub pending_reshards: Vec<ReshardCmd>,
}

impl ShardWorker {
    /// The worker loop: blocks for the first message of a round, fills a
    /// batch within the batching window, sheds overload priority-first,
    /// expires stale requests and resolves the rest through the
    /// controller. Reshard orders execute between rounds. Exits —
    /// returning the final report and any still-active tasks — once every
    /// sender is gone and the queue is empty, so draining never strands a
    /// request.
    pub(crate) fn run(mut self) -> ShardExit {
        let mut peak = (0.0f64, 0.0f64, 0.0f64);
        let mut rounds = 0u64;
        loop {
            let first = match self.rx.recv() {
                Ok(msg) => msg,
                Err(_) => break, // disconnected and fully drained
            };
            let batch_span = span!("serve.batch");
            let mut batch: Vec<ServiceRequest> = Vec::new();
            self.handle(first, &mut batch);

            // Fill the batch until it is full, the window closes, or the
            // service disconnects (drain): whatever is assembled still
            // gets resolved below.
            let window_ends = Instant::now() + self.config.batch_window;
            while batch.len() < self.config.batch_max {
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                match self.rx.recv_timeout(window_ends - now) {
                    Ok(msg) => self.handle(msg, &mut batch),
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }

            self.metrics.peak_queue_depth.raise(self.rx.len() as u64);

            // Overload: past the watermark, pull the whole backlog and
            // keep only the highest-priority `batch_max`; the tail is
            // shed *by priority*, not by arrival order.
            if self.rx.len() >= self.config.shed_watermark {
                event!(
                    Severity::Warn,
                    "serve.shard",
                    "shard {} backlog {} past watermark {}: shedding priority-first",
                    self.shard,
                    self.rx.len(),
                    self.config.shed_watermark
                );
                for msg in self.rx.drain() {
                    self.handle(msg, &mut batch);
                }
                if batch.len() > self.config.batch_max {
                    batch.sort_by(|a, b| {
                        b.task.priority.partial_cmp(&a.task.priority).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    for req in batch.split_off(self.config.batch_max) {
                        self.resolve(&req.waiter, Outcome::Shed { shard: self.shard });
                    }
                }
            }
            batch_span.finish();

            if self.round(batch, rounds + 1) {
                rounds += 1;
                let snap = self.controller.snapshot();
                peak.0 = peak.0.max(snap.rbs);
                peak.1 = peak.1.max(snap.compute_seconds);
                peak.2 = peak.2.max(snap.memory_bytes);
            }

            // Execute reshard orders only after the round: every request
            // that FIFO-preceded the order has its verdict, and any that
            // followed it (same batch) was admitted into a controller the
            // extraction below immediately re-checks against the new
            // ring.
            for cmd in std::mem::take(&mut self.pending_reshards) {
                self.execute_reshard(cmd, &mut peak);
            }
        }
        let report = ShardReport {
            shard: self.shard,
            budgets: self.budgets,
            snapshot: self.controller.snapshot(),
            peak_rbs: peak.0,
            peak_compute: peak.1,
            peak_memory: peak.2,
            rounds,
        };
        ShardExit { report, active: self.controller.take_active() }
    }

    fn handle(&mut self, msg: ShardMsg, batch: &mut Vec<ServiceRequest>) {
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

    /// Applies one reshard order: adopt the new budget partition, then
    /// evacuate every active task the new ring maps to another shard.
    fn execute_reshard(&mut self, cmd: ReshardCmd, peak: &mut (f64, f64, f64)) {
        self.ledger_moved();
        self.budgets = cmd.budgets;
        self.controller.set_budgets(cmd.budgets);
        let shard = self.shard;
        let evacuated = self.controller.extract_if(|a| cmd.router.route(a.task.id) != shard);
        // Peaks restart against the new partition: a peak recorded under
        // the previous budgets says nothing about the new ones.
        *peak = (0.0, 0.0, 0.0);
        event!(
            Severity::Info,
            "serve.shard",
            "shard {} resharded: {} task(s) evacuated, budgets rescoped",
            shard,
            evacuated.len()
        );
        let _ = cmd.reply.send(evacuated);
    }

    /// Resolves one batch; returns whether a solver round actually ran.
    /// `round_no` is the 1-based number this round will get if it runs
    /// (chaos injection is keyed on it).
    fn round(&mut self, batch: Vec<ServiceRequest>, round_no: u64) -> bool {
        if batch.is_empty() {
            return false;
        }
        let now = Instant::now();
        let (live, stale): (Vec<_>, Vec<_>) = batch.into_iter().partition(|r| r.deadline > now);
        for req in stale {
            self.resolve(&req.waiter, Outcome::Expired { shard: self.shard });
        }
        if live.is_empty() {
            return false;
        }
        if let Some((shard, at_round)) = self.config.chaos.panic_shard_at_round {
            if shard == self.shard && at_round == round_no {
                panic!("chaos injection: shard {shard} panics entering solver round {at_round}");
            }
        }
        if !self.config.chaos.slow_solver.is_zero() {
            std::thread::sleep(self.config.chaos.slow_solver);
        }
        self.metrics.peak_batch.raise(live.len() as u64);

        // Plan-cache pass: resolve repeat shapes from memoized plans
        // (re-validated against the live ledger); only the remainder pays
        // for a solver round. With the cache off, this is the identity.
        let cache = self.plan_cache.clone();
        let (to_solve, keys) = match cache.as_deref() {
            Some(cache) => self.cache_pass(cache, live),
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
        let solve_start = Instant::now();
        match self.controller.submit(requests) {
            Ok(outcome) => {
                let elapsed = solve_start.elapsed();
                self.metrics.round_time.record(elapsed);
                self.metrics.solver_rounds.inc();
                self.metrics.solver_round_us.set(elapsed.as_micros() as u64);
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
                        self.resolve(
                            &waiter,
                            Outcome::Admitted {
                                admission: grant.admission,
                                rbs: grant.rbs,
                                shard: self.shard,
                            },
                        );
                    } else {
                        debug_assert!(rejected.peek() == Some(&id), "verdict misaligned");
                        rejected.next();
                        if let Some(key) = key {
                            if self.rejected.len() >= REJECTED_CAP {
                                self.rejected.clear();
                            }
                            self.rejected.insert(key.shape);
                        }
                        self.resolve(&waiter, Outcome::Rejected { shard: self.shard });
                    }
                }
            }
            Err(e) => {
                // A malformed round (e.g. an option naming an unknown
                // block) admits nothing; every caller still gets a
                // verdict. Solver errors are not memoized as rejections.
                self.metrics.solver_errors.inc();
                event!(Severity::Warn, "serve.shard", "shard {} solver round failed: {e}", self.shard);
                for (_, waiter) in &waiting {
                    self.resolve(waiter, Outcome::Rejected { shard: self.shard });
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
    ) -> (Vec<ServiceRequest>, Vec<PlanKey>) {
        let generation = self.metrics.generation.get();
        let bucket = budget_bucket(&self.controller.snapshot().headroom, &self.budgets);
        let mut to_solve = Vec::new();
        let mut keys = Vec::new();
        for req in live {
            let key = PlanKey { shape: shape_fingerprint(&req.task, &req.options), bucket, generation };
            if self.rejected.contains(&key.shape) {
                cache.note_negative_hit();
                self.resolve(&req.waiter, Outcome::Rejected { shard: self.shard });
                continue;
            }
            if let Some(cached) = cache.lookup(&key) {
                let CachedPlan::Admit { option, admission, rbs } = cached.value;
                match self.controller.try_apply_plan(&req.task, &req.options, option, admission, rbs) {
                    Some(grant) => {
                        self.ledger_moved();
                        self.resolve(
                            &req.waiter,
                            Outcome::Admitted {
                                admission: grant.admission,
                                rbs: grant.rbs,
                                shard: self.shard,
                            },
                        );
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

    /// Delivers a verdict: bumps the matching counter, records latency
    /// and answers the ticket (a dropped ticket is fine — the verdict is
    /// still accounted).
    fn resolve(&self, waiter: &Waiter, outcome: Outcome) {
        let counter = match outcome {
            Outcome::Admitted { .. } => &self.metrics.admitted,
            Outcome::Rejected { .. } => &self.metrics.rejected,
            Outcome::Shed { .. } => &self.metrics.shed,
            Outcome::Expired { .. } => &self.metrics.expired,
        };
        counter.inc();
        self.metrics.latency.record(waiter.enqueued_at.elapsed());
        let _ = waiter.responder.try_send(outcome);
    }
}
