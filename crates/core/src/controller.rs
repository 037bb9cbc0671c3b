//! The OffloaDNN controller of Fig. 4, run *over time*: mobile devices
//! submit task admission requests (step 1), the controller solves DOT
//! against the current residual capacity (steps 2–3), allocates slices and
//! deploys the selected blocks (steps 4–5), notifies admitted rates
//! (step 6) — and, beyond the paper's one-shot formulation, handles later
//! rounds of arrivals and departures through the incremental extension of
//! Sec. III-B.

use crate::error::DotError;
use crate::heuristic::OffloadnnSolver;
use crate::incremental::DeployedState;
use crate::instance::{Budgets, DotInstance, PathOption};
use crate::objective::verify;
use crate::task::{Task, TaskId};
use offloadnn_dnn::block::BlockId;
use offloadnn_radio::RateModel;
use serde::{Deserialize, Serialize};

/// One admission request: a task plus its candidate path options (the DNN
/// availability of step 2, already profiled).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRequest {
    /// The requested task.
    pub task: Task,
    /// Candidate (path, quality) options for it.
    pub options: Vec<PathOption>,
}

/// A task currently served by the edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActiveTask {
    /// The task definition.
    pub task: Task,
    /// The deployed option.
    pub option: PathOption,
    /// Granted admission ratio.
    pub admission: f64,
    /// Granted RB allocation (real-valued; ceil for the physical slice).
    pub rbs: f64,
}

impl ActiveTask {
    /// Admission-weighted RB usage of this task.
    pub fn radio_usage(&self) -> f64 {
        self.admission * self.rbs
    }

    /// Compute usage of this task in GPU-s/s.
    pub fn compute_usage(&self) -> f64 {
        self.admission * self.task.request_rate * self.option.proc_seconds
    }
}

/// Outcome of one admission round.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// Tasks admitted this round, with their grants.
    pub admitted: Vec<ActiveTask>,
    /// Index of each grant's option in its request's option list, aligned
    /// with `admitted` (so callers need not search the list for it).
    pub chosen: Vec<usize>,
    /// Tasks rejected this round.
    pub rejected: Vec<TaskId>,
}

impl AdmissionOutcome {
    /// Total number of requests this outcome decides.
    pub fn total(&self) -> usize {
        self.admitted.len() + self.rejected.len()
    }

    /// Conservation check: every one of `submitted` requests received
    /// exactly one verdict. Service runtimes assert this after each round
    /// so no request is ever silently dropped.
    pub fn accounts_for(&self, submitted: usize) -> bool {
        self.total() == submitted
    }
}

/// A cheap, single-pass summary of a [`Controller`]'s state, for hot
/// paths that previously had to clone [`Controller::active`] or
/// materialise [`Controller::deployed`] (which allocates a block set)
/// just to read a few aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// Number of tasks currently served.
    pub active_tasks: usize,
    /// Number of distinct blocks resident at the edge.
    pub deployed_blocks: usize,
    /// Memory those blocks occupy (bytes).
    pub memory_bytes: f64,
    /// Inference compute consumed by running tasks (GPU-s/s).
    pub compute_seconds: f64,
    /// Admission-weighted RBs consumed by running tasks.
    pub rbs: f64,
    /// Remaining capacity after the above consumption.
    pub headroom: Budgets,
}

/// The block ledger: how many active paths hold each block, and the
/// residual cost tables a newcomer is solved against. Invariant:
/// `refs[b]` equals the number of active paths containing `b`, and the
/// residual tables are zero exactly where `refs[b] > 0` (a resident block
/// is free to share) and equal to the platform tables everywhere else.
#[derive(Debug, Clone)]
struct BlockLedger {
    refs: Vec<u32>,
    memory: Vec<f64>,
    training: Vec<f64>,
}

impl BlockLedger {
    /// A path starts holding `blocks`; first holders make them free.
    fn acquire(&mut self, blocks: &[BlockId]) {
        for b in blocks {
            let b = b.0 as usize;
            self.refs[b] += 1;
            self.memory[b] = 0.0;
            self.training[b] = 0.0;
        }
    }

    /// A path stops holding `blocks`; last holders restore their cost
    /// from the platform tables.
    fn release(&mut self, blocks: &[BlockId], memory: &[f64], training: &[f64]) {
        for b in blocks {
            let b = b.0 as usize;
            self.refs[b] -= 1;
            if self.refs[b] == 0 {
                self.memory[b] = memory[b];
                self.training[b] = training[b];
            }
        }
    }
}

/// The long-running controller state.
#[derive(Debug, Clone)]
pub struct Controller {
    /// Full platform budgets (not residual).
    budgets: Budgets,
    rate: RateModel,
    alpha: f64,
    block_memory: Vec<f64>,
    block_training: Vec<f64>,
    ledger: BlockLedger,
    solver: OffloadnnSolver,
    active: Vec<ActiveTask>,
}

impl Controller {
    /// Creates a controller from a template instance (which supplies the
    /// budgets, the rate model and the per-block cost tables — the
    /// VIM/vRAN state of step 2).
    pub fn new(template: &DotInstance, solver: OffloadnnSolver) -> Self {
        Self {
            budgets: template.budgets,
            rate: template.rate,
            alpha: template.alpha,
            block_memory: template.block_memory.clone(),
            block_training: template.block_training.clone(),
            ledger: BlockLedger {
                refs: vec![0; template.block_memory.len()],
                memory: template.block_memory.clone(),
                training: template.block_training.clone(),
            },
            solver,
            active: Vec::new(),
        }
    }

    /// Tasks currently served.
    pub fn active(&self) -> &[ActiveTask] {
        &self.active
    }

    /// Per-block reference counts, indexed by [`BlockId`]: how many
    /// active paths hold each block (0 = not resident).
    pub fn block_refs(&self) -> &[u32] {
        &self.ledger.refs
    }

    /// The blocks currently resident at the edge and the resources the
    /// running tasks consume.
    pub fn deployed(&self) -> DeployedState {
        let snap = self.snapshot();
        let resident = self.ledger.refs.iter().enumerate().filter(|(_, &r)| r > 0);
        DeployedState {
            blocks: resident.map(|(b, _)| BlockId(b as u32)).collect(),
            memory_bytes: snap.memory_bytes,
            compute_seconds: snap.compute_seconds,
            rbs: snap.rbs,
        }
    }

    /// State summary without handing out the block set or the
    /// active-task list: one pass over the active tasks and one over the
    /// block ledger, no allocation. The float sums are accumulated afresh
    /// in a fixed order (active order, then block-id order), never kept
    /// as running totals, so they cannot drift.
    pub fn snapshot(&self) -> ControllerSnapshot {
        let (mut compute, mut rbs) = (0.0, 0.0);
        for a in &self.active {
            compute += a.compute_usage();
            rbs += a.radio_usage();
        }
        let (mut deployed_blocks, mut memory_bytes) = (0, 0.0);
        for (&refs, &memory) in self.ledger.refs.iter().zip(&self.block_memory) {
            if refs > 0 {
                deployed_blocks += 1;
                memory_bytes += memory;
            }
        }
        ControllerSnapshot {
            active_tasks: self.active.len(),
            deployed_blocks,
            memory_bytes,
            compute_seconds: compute,
            rbs,
            headroom: Budgets {
                rbs: (self.budgets.rbs - rbs).max(0.0),
                compute_seconds: (self.budgets.compute_seconds - compute).max(0.0),
                training_seconds: self.budgets.training_seconds,
                memory_bytes: (self.budgets.memory_bytes - memory_bytes).max(0.0),
            },
        }
    }

    /// Processes one round of admission requests against the residual
    /// capacity. Already-deployed blocks are free for the newcomers.
    ///
    /// The requests are consumed: their tasks and option lists move into
    /// the residual instance the solver reads, and each chosen option
    /// moves on into its [`ActiveTask`] — nothing is deep-copied. The
    /// residual instance equals
    /// [`residual_instance`](crate::incremental::residual_instance) of
    /// the requests over [`Controller::deployed`].
    ///
    /// # Errors
    ///
    /// Returns a [`DotError`] if the assembled instance is malformed, and
    /// panics never: an infeasible round admits nothing.
    pub fn submit(&mut self, requests: Vec<AdmissionRequest>) -> Result<AdmissionOutcome, DotError> {
        let _round = offloadnn_telemetry::span!("solver.round");
        let headroom = self.snapshot().headroom;
        let (tasks, options) = requests.into_iter().map(|r| (r.task, r.options)).unzip();
        // The ledger lends its residual tables to the instance for the
        // duration of the solve and takes them back right after.
        let residual = DotInstance {
            tasks,
            options,
            block_memory: std::mem::take(&mut self.ledger.memory),
            block_training: std::mem::take(&mut self.ledger.training),
            rate: self.rate,
            // An exhausted budget stays positive so the instance validates.
            budgets: Budgets {
                rbs: headroom.rbs.max(f64::MIN_POSITIVE),
                compute_seconds: headroom.compute_seconds.max(f64::MIN_POSITIVE),
                memory_bytes: headroom.memory_bytes.max(f64::MIN_POSITIVE),
                ..headroom
            },
            alpha: self.alpha,
        };
        let solved = self.solver.solve(&residual);
        if let Ok(sol) = &solved {
            debug_assert!(verify(&residual, sol).is_empty());
        }
        let DotInstance { tasks, options, block_memory, block_training, .. } = residual;
        self.ledger.memory = block_memory;
        self.ledger.training = block_training;
        let sol = solved?;

        let mut outcome = AdmissionOutcome { admitted: Vec::new(), chosen: Vec::new(), rejected: Vec::new() };
        for (i, (task, mut options)) in tasks.into_iter().zip(options).enumerate() {
            match sol.choices[i] {
                Some(o) if sol.admission[i] > 0.0 => {
                    let option = options.swap_remove(o);
                    self.ledger.acquire(&option.path.blocks);
                    let active = ActiveTask { option, task, admission: sol.admission[i], rbs: sol.rbs[i] };
                    self.active.push(active.clone());
                    outcome.admitted.push(active);
                    outcome.chosen.push(o);
                }
                _ => outcome.rejected.push(task.id),
            }
        }
        Ok(outcome)
    }

    /// Attempts to admit `task` by re-validating a previously solved plan
    /// (`options[option]` at admission fraction `admission` with `rbs`
    /// radio blocks) against the *live* ledger, instead of running the
    /// solver. This is the validation-on-hit half of the plan cache: the
    /// cached plan is only a proposal, and every constraint the verifier
    /// checks for a fresh solve — accuracy (1f), rate support (1e),
    /// latency (1g) and the three budget caps with block sharing — is
    /// re-checked here against the current deployment before any budget
    /// moves.
    ///
    /// On success the task is activated exactly as [`Controller::submit`]
    /// would have activated it (same `ActiveTask`, same budget deltas) and
    /// the grant is returned. On any failed check the controller is left
    /// untouched and `None` is returned; the caller falls through to a
    /// full solve. Task and options are only borrowed; the task and the
    /// one chosen option are copied on success alone.
    pub fn try_apply_plan(
        &mut self,
        task: &Task,
        options: &[PathOption],
        option: usize,
        admission: f64,
        rbs: f64,
    ) -> Option<ActiveTask> {
        let tol = crate::objective::TOLERANCE;
        let opt = options.get(option)?;
        // Malformed plans (stale across catalog changes) must not panic.
        if opt.path.blocks.iter().any(|b| (b.0 as usize) >= self.ledger.refs.len()) {
            return None;
        }
        if !(admission > 0.0 && admission <= 1.0 + tol && rbs.is_finite()) || rbs < 0.0 {
            return None;
        }
        // (1f) accuracy.
        if opt.accuracy < task.min_accuracy - tol {
            return None;
        }
        let bits_per_rb = self.rate.bits_per_rb(task.snr);
        // (1e) rate support: z * lambda * beta <= B * r.
        if admission * task.request_rate * opt.quality.bits > bits_per_rb * rbs * (1.0 + 1e-6) {
            return None;
        }
        // (1g) latency: beta/(B r) + P <= L.
        let latency = opt.quality.bits / (bits_per_rb * rbs.max(f64::MIN_POSITIVE)) + opt.proc_seconds;
        if latency > task.max_latency * (1.0 + 1e-6) {
            return None;
        }
        // Budget caps against the live deployment, counting shared blocks
        // once — exactly how `verify` scores a fresh solution.
        let used = self.snapshot();
        if used.rbs + admission * rbs > self.budgets.rbs * (1.0 + tol) {
            return None;
        }
        let compute = admission * task.request_rate * opt.proc_seconds;
        if used.compute_seconds + compute > self.budgets.compute_seconds * (1.0 + tol) {
            return None;
        }
        // Resident blocks read zero in the residual table.
        let new_memory: f64 = opt.path.blocks.iter().map(|b| self.ledger.memory[b.0 as usize]).sum();
        if used.memory_bytes + new_memory > self.budgets.memory_bytes * (1.0 + tol) {
            return None;
        }
        self.ledger.acquire(&opt.path.blocks);
        let active = ActiveTask { option: opt.clone(), task: Task::clone(task), admission, rbs };
        self.active.push(active.clone());
        Some(active)
    }

    /// Removes departed tasks; their exclusive resources are freed (blocks
    /// still used by other tasks stay resident). Returns how many active
    /// tasks were actually removed, so callers can tell a real release
    /// from a departure for a task this controller never held (which a
    /// resharding service runtime needs to detect and buffer).
    pub fn release(&mut self, departed: &[TaskId]) -> usize {
        let before = self.active.len();
        let (ledger, memory, training) = (&mut self.ledger, &self.block_memory, &self.block_training);
        self.active.retain(|a| {
            let gone = departed.contains(&a.task.id);
            if gone {
                ledger.release(&a.option.path.blocks, memory, training);
            }
            !gone
        });
        before - self.active.len()
    }

    /// Replaces the full platform budgets (an elastic-scaling repartition:
    /// the shard's slice of the edge changed size). Already-active tasks
    /// keep their grants; only *future* rounds solve against the new
    /// capacity, so a shrink can leave the controller transiently above
    /// budget until tasks depart.
    pub fn set_budgets(&mut self, budgets: Budgets) {
        self.budgets = budgets;
    }

    /// Adopts tasks admitted by another controller (keyspace handoff
    /// during resharding). Their grants are preserved verbatim; they
    /// consume residual capacity here exactly as if this controller had
    /// admitted them.
    pub fn adopt(&mut self, tasks: Vec<ActiveTask>) {
        for task in &tasks {
            self.ledger.acquire(&task.option.path.blocks);
        }
        self.active.extend(tasks);
    }

    /// Extracts and returns every active task matching `predicate`,
    /// removing it from this controller (the outbound half of a keyspace
    /// handoff).
    pub fn extract_if(&mut self, mut predicate: impl FnMut(&ActiveTask) -> bool) -> Vec<ActiveTask> {
        let mut extracted = Vec::new();
        let mut kept = Vec::with_capacity(self.active.len());
        for task in self.active.drain(..) {
            if predicate(&task) {
                self.ledger.release(&task.option.path.blocks, &self.block_memory, &self.block_training);
                extracted.push(task);
            } else {
                kept.push(task);
            }
        }
        self.active = kept;
        extracted
    }

    /// Takes the whole active set, leaving the controller empty (a
    /// retiring shard hands everything over).
    pub fn take_active(&mut self) -> Vec<ActiveTask> {
        self.extract_if(|_| true)
    }

    /// Re-optimises *all* active tasks from scratch (a global re-plan, as
    /// opposed to the incremental admission of [`Controller::submit`]).
    /// Incremental rounds are cheap but path-committed; a periodic global
    /// re-plan can undo earlier commitments that have become suboptimal as
    /// the task mix changed.
    ///
    /// Requires the original option lists, which incremental admission does
    /// not retain in full; pass them per active task, aligned with
    /// [`Controller::active`].
    ///
    /// # Errors
    ///
    /// Returns a [`DotError`] if the assembled instance is malformed. On
    /// error the current deployment is left untouched.
    pub fn replan(&mut self, options: Vec<Vec<PathOption>>) -> Result<AdmissionOutcome, DotError> {
        let requests: Vec<AdmissionRequest> = self
            .active
            .iter()
            .zip(options)
            .map(|(a, opts)| AdmissionRequest { task: a.task.clone(), options: opts })
            .collect();
        let previous = self.take_active();
        self.submit(requests).inspect_err(|_| self.adopt(previous))
    }

    /// Residual capacity headroom, for observability dashboards.
    pub fn headroom(&self) -> Budgets {
        self.snapshot().headroom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::small_scenario;

    fn requests(instance: &DotInstance, range: std::ops::Range<usize>) -> Vec<AdmissionRequest> {
        range
            .map(|t| AdmissionRequest {
                task: instance.tasks[t].clone(),
                options: instance.options[t].clone(),
            })
            .collect()
    }

    #[test]
    fn single_round_matches_direct_solve() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let out = c.submit(requests(&s.instance, 0..5)).unwrap();
        assert_eq!(out.admitted.len(), 5);
        assert!(out.rejected.is_empty());
        assert_eq!(c.active().len(), 5);
    }

    #[test]
    fn two_rounds_accumulate_and_reuse() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let first = c.submit(requests(&s.instance, 0..3)).unwrap();
        assert_eq!(first.admitted.len(), 3);
        let deployed_before = c.deployed();

        let second = c.submit(requests(&s.instance, 3..5)).unwrap();
        assert_eq!(second.admitted.len(), 2);
        assert_eq!(c.active().len(), 5);
        // Memory grew by at most the newcomers' exclusive blocks.
        let deployed_after = c.deployed();
        assert!(deployed_after.memory_bytes >= deployed_before.memory_bytes);
        assert!(deployed_after.blocks.len() >= deployed_before.blocks.len());
    }

    #[test]
    fn headroom_shrinks_and_recovers_on_release() {
        let s = small_scenario(4);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let full = c.headroom();
        c.submit(requests(&s.instance, 0..4)).unwrap();
        let used = c.headroom();
        assert!(used.rbs < full.rbs);
        assert!(used.memory_bytes < full.memory_bytes);

        let ids: Vec<TaskId> = c.active().iter().map(|a| a.task.id).collect();
        c.release(&ids);
        assert!(c.active().is_empty());
        let recovered = c.headroom();
        assert!((recovered.rbs - full.rbs).abs() < 1e-9);
        assert!((recovered.memory_bytes - full.memory_bytes).abs() < 1e-6);
    }

    #[test]
    fn shared_blocks_survive_partial_release() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        c.submit(requests(&s.instance, 0..5)).unwrap();
        let all_blocks = c.deployed().blocks;
        // Release task 0 only; blocks shared with survivors must remain.
        let departed = vec![c.active()[0].task.id];
        c.release(&departed);
        let remaining = c.deployed().blocks;
        for b in &remaining {
            assert!(all_blocks.contains(b));
        }
        assert!(remaining.len() <= all_blocks.len());
        assert_eq!(c.active().len(), 4);
    }

    #[test]
    fn replan_never_serves_less_than_the_incremental_state() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        // Admit in two waves (path-committed), then re-plan globally.
        c.submit(requests(&s.instance, 0..3)).unwrap();
        c.submit(requests(&s.instance, 3..5)).unwrap();
        let incremental_adm: f64 = c.active().iter().map(|a| a.admission * a.task.priority).sum();
        let opts: Vec<_> =
            c.active().iter().map(|a| s.instance.options[a.task.id.0 as usize].clone()).collect();
        let out = c.replan(opts).unwrap();
        let replanned_adm: f64 = out.admitted.iter().map(|a| a.admission * a.task.priority).sum();
        assert!(replanned_adm >= incremental_adm - 1e-9);
        assert_eq!(c.active().len(), out.admitted.len());
    }

    #[test]
    fn failed_replan_preserves_deployment() {
        let s = small_scenario(3);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        c.submit(requests(&s.instance, 0..3)).unwrap();
        let before = c.active().len();
        // Malformed options: a block id with no cost entry.
        let mut bad =
            vec![s.instance.options[0].clone(), s.instance.options[1].clone(), s.instance.options[2].clone()];
        bad[0][0].path.blocks.push(offloadnn_dnn::BlockId(9_999_999));
        assert!(c.replan(bad).is_err());
        assert_eq!(c.active().len(), before, "deployment untouched on error");
    }

    #[test]
    fn snapshot_agrees_with_deployed_and_headroom() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let out = c.submit(requests(&s.instance, 0..5)).unwrap();
        assert!(out.accounts_for(5));
        let snap = c.snapshot();
        let dep = c.deployed();
        let head = c.headroom();
        assert_eq!(snap.active_tasks, c.active().len());
        assert_eq!(snap.deployed_blocks, dep.blocks.len());
        assert!((snap.memory_bytes - dep.memory_bytes).abs() < 1e-9);
        assert!((snap.compute_seconds - dep.compute_seconds).abs() < 1e-12);
        assert!((snap.rbs - dep.rbs).abs() < 1e-12);
        assert!((snap.headroom.rbs - head.rbs).abs() < 1e-12);
        assert!((snap.headroom.memory_bytes - head.memory_bytes).abs() < 1e-6);
    }

    #[test]
    fn empty_controller_snapshot_is_all_headroom() {
        let s = small_scenario(3);
        let c = Controller::new(&s.instance, OffloadnnSolver::new());
        let snap = c.snapshot();
        assert_eq!(snap.active_tasks, 0);
        assert_eq!(snap.deployed_blocks, 0);
        assert_eq!(snap.rbs, 0.0);
        assert!((snap.headroom.rbs - s.instance.budgets.rbs).abs() < 1e-12);
    }

    #[test]
    fn outcome_conservation_helper_counts_both_verdicts() {
        let s = small_scenario(5);
        let mut inst = s.instance.clone();
        inst.budgets.rbs = 16.0;
        let mut c = Controller::new(&inst, OffloadnnSolver::new());
        let out = c.submit(requests(&inst, 0..5)).unwrap();
        assert!(out.accounts_for(5));
        assert_eq!(out.total(), 5);
        assert!(!out.accounts_for(4));
    }

    #[test]
    fn exhausted_capacity_rejects_newcomers() {
        let s = small_scenario(5);
        let mut inst = s.instance.clone();
        inst.budgets.rbs = 16.0; // roughly enough for three tasks' slices
        let mut c = Controller::new(&inst, OffloadnnSolver::new());
        let first = c.submit(requests(&inst, 0..3)).unwrap();
        assert!(!first.admitted.is_empty());
        // Flood with the remaining tasks; at least one must be rejected or
        // partially admitted due to the shrunken cell.
        let out = c.submit(requests(&inst, 3..5)).unwrap();
        let fully = out.admitted.iter().filter(|a| a.admission > 0.999).count();
        assert!(fully < 2 || !out.rejected.is_empty());
        // Invariant: total radio usage never exceeds the cell.
        assert!(c.deployed().rbs <= inst.budgets.rbs + 1e-9);
    }

    #[test]
    fn release_reports_how_many_tasks_it_removed() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        c.submit(requests(&s.instance, 0..3)).unwrap();
        let held = c.active()[0].task.id;
        assert_eq!(c.release(&[held, TaskId(999_999)]), 1, "one held, one unknown");
        assert_eq!(c.release(&[held]), 0, "already gone");
        assert_eq!(c.active().len(), 2);
    }

    #[test]
    fn extract_and_adopt_hand_tasks_over_losslessly() {
        let s = small_scenario(5);
        let mut a = Controller::new(&s.instance, OffloadnnSolver::new());
        a.submit(requests(&s.instance, 0..5)).unwrap();
        let total = a.active().len();
        let moved = a.extract_if(|t| t.task.id.0 % 2 == 0);
        assert!(!moved.is_empty());
        assert_eq!(a.active().len() + moved.len(), total);
        for t in a.active() {
            assert_eq!(t.task.id.0 % 2, 1, "extraction must be exact");
        }

        let mut b = Controller::new(&s.instance, OffloadnnSolver::new());
        let usage: f64 = moved.iter().map(ActiveTask::radio_usage).sum();
        b.adopt(moved);
        assert!((b.deployed().rbs - usage).abs() < 1e-9, "grants survive adoption verbatim");
        assert_eq!(a.active().len() + b.active().len(), total);
    }

    #[test]
    fn take_active_empties_the_controller() {
        let s = small_scenario(3);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        c.submit(requests(&s.instance, 0..3)).unwrap();
        let n = c.active().len();
        let all = c.take_active();
        assert_eq!(all.len(), n);
        assert!(c.active().is_empty());
        assert_eq!(c.snapshot().active_tasks, 0);
    }

    #[test]
    fn residual_tables_zero_exactly_the_resident_blocks() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let check = |c: &Controller| {
            for (b, &refs) in c.ledger.refs.iter().enumerate() {
                let want = if refs > 0 { (0.0, 0.0) } else { (c.block_memory[b], c.block_training[b]) };
                assert_eq!((c.ledger.memory[b], c.ledger.training[b]), want, "block {b}, {refs} holder(s)");
            }
        };
        c.submit(requests(&s.instance, 0..5)).unwrap();
        check(&c);
        let first = c.active()[0].task.id;
        c.release(&[first]);
        check(&c);
        let moved = c.extract_if(|a| a.task.id.0 % 2 == 0);
        check(&c);
        c.adopt(moved);
        check(&c);
        c.take_active();
        check(&c);
        assert_eq!(c.ledger.memory, c.block_memory, "an empty edge shares nothing");
    }

    #[test]
    fn try_apply_plan_reproduces_the_cold_solve() {
        let s = small_scenario(5);
        let mut cold = Controller::new(&s.instance, OffloadnnSolver::new());
        let mut warm = cold.clone();
        let out = cold.submit(requests(&s.instance, 0..5)).unwrap();
        assert!(!out.admitted.is_empty());
        // Replay every grant through the validation path on the twin.
        for grant in &out.admitted {
            let t = grant.task.id.0 as usize;
            let opts = &s.instance.options[t];
            let o = opts.iter().position(|c| c == &grant.option).unwrap();
            let applied = warm
                .try_apply_plan(&grant.task, opts, o, grant.admission, grant.rbs)
                .expect("fresh grant must re-validate");
            assert_eq!(&applied, grant);
        }
        let (a, b) = (cold.snapshot(), warm.snapshot());
        assert_eq!(a.active_tasks, b.active_tasks);
        assert!((a.rbs - b.rbs).abs() < 1e-12);
        assert!((a.compute_seconds - b.compute_seconds).abs() < 1e-12);
        assert!((a.memory_bytes - b.memory_bytes).abs() < 1e-6);
    }

    #[test]
    fn try_apply_plan_rejects_infeasible_proposals_untouched() {
        let s = small_scenario(3);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let task = s.instance.tasks[0].clone();
        let opts = s.instance.options[0].clone();
        let before = c.snapshot();

        // Out-of-range option index.
        assert!(c.try_apply_plan(&task, &opts, opts.len(), 1.0, 4.0).is_none());
        // Zero admission is not a plan.
        assert!(c.try_apply_plan(&task, &opts, 0, 0.0, 4.0).is_none());
        // One RB cannot meet the latency bound for a full-quality image.
        assert!(c.try_apply_plan(&task, &opts, 0, 1.0, 1e-3).is_none());
        // Unknown block id in a (corrupted) option must not panic.
        let mut bad = opts.clone();
        bad[0].path.blocks.push(offloadnn_dnn::BlockId(9_999_999));
        assert!(c.try_apply_plan(&task, &bad, 0, 1.0, 4.0).is_none());

        assert_eq!(c.snapshot(), before, "failed applies must not move budgets");
    }

    #[test]
    fn try_apply_plan_respects_the_live_ledger() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let out = c.submit(requests(&s.instance, 0..5)).unwrap();
        let grant = out.admitted[0].clone();
        let t = grant.task.id.0 as usize;
        let opts = &s.instance.options[t];
        let o = opts.iter().position(|x| x == &grant.option).unwrap();
        // Shrink the cell under the running load: the same plan that was
        // valid at mint time must now fail validation.
        let mut tight = s.instance.budgets;
        tight.rbs = c.deployed().rbs;
        c.set_budgets(tight);
        let mut fresh = grant.task.clone();
        fresh.id = TaskId(1_000);
        assert!(c.try_apply_plan(&fresh, opts, o, grant.admission, grant.rbs).is_none());
    }

    #[test]
    fn set_budgets_rescopes_future_rounds() {
        let s = small_scenario(5);
        let mut c = Controller::new(&s.instance, OffloadnnSolver::new());
        let mut tight = s.instance.budgets;
        tight.rbs = 1e-6;
        tight.compute_seconds = 1e-9;
        c.set_budgets(tight);
        let out = c.submit(requests(&s.instance, 0..3)).unwrap();
        assert!(out.admitted.is_empty(), "no capacity after the shrink: {out:?}");
        assert_eq!(out.rejected.len(), 3);
    }
}
