//! The service facade: starts the shard fleet, routes submissions and
//! departures, reshapes the fleet at runtime ([`Service::scale_to`]),
//! exposes metrics and performs graceful drain.

use crate::admit::{admission_budget, Admitter, PendingVerdict};
use crate::config::{ChaosConfig, ServiceConfig};
use crate::error::{ServeError, SubmitError};
use crate::mailbox::mailbox;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::router::{self, partition_budgets};
use crate::shard::{Clock, ReshardCmd, ServiceRequest, Shard, ShardMsg, ShardReport, Waiter};
use crossbeam::channel::{self, Sender, TrySendError};
use offloadnn_core::controller::ActiveTask;
use offloadnn_core::instance::{Budgets, DotInstance, PathOption};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_plancache::{CachedPlan, PlanCache, PlanCacheStats};
use offloadnn_telemetry::{event, span, Severity};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The verdict a request ends with. Every submitted request receives
/// exactly one of these; the service never drops a request silently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// A slice was granted.
    Admitted {
        /// Granted admission ratio in `(0, 1]`.
        admission: f64,
        /// Granted radio resource blocks (real-valued).
        rbs: f64,
        /// Shard that admitted the task (its departure must go back
        /// there; [`Service::depart`] routes this automatically).
        shard: usize,
    },
    /// The solver declined the request (infeasible or not worth the
    /// residual capacity).
    Rejected {
        /// Shard that decided.
        shard: usize,
    },
    /// Dropped by backpressure (full ingress queue) or priority-ordered
    /// overload shedding before reaching the solver.
    Shed {
        /// Shard whose queue shed the request.
        shard: usize,
    },
    /// Waited past its admission deadline before a solver round reached
    /// it.
    Expired {
        /// Shard on which the request expired.
        shard: usize,
    },
}

impl Outcome {
    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Outcome::Admitted { .. })
    }
}

/// Final report of [`Service::drain`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Metrics at drain completion (quiescent, so conservation holds —
    /// unless chaos injection killed a shard, see
    /// [`DrainReport::lost_shards`]).
    pub metrics: MetricsSnapshot,
    /// Per-shard final state of the fleet that was live at drain time.
    pub shards: Vec<ShardReport>,
    /// Final reports of shards retired by earlier [`Service::scale_to`]
    /// calls (their peaks/rounds are not represented in `shards`).
    pub retired: Vec<ShardReport>,
    /// Shards whose worker thread panicked (chaos injection) and
    /// therefore produced no report. Zero in any healthy run.
    pub lost_shards: usize,
    /// Final plan-cache statistics, when the service ran with
    /// [`crate::config::ServiceConfig::plan_cache`] enabled.
    pub plan_cache: Option<PlanCacheStats>,
}

impl DrainReport {
    /// Whether every shard's peak usage stayed within its budget
    /// partition. Note that a reshard hands migrated tasks to shards
    /// that admitted none of them, so a fleet that resharded under load
    /// may transiently exceed a partition; this check is meaningful for
    /// fixed-topology runs.
    pub fn within_budgets(&self) -> bool {
        self.shards.iter().chain(self.retired.iter()).all(ShardReport::within_budgets)
    }
}

/// Result of one [`Service::scale_to`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshardReport {
    /// Shard count before the reshard.
    pub from_shards: usize,
    /// Shard count after the reshard.
    pub to_shards: usize,
    /// In-flight (admitted, not yet departed) tasks that moved to a new
    /// owner shard.
    pub migrated: u64,
    /// Fleet generation after the reshard (starts at 0, +1 per reshard).
    pub generation: u64,
}

/// A running sharded admission-control service over the OffloaDNN
/// controller. See the [crate docs](crate) for the architecture.
///
/// `Service` is `Sync`: `submit` / `depart` / `metrics` / `scale_to`
/// may be called from any number of threads concurrently.
#[derive(Debug)]
pub struct Service {
    /// The per-shard ingress senders, index == shard; their count is
    /// the shard count [`router::shard`] routes over. Behind one lock so
    /// a submit routes and enqueues against a single consistent
    /// generation (see `scale_to` for the ordering argument).
    senders: RwLock<Vec<Sender<ShardMsg>>>,
    /// Holding this lock is what serialises reshards (and fences drain
    /// against them).
    fleet: Mutex<Fleet>,
    metrics: Arc<ServiceMetrics>,
    config: ServiceConfig,
    /// Cleared instance template (cost tables, rate model, `alpha`) used
    /// to build controllers for shards spawned after start.
    template: DotInstance,
    /// The undivided edge budgets; every reshard repartitions from this
    /// original total so capacity cannot drift across generations.
    total_budgets: Budgets,
    /// Service-wide plan cache shared by every shard worker (`None` when
    /// disabled). Lives on the service so reshards, repartitions and
    /// heals can invalidate it.
    plan_cache: Option<Arc<PlanCache<CachedPlan>>>,
    draining: AtomicBool,
}

/// The shard workers and the reports of those that left the fleet.
#[derive(Debug)]
struct Fleet {
    /// Worker join handles; index == shard. Grow pushes, shrink splits
    /// off, self-heal replaces in place.
    workers: Vec<JoinHandle<ShardReport>>,
    /// Final reports of shards retired by scale-downs.
    retired: Vec<ShardReport>,
}

impl Service {
    /// Starts the shard fleet. `template` supplies the edge state every
    /// shard controller needs — budgets (partitioned across shards), the
    /// rate model, `alpha` and the per-block cost tables; its task list
    /// is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid
    /// configuration.
    pub fn start(config: ServiceConfig, template: &DotInstance) -> Result<Self, ServeError> {
        config.validate()?;
        let metrics = Arc::new(ServiceMetrics::new());
        let plan_cache =
            config.plan_cache.map(|pc| Arc::new(PlanCache::with_registry(pc, metrics.registry())));
        let partitions = partition_budgets(template.budgets, config.shards);

        // Shard controllers share the block cost tables and rate model but
        // own disjoint budget partitions; the template's request content
        // is irrelevant.
        let mut shard_template = template.clone();
        shard_template.tasks.clear();
        shard_template.options.clear();

        let (senders, workers) = partitions
            .into_iter()
            .enumerate()
            .map(|(shard, budgets)| {
                spawn_worker(shard, budgets, &shard_template, config, &metrics, &plan_cache)
            })
            .unzip();
        event!(
            Severity::Info,
            "serve.service",
            "fleet started: {} shard(s), queue capacity {}, batch {}x{:?}",
            config.shards,
            config.queue_capacity,
            config.batch_max,
            config.batch_window
        );
        Ok(Self {
            senders: RwLock::new(senders),
            fleet: Mutex::new(Fleet { workers, retired: Vec::new() }),
            metrics,
            config,
            template: shard_template,
            total_budgets: template.budgets,
            plan_cache,
            draining: AtomicBool::new(false),
        })
    }

    /// Current number of worker shards: a task's shard is
    /// [`router::shard`] over this count.
    pub fn shards(&self) -> usize {
        self.senders.read().expect("senders lock").len()
    }

    /// Current fleet generation (0 at start, +1 per completed reshard).
    pub fn generation(&self) -> u64 {
        self.metrics.generation.get()
    }

    /// Notifies the service that an admitted task has departed; its
    /// shard releases the capacity. Routed by the same rule as the
    /// submission — over the *current* fleet, so after a reshard the
    /// notice reaches the task's new owner (which buffers it if the
    /// migration is still in flight). Blocks only while that shard's
    /// queue is full (departures are never shed — dropping one would leak
    /// capacity).
    pub fn depart(&self, task: TaskId) {
        let senders = self.senders.read().expect("senders lock");
        let _ = senders[router::shard(task, senders.len())].send(ShardMsg::Depart(task));
    }

    /// Reshapes the fleet to `new_shards` worker shards at runtime,
    /// without stopping ingress and without losing a verdict or a unit
    /// of capacity:
    ///
    /// 1. the next generation's budget partitions are built;
    /// 2. new shards (on a grow) are spawned idle;
    /// 3. the sender set — and with it the shard count every route is
    ///    taken over — is swapped under the write lock, so every message
    ///    enqueued before the swap FIFO-precedes the reshard order on its
    ///    shard's queue;
    /// 4. every old shard is sent the same reshard order and hands over
    ///    every in-flight task the new fleet routes elsewhere — all of
    ///    them, on a retiree, which then drains to its exit;
    /// 5. migrated tasks are delivered to their new owners, which also
    ///    reconcile departures that arrived ahead of the migration.
    ///
    /// A shard found dead (chaos injection) is respawned with a fresh
    /// controller instead of failing the reshard.
    ///
    /// Concurrent `scale_to` calls serialise; `submit`/`depart` never
    /// block on a reshard beyond the routing-swap window.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] if `new_shards` is zero,
    /// [`ServeError::Draining`] once a drain has begun.
    pub fn scale_to(&self, new_shards: usize) -> Result<ReshardReport, ServeError> {
        if new_shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be >= 1"));
        }
        let mut fleet = self.fleet.lock().expect("fleet lock");
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        let old_shards = self.shards();
        if new_shards == old_shards {
            return Ok(ReshardReport {
                from_shards: old_shards,
                to_shards: new_shards,
                migrated: 0,
                generation: self.metrics.generation.get(),
            });
        }
        let reshard_span = span!("serve.reshard");
        let partitions = partition_budgets(self.total_budgets, new_shards);

        // Spawn the newcomers idle: they must exist before the swap so a
        // post-swap submit routed to them finds a live queue.
        let (new_senders, newcomers): (Vec<_>, Vec<_>) = partitions
            .iter()
            .enumerate()
            .skip(old_shards)
            .map(|(shard, &budgets)| {
                spawn_worker(shard, budgets, &self.template, self.config, &self.metrics, &self.plan_cache)
            })
            .unzip();
        fleet.workers.extend(newcomers);

        // Atomic handover: after this block every submit/depart routes
        // over the new sender set. Every old sender, a retiree's included,
        // is kept only to carry its shard's order.
        let old_senders = {
            let mut senders = self.senders.write().expect("senders lock");
            let old = senders.clone();
            senders.truncate(new_shards);
            senders.extend(new_senders);
            old
        };

        // Every old shard gets the same order. A survivor adopts its new
        // partition; a retiree keeps its current one (so its final peaks
        // are judged against it) and, owning no key of the new fleet, hands
        // back its whole active set. A retiree's sender drops right after
        // its order, so the retiree answers it behind its pre-swap backlog
        // and then exits.
        let old_partitions = partition_budgets(self.total_budgets, old_shards);
        let mut replies = Vec::with_capacity(old_shards);
        for (shard, sender) in old_senders.into_iter().enumerate() {
            let budgets = if shard < new_shards { partitions[shard] } else { old_partitions[shard] };
            let (reply, reply_rx) = channel::bounded(1);
            let order = ShardMsg::Reshard(ReshardCmd { shards: new_shards, budgets, reply });
            // An order a dead shard's queue refuses drops its reply
            // sender with it, so the reply below fails either way.
            let _ = sender.send(order);
            replies.push((shard, reply_rx));
        }

        // Collect the evacuated tasks. A dead survivor (chaos) is
        // respawned with a fresh controller, its in-flight tasks gone with
        // the panic; a dead retiree is counted lost when joined below.
        let mut moved = Vec::new();
        for (shard, reply_rx) in replies {
            match reply_rx.recv() {
                Ok(tasks) => moved.extend(tasks),
                Err(_) if shard < new_shards => self.heal_shard(&mut fleet, shard, partitions[shard]),
                Err(_) => {}
            }
        }
        let mut lost = 0usize;
        for worker in fleet.workers.split_off(new_shards) {
            match worker.join() {
                Ok(report) => fleet.retired.push(report),
                Err(_) => lost += 1,
            }
        }
        if lost > 0 {
            event!(
                Severity::Warn,
                "serve.service",
                "reshard: {lost} retiring shard(s) had panicked; their in-flight tasks are lost"
            );
        }

        // Deliver each migrated task to its new owner. The Adopt is
        // enqueued on the same channel later departures use, so FIFO
        // guarantees the owner holds the task before a post-reshard
        // departure reaches it (and pre-Adopt departures are buffered by
        // the owner's orphan set).
        let migrated = moved.len() as u64;
        let mut by_owner: Vec<Vec<ActiveTask>> = (0..new_shards).map(|_| Vec::new()).collect();
        for task in moved {
            by_owner[router::shard(task.task.id, new_shards)].push(task);
        }
        {
            let senders = self.senders.read().expect("senders lock");
            for (shard, tasks) in by_owner.into_iter().enumerate() {
                if !tasks.is_empty() {
                    let _ = senders[shard].send(ShardMsg::Adopt(tasks));
                }
            }
        }

        // The generation is part of every plan-cache key: plans minted
        // under the old fleet and budget partition never match again.
        let generation = self.metrics.generation.get() + 1;
        self.metrics.generation.set(generation);
        self.metrics.reshards.inc();
        self.metrics.migrated.add(migrated);
        reshard_span.finish();
        event!(
            Severity::Info,
            "serve.service",
            "resharded {old_shards} -> {new_shards} shard(s): {migrated} task(s) migrated, generation {generation}"
        );
        Ok(ReshardReport { from_shards: old_shards, to_shards: new_shards, migrated, generation })
    }

    /// Replaces a dead survivor with a fresh worker (fresh controller,
    /// same budget partition); the dead worker's in-flight tasks are lost.
    fn heal_shard(&self, fleet: &mut Fleet, shard: usize, budgets: Budgets) {
        event!(Severity::Warn, "serve.service", "shard {shard} is dead; respawning with a fresh controller");
        // The replacement runs with chaos injection cleared: the fault
        // already fired, and a heal that re-arms the same trigger (the
        // fresh worker restarts its round counter) would never converge.
        let config = ServiceConfig { chaos: ChaosConfig::default(), ..self.config };
        let (tx, fresh) =
            spawn_worker(shard, budgets, &self.template, config, &self.metrics, &self.plan_cache);
        let old = std::mem::replace(&mut fleet.workers[shard], fresh);
        self.senders.write().expect("senders lock")[shard] = tx;
        match old.join() {
            Ok(report) => fleet.retired.push(report),
            Err(_) => event!(
                Severity::Warn,
                "serve.service",
                "shard {shard} worker had panicked; its in-flight tasks are lost"
            ),
        }
    }

    /// Point-in-time metrics; callable from any thread while the service
    /// runs.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Point-in-time plan-cache statistics, or `None` when the service
    /// runs without a plan cache.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| c.stats())
    }

    /// The per-service telemetry registry holding this fleet's counters,
    /// gauges and histograms — snapshot it for the shared JSONL/table
    /// exporters ([`offloadnn_telemetry::RegistrySnapshot`]).
    pub fn telemetry(&self) -> &offloadnn_telemetry::Registry {
        self.metrics.registry()
    }

    /// Stops the ingress without tearing the fleet down: every subsequent
    /// [`Admitter::submit`] fails with [`SubmitError::Draining`] while
    /// already-queued requests keep resolving to verdicts. This is the
    /// hook a frontend (e.g. a network server) uses to fence off new work,
    /// flush in-flight responses to its own callers, and only then call
    /// [`Service::drain`] for the final join + report. It also fences
    /// resharding: a [`Service::scale_to`] issued afterwards fails with
    /// [`ServeError::Draining`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether [`Service::begin_drain`] (or [`Service::drain`]) has been
    /// called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Gracefully drains: stops accepting new requests, waits out any
    /// in-flight reshard, lets every queued request reach a verdict
    /// (admission, rejection or expiry), joins the workers and returns
    /// the final report. Conservation (`submitted = admitted + rejected +
    /// shed + expired`) holds on the returned metrics unless chaos
    /// injection killed a worker mid-flight
    /// ([`DrainReport::lost_shards`]).
    pub fn drain(self) -> DrainReport {
        self.begin_drain();
        // Serialise against scale_to: once the fleet lock is held, the
        // worker set is stable and any later scale_to fails with Draining.
        let mut fleet = self.fleet.lock().expect("fleet lock");
        // Dropping the senders disconnects the queues; each worker keeps
        // resolving until its queue is empty, then exits.
        self.senders.write().expect("senders lock").clear();
        let mut shards: Vec<ShardReport> = Vec::with_capacity(fleet.workers.len());
        let mut lost_shards = 0usize;
        for worker in std::mem::take(&mut fleet.workers) {
            // One "serve.drain" sample per shard: drain start to that
            // worker's exit (joins overlap, so samples are cumulative).
            let drain_span = span!("serve.drain");
            match worker.join() {
                Ok(report) => shards.push(report),
                Err(_) => lost_shards += 1,
            }
            drain_span.finish();
        }
        if lost_shards > 0 {
            event!(
                Severity::Warn,
                "serve.service",
                "drain: {lost_shards} worker(s) had panicked and produced no report"
            );
        }
        shards.sort_by_key(|r| r.shard);
        let retired = std::mem::take(&mut fleet.retired);
        let metrics = self.metrics.snapshot();
        event!(
            Severity::Info,
            "serve.service",
            "drained: {} submitted, {} admitted, {} rejected, {} shed, {} expired",
            metrics.submitted,
            metrics.admitted,
            metrics.rejected,
            metrics.shed,
            metrics.expired
        );
        let plan_cache = self.plan_cache.as_ref().map(|c| c.stats());
        DrainReport { metrics, shards, retired, lost_shards, plan_cache }
    }
}

/// The service's one ingress. Never blocks: if the target shard's queue
/// is full the request is shed at once and its verdict is
/// [`Outcome::Shed`]. A refused submit is not counted.
impl Admitter for Service {
    fn submit(
        &self,
        task: Task,
        options: Vec<PathOption>,
        deadline: Option<Duration>,
    ) -> Result<PendingVerdict, SubmitError> {
        let _ingress = span!("serve.ingress");
        let budget =
            admission_budget(self.is_draining(), &task, &options, deadline, self.config.admission_deadline)?;
        // Route and enqueue under one read guard: a concurrent reshard
        // swaps the senders only after this enqueue, so the message
        // FIFO-precedes the shard's `Reshard` order and resolves before
        // (or during) the handoff — never against a stale shard count.
        let senders = self.senders.read().expect("senders lock");
        let shard = router::shard(task.id, senders.len());
        let id = task.id;
        self.metrics.submitted.inc();
        let (responder, rx) = mailbox();
        let now = Instant::now();
        let request = ServiceRequest {
            task,
            options,
            deadline: now + budget,
            waiter: Waiter { enqueued_at: now, responder },
        };
        if let Err(TrySendError::Full(msg) | TrySendError::Disconnected(msg)) =
            senders[shard].try_send(ShardMsg::Request(request))
        {
            // Backpressure (or a dead/draining shard racing this submit):
            // resolve as shed right here so conservation holds.
            if let ShardMsg::Request(req) = msg {
                let verdict = Outcome::Shed { shard };
                self.metrics.book(&verdict, Duration::ZERO);
                req.waiter.responder.send(verdict);
            }
        }
        Ok(PendingVerdict::new(id, Box::new(rx)))
    }

    fn depart(&self, task: TaskId) {
        Service::depart(self, task);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(Service::metrics(self))
    }

    fn begin_drain(&self) {
        Service::begin_drain(self);
    }

    fn tier(&self) -> &'static str {
        "service"
    }
}

impl Drop for Service {
    /// Dropping without [`Service::drain`] still shuts the fleet down
    /// cleanly: the senders disconnect and each worker exits after
    /// resolving its backlog. The workers are detached, not joined.
    fn drop(&mut self) {
        self.begin_drain();
        if let Ok(mut senders) = self.senders.write() {
            senders.clear();
        }
    }
}

/// The wall clock the driver hands the shard engine.
pub(crate) struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn stall(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Spawns one shard: a fresh [`Shard`] engine over `budgets` behind a
/// bounded ingress queue, driven on its own thread. The driver blocks for
/// the first message of a round, fills the batch until it is full, the
/// window closes or the service disconnects, pulls the whole backlog once
/// it passes the watermark (the engine sheds it priority-first), and
/// hands the batch to [`Shard::round`]. It returns the shard's report
/// once every sender is gone and the queue is empty, so draining never
/// strands a request.
fn spawn_worker(
    index: usize,
    budgets: Budgets,
    template: &DotInstance,
    config: ServiceConfig,
    metrics: &Arc<ServiceMetrics>,
    plan_cache: &Option<Arc<PlanCache<CachedPlan>>>,
) -> (Sender<ShardMsg>, JoinHandle<ShardReport>) {
    let (tx, rx) = channel::bounded(config.queue_capacity);
    let mut shard = Shard::new(index, budgets, template, config, Arc::clone(metrics), plan_cache.clone());
    let metrics = Arc::clone(metrics);
    let drive = move || {
        while let Ok(first) = rx.recv() {
            let batch_span = span!("serve.batch");
            let mut batch = Vec::new();
            shard.take(first, &mut batch);
            let window_ends = Instant::now() + config.batch_window;
            while batch.len() < config.batch_max {
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                match rx.recv_timeout(window_ends - now) {
                    Ok(msg) => shard.take(msg, &mut batch),
                    Err(_) => break, // window closed, or drained and disconnected
                }
            }
            metrics.peak_queue_depth.raise(rx.len() as u64);
            if rx.len() >= config.shed_watermark {
                event!(
                    Severity::Warn,
                    "serve.shard",
                    "shard {} backlog {} past watermark {}: shedding priority-first",
                    index,
                    rx.len(),
                    config.shed_watermark
                );
                for msg in rx.drain() {
                    shard.take(msg, &mut batch);
                }
            }
            batch_span.finish();
            shard.round(batch, &WallClock);
        }
        shard.finish()
    };
    let worker = std::thread::Builder::new()
        .name(format!("serve-shard-{index}"))
        .spawn(drive)
        .expect("spawn shard worker");
    (tx, worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use offloadnn_core::scenario::small_scenario;

    fn unique_task(template: &DotInstance, proto: usize, id: u32) -> (Task, Vec<PathOption>) {
        let mut task = template.tasks[proto].clone();
        task.id = TaskId(id);
        (task, template.options[proto].clone())
    }

    /// Submits and waits: the task's id if it was admitted.
    fn admit(service: &Service, (task, options): (Task, Vec<PathOption>)) -> Option<TaskId> {
        let id = task.id;
        service.submit(task, options, None).unwrap().wait().unwrap().is_admitted().then_some(id)
    }

    #[test]
    fn single_submit_admits_and_conserves() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 1000);
        let ticket = service.submit(task, options, None).unwrap();
        let outcome = ticket.wait().expect("worker resolves");
        assert!(outcome.is_admitted(), "plenty of capacity: {outcome:?}");
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(report.metrics.submitted, 1);
        assert_eq!(report.metrics.admitted, 1);
        assert_eq!(report.lost_shards, 0);
        assert!(report.within_budgets());
    }

    #[test]
    fn submit_after_drain_fails() {
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 1);
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        // Can't use the drained service (moved), so check the error path
        // on a fresh service mid-drain instead.
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        service.begin_drain();
        assert_eq!(service.submit(task, options, None).unwrap_err(), SubmitError::Draining);
        assert_eq!(service.metrics().submitted, 0, "rejected submits are not counted");
    }

    #[test]
    fn no_options_is_an_error() {
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let (task, _) = unique_task(&s.instance, 0, 1);
        assert_eq!(service.submit(task, Vec::new(), None).unwrap_err(), SubmitError::NoOptions);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let s = small_scenario(5);
        // One shard, a 2-slot queue and single-request rounds: while the
        // worker is inside a solver round it cannot receive, so a tight
        // submission burst must overflow the queue (a solve takes orders
        // of magnitude longer than a submit).
        let cfg = ServiceConfig {
            shards: 1,
            queue_capacity: 2,
            batch_max: 1,
            batch_window: Duration::from_micros(100),
            ..ServiceConfig::default()
        };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut tickets: Vec<PendingVerdict> = Vec::new();
        // Submit in bursts until a shed is observed (the first burst
        // all but guarantees it; the retry bound keeps the test sound on
        // any scheduler).
        for burst in 0..50u32 {
            for i in 0..200u32 {
                let id = 10_000 + burst * 200 + i;
                let (task, options) = unique_task(&s.instance, (id % 5) as usize, id);
                tickets.push(service.submit(task, options, None).unwrap());
            }
            if service.metrics().shed > 0 {
                break;
            }
        }
        let outcomes: Vec<Outcome> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let shed = outcomes.iter().filter(|o| matches!(o, Outcome::Shed { .. })).count();
        assert!(shed > 0, "overflowing a 2-slot queue must shed");
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(report.metrics.submitted as usize, outcomes.len());
        assert_eq!(report.metrics.shed as usize, shed);
    }

    #[test]
    fn departure_releases_capacity_for_newcomers() {
        let s = small_scenario(5);
        // Single shard with the full budget: admit a batch, depart it,
        // and verify the controller state returns to empty.
        let cfg = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut admitted_ids = Vec::new();
        for i in 0..5u32 {
            admitted_ids.extend(admit(&service, unique_task(&s.instance, i as usize, 100 + i)));
        }
        assert!(!admitted_ids.is_empty());
        for id in &admitted_ids {
            service.depart(*id);
        }
        let report = service.drain();
        assert_eq!(report.metrics.departed as usize, admitted_ids.len());
        assert_eq!(report.shards[0].snapshot.active_tasks, 0, "all capacity released");
        assert!(report.metrics.is_conserved());
    }

    #[test]
    fn short_deadline_expires_queued_requests() {
        let s = small_scenario(5);
        let cfg = ServiceConfig {
            shards: 1,
            // Deadline far shorter than the batch window: requests queued
            // behind the first round's window will expire.
            admission_deadline: Duration::from_micros(1),
            batch_window: Duration::from_millis(20),
            batch_max: 4,
            ..ServiceConfig::default()
        };
        let service = Service::start(cfg, &s.instance).unwrap();
        let tickets: Vec<PendingVerdict> = (0..8)
            .map(|i| {
                let (task, options) = unique_task(&s.instance, (i % 5) as usize, 200 + i);
                service.submit(task, options, None).unwrap()
            })
            .collect();
        let expired = tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .filter(|o| matches!(o, Outcome::Expired { .. }))
            .count();
        assert!(expired > 0, "1 µs deadline must expire behind a 20 ms window");
        let report = service.drain();
        assert!(report.metrics.is_conserved());
        assert_eq!(report.metrics.expired as usize, expired);
    }

    #[test]
    fn departs_route_to_the_admitting_shard() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 77);
        let ticket = service.submit(task, options, None).unwrap();
        let outcome = ticket.wait().unwrap();
        if let Outcome::Admitted { shard, .. } = outcome {
            assert_eq!(shard, router::shard(TaskId(77), 4));
        } else {
            panic!("expected admission, got {outcome:?}");
        }
    }

    #[test]
    fn drop_without_drain_shuts_down_cleanly() {
        let s = small_scenario(3);
        let service = Service::start(ServiceConfig::default(), &s.instance).unwrap();
        let (task, options) = unique_task(&s.instance, 0, 9);
        let ticket = service.submit(task, options, None).unwrap();
        drop(service);
        // The worker resolves the in-flight request before exiting.
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn scale_to_zero_is_invalid_and_same_count_is_a_noop() {
        let s = small_scenario(3);
        let service =
            Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &s.instance).unwrap();
        assert!(matches!(service.scale_to(0), Err(ServeError::InvalidConfig(_))));
        let report = service.scale_to(2).unwrap();
        assert_eq!(report.from_shards, 2);
        assert_eq!(report.to_shards, 2);
        assert_eq!(report.migrated, 0);
        assert_eq!(report.generation, 0, "a no-op does not advance the generation");
        assert_eq!(service.metrics().reshards, 0);
    }

    #[test]
    fn scale_after_begin_drain_is_refused() {
        let s = small_scenario(3);
        let service =
            Service::start(ServiceConfig { shards: 2, ..ServiceConfig::default() }, &s.instance).unwrap();
        service.begin_drain();
        assert_eq!(service.scale_to(4).unwrap_err(), ServeError::Draining);
    }

    #[test]
    fn scale_up_keeps_serving_and_conserves() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut admitted = Vec::new();
        for id in 0..20u32 {
            admitted.extend(admit(&service, unique_task(&s.instance, (id % 5) as usize, 3000 + id)));
        }
        let report = service.scale_to(5).unwrap();
        assert_eq!(report.from_shards, 2);
        assert_eq!(report.to_shards, 5);
        assert_eq!(report.generation, 1);
        assert_eq!(service.shards(), 5);
        // The fleet keeps serving at the new shard count.
        for id in 0..20u32 {
            admitted.extend(admit(&service, unique_task(&s.instance, (id % 5) as usize, 4000 + id)));
        }
        for id in &admitted {
            service.depart(*id);
        }
        let drained = service.drain();
        assert!(drained.metrics.is_conserved());
        assert_eq!(drained.metrics.departed as usize, admitted.len());
        assert_eq!(drained.metrics.reshards, 1);
        assert_eq!(drained.metrics.generation, 1);
        assert_eq!(drained.lost_shards, 0);
        let active: usize = drained.shards.iter().map(|r| r.snapshot.active_tasks).sum();
        assert_eq!(active, 0, "every admitted task departed cleanly across the reshard");
    }

    #[test]
    fn scale_down_migrates_in_flight_tasks_to_survivors() {
        let s = small_scenario(5);
        let cfg = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        let service = Service::start(cfg, &s.instance).unwrap();
        let mut admitted = Vec::new();
        for id in 0..16u32 {
            admitted.extend(admit(&service, unique_task(&s.instance, (id % 5) as usize, 5000 + id)));
        }
        assert!(!admitted.is_empty());
        let report = service.scale_to(1).unwrap();
        assert_eq!(report.to_shards, 1);
        assert_eq!(service.shards(), 1);
        // Every departure now routes to the lone survivor, which must
        // hold (or have buffered a departure for) every migrated task.
        for id in &admitted {
            service.depart(*id);
        }
        let drained = service.drain();
        assert!(drained.metrics.is_conserved());
        assert_eq!(drained.metrics.departed as usize, admitted.len());
        assert_eq!(drained.shards.len(), 1);
        assert_eq!(drained.shards[0].snapshot.active_tasks, 0, "all migrated capacity released");
        assert_eq!(drained.retired.len(), 3, "three shards retired with reports");
        assert_eq!(drained.lost_shards, 0);
    }
}
