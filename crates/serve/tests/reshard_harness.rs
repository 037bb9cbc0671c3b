//! Deterministic reshard/chaos harness: a seeded driver interleaves
//! submits, departures and live `scale_to` calls against a real
//! [`Service`], checking the conservation invariant and the
//! bounded-remap property after *every* step, and producing an op trace
//! that is bit-identical for the same seed (the determinism test runs
//! the driver twice and diffs).
//!
//! Determinism comes from quiescence, not from mocking: the driver
//! resolves every ticket before the next op and spins until departures
//! are processed, so each admission decision is a pure function of the
//! op history. The service itself runs its real worker threads.
//!
//! Seed control: `RESHARD_SEED=<u64>` overrides the default seed; the
//! chosen seed is echoed to stderr so any CI failure is reproducible
//! with `RESHARD_SEED=<printed> cargo test -p offloadnn-serve --test
//! reshard_harness`.

use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_serve::{router, Admitter, ChaosConfig, Outcome, Service, ServiceConfig, VerdictError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Ops the randomized driver performs (the acceptance floor is 1000).
const DRIVER_OPS: usize = 1200;
/// Task-id sample for the bounded-remap probe at each scale step.
const REMAP_KEYS: u32 = 4000;
/// Slack over the ideal `|Δn| / max(old, new)` moved fraction: six
/// standard deviations of the sampling noise at [`REMAP_KEYS`] ids.
const REMAP_EPSILON: f64 = 0.05;

fn harness_seed() -> u64 {
    match std::env::var("RESHARD_SEED") {
        Ok(s) => s.trim().parse().expect("RESHARD_SEED must parse as u64"),
        Err(_) => 0x0FF1_0AD5,
    }
}

/// Quiescent, deterministic service shape: one request per solver round
/// (no batching races), no expiry, no shedding pressure.
fn harness_config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        queue_capacity: 4096,
        batch_max: 1,
        batch_window: Duration::from_micros(1),
        admission_deadline: Duration::from_secs(3600),
        shed_watermark: 4096,
        chaos: ChaosConfig::default(),
        plan_cache: None,
    }
}

/// Driver-side verdict ledger, independent of the service's counters.
#[derive(Default)]
struct Ledger {
    submitted: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    expired: u64,
    departed: u64,
}

struct Driver {
    service: Service,
    rng: StdRng,
    next_id: u32,
    active: Vec<TaskId>,
    ledger: Ledger,
    trace: Vec<String>,
    tasks: Vec<offloadnn_core::task::Task>,
    options: Vec<Vec<offloadnn_core::instance::PathOption>>,
}

impl Driver {
    fn new(seed: u64, shards: usize) -> Self {
        let scenario = small_scenario(5);
        let service = Service::start(harness_config(shards), &scenario.instance).expect("service start");
        Self {
            service,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            active: Vec::new(),
            ledger: Ledger::default(),
            trace: Vec::new(),
            tasks: scenario.instance.tasks.clone(),
            options: scenario.instance.options.clone(),
        }
    }

    fn submit(&mut self, op: usize) {
        let proto = self.rng.random_range(0..self.tasks.len());
        let mut task = self.tasks[proto].clone();
        let id = TaskId(self.next_id);
        self.next_id += 1;
        task.id = id;
        let ticket = self.service.submit(task, self.options[proto].clone(), None).expect("not draining");
        self.ledger.submitted += 1;
        let outcome = ticket.wait().expect("no chaos: every ticket resolves");
        let line = match outcome {
            Outcome::Admitted { shard, .. } => {
                self.ledger.admitted += 1;
                self.active.push(id);
                format!("{op}: submit {} -> admitted@{shard}", id.0)
            }
            Outcome::Rejected { shard } => {
                self.ledger.rejected += 1;
                format!("{op}: submit {} -> rejected@{shard}", id.0)
            }
            Outcome::Shed { shard } => {
                self.ledger.shed += 1;
                format!("{op}: submit {} -> shed@{shard}", id.0)
            }
            Outcome::Expired { shard } => {
                self.ledger.expired += 1;
                format!("{op}: submit {} -> expired@{shard}", id.0)
            }
        };
        self.trace.push(line);
    }

    fn depart(&mut self, op: usize) {
        let idx = self.rng.random_range(0..self.active.len());
        let id = self.active.swap_remove(idx);
        self.service.depart(id);
        self.ledger.departed += 1;
        self.quiesce_departs();
        self.trace.push(format!("{op}: depart {}", id.0));
    }

    /// Spins until the service has processed every departure issued so
    /// far, so the next admission decision sees the freed capacity.
    fn quiesce_departs(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.service.metrics().departed < self.ledger.departed {
            assert!(Instant::now() < deadline, "departure never processed: service wedged");
            std::thread::yield_now();
        }
    }

    fn scale(&mut self, op: usize) {
        let target = 1 + self.rng.random_range(0..8usize);
        let old_n = self.service.shards();
        let report = self.service.scale_to(target).expect("scale_to succeeds");
        assert_eq!(report.from_shards, old_n);
        assert_eq!(report.to_shards, target);

        // Bounded remap: sampling a fixed keyspace at both shard counts,
        // the moved fraction must stay near the rendezvous ideal.
        if target != old_n {
            assert_eq!(self.service.shards(), target);
            let moved = (0..REMAP_KEYS)
                .filter(|&k| router::shard(TaskId(k), old_n) != router::shard(TaskId(k), target))
                .count();
            let frac = moved as f64 / REMAP_KEYS as f64;
            let ideal = (target.abs_diff(old_n)) as f64 / target.max(old_n) as f64;
            assert!(
                frac <= ideal + REMAP_EPSILON,
                "op {op}: remap {old_n} -> {target} moved {frac:.3} of keys, ideal {ideal:.3} + ε {REMAP_EPSILON}"
            );
        }
        self.trace.push(format!(
            "{op}: scale {old_n} -> {target} migrated={} gen={}",
            report.migrated, report.generation
        ));
    }

    /// Conservation and ledger agreement, checked after every op. The
    /// driver is quiescent here (all tickets resolved, departs drained),
    /// so the class-by-class comparison is exact, not racy.
    fn check(&self, op: usize) {
        let m = self.service.metrics();
        assert!(m.is_conserved(), "op {op}: conservation violated: {m}");
        assert_eq!(m.submitted, self.ledger.submitted, "op {op}: submitted drift");
        assert_eq!(m.admitted, self.ledger.admitted, "op {op}: admitted drift");
        assert_eq!(m.rejected, self.ledger.rejected, "op {op}: rejected drift");
        assert_eq!(m.shed, self.ledger.shed, "op {op}: shed drift");
        assert_eq!(m.expired, self.ledger.expired, "op {op}: expired drift");
        assert_eq!(m.departed, self.ledger.departed, "op {op}: departed drift");
    }

    fn step(&mut self, op: usize) {
        let roll = self.rng.random_range(0..100u32);
        if roll < 60 || (roll < 85 && self.active.is_empty()) {
            self.submit(op);
        } else if roll < 85 {
            self.depart(op);
        } else {
            self.scale(op);
        }
        self.check(op);
    }
}

/// Runs the seeded driver for `ops` steps and returns the op trace.
fn run_driver(seed: u64, ops: usize) -> Vec<String> {
    let mut driver = Driver::new(seed, 4);
    for op in 0..ops {
        driver.step(op);
    }
    let reshards = driver.service.metrics().reshards;
    let drain = driver.service.drain();
    assert!(drain.metrics.is_conserved(), "post-drain conservation: {}", drain.metrics);
    assert_eq!(drain.lost_shards, 0, "no chaos: every worker joins cleanly");
    assert_eq!(drain.metrics.reshards, reshards);
    let active_after_drain: u64 = drain.shards.iter().map(|s| s.snapshot.active_tasks as u64).sum();
    assert_eq!(
        active_after_drain,
        driver.ledger.admitted - driver.ledger.departed,
        "every admitted-not-departed task survives the reshard shuffle"
    );
    driver.trace
}

#[test]
fn seeded_driver_conserves_after_every_step() {
    let seed = harness_seed();
    eprintln!("reshard_harness seed = {seed} (override with RESHARD_SEED=<u64>)");
    let trace = run_driver(seed, DRIVER_OPS);
    assert_eq!(trace.len(), DRIVER_OPS);
    let scales = trace.iter().filter(|l| l.contains(": scale ")).count();
    assert!(scales >= 10, "seed {seed} exercised only {scales} reshards in {DRIVER_OPS} ops");
}

#[test]
fn same_seed_produces_identical_traces() {
    let seed = harness_seed() ^ 0xDE7E_1217;
    let a = run_driver(seed, 400);
    let b = run_driver(seed, 400);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "traces diverge at op {i}");
    }
    assert_eq!(a.len(), b.len());
}

#[test]
fn concurrent_scale_calls_serialize() {
    let scenario = small_scenario(5);
    let service = Service::start(harness_config(4), &scenario.instance).expect("service start");
    // Interleave submits with two racing scale_to calls: the reshard
    // lock serialises them, and neither loses a verdict.
    std::thread::scope(|scope| {
        let grow = scope.spawn(|| service.scale_to(8));
        let shrink = scope.spawn(|| service.scale_to(2));
        let mut tickets = Vec::new();
        for i in 0..200u32 {
            let mut task = scenario.instance.tasks[i as usize % scenario.instance.tasks.len()].clone();
            task.id = TaskId(i);
            let options = scenario.instance.options[i as usize % scenario.instance.options.len()].clone();
            tickets.push(service.submit(task, options, None).expect("not draining"));
        }
        for t in tickets {
            t.wait().expect("resolves through the double reshard");
        }
        let a = grow.join().expect("no panic").expect("grow succeeds");
        let b = shrink.join().expect("no panic").expect("shrink succeeds");
        // Both completed, in *some* serial order: generations 1 and 2.
        let mut gens = [a.generation, b.generation];
        gens.sort_unstable();
        assert_eq!(gens, [1, 2]);
    });
    assert_eq!(service.generation(), 2);
    let final_shards = service.shards();
    assert!(final_shards == 8 || final_shards == 2, "one of the two targets won: {final_shards}");
    let drain = service.drain();
    assert!(drain.metrics.is_conserved(), "{}", drain.metrics);
    assert_eq!(drain.metrics.reshards, 2);
    assert_eq!(drain.lost_shards, 0);
}

#[test]
fn scale_during_drain_is_refused() {
    let scenario = small_scenario(5);
    let service = Service::start(harness_config(3), &scenario.instance).expect("service start");
    service.begin_drain();
    assert!(
        matches!(service.scale_to(5), Err(offloadnn_serve::ServeError::Draining)),
        "resharding a draining fleet must be refused"
    );
    let drain = service.drain();
    assert!(drain.metrics.is_conserved());
    assert_eq!(drain.metrics.reshards, 0);
}

// ------------------------------------------------------------- chaos mode

/// A shard worker panics mid-stream. The rest of the fleet keeps
/// serving, submits racing the dead shard resolve (shed inline or lost
/// with the stranded queue — never hung), and `scale_to` self-heals the
/// fleet so post-heal traffic is clean again.
#[test]
fn chaos_panic_is_contained_and_healed_by_scale_to() {
    let scenario = small_scenario(5);
    let mut config = harness_config(4);
    config.chaos = ChaosConfig { panic_shard_at_round: Some((1, 5)), slow_solver: Duration::ZERO };
    let service = Service::start(config, &scenario.instance).expect("service start");

    // Each wave returns (resolved, lost): tickets either get a verdict
    // or resolve `Lost` when their shard's worker died — never hang.
    let submit_wave = |base: u32, count: u32| -> (u64, u64) {
        let mut tickets = Vec::new();
        for i in 0..count {
            let proto = (base + i) as usize % scenario.instance.tasks.len();
            let mut task = scenario.instance.tasks[proto].clone();
            task.id = TaskId(base + i);
            tickets.push(
                service.submit(task, scenario.instance.options[proto].clone(), None).expect("not draining"),
            );
        }
        let mut resolved = 0u64;
        let mut lost = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(_) => resolved += 1,
                Err(VerdictError::Lost) => lost += 1,
                Err(e) => panic!("an in-process verdict is resolved or lost, not {e:?}"),
            }
        }
        (resolved, lost)
    };

    // First wave: enough traffic that shard 1 reaches solver round 5 and
    // panics; its stranded tickets resolve `Lost`, everyone else's
    // resolve normally. No wait ever hangs.
    let (resolved, lost) = submit_wave(0, 400);
    assert!(lost > 0, "chaos round was never reached: shard 1 got fewer than 5 rounds");
    assert_eq!(resolved + lost, 400, "a ticket neither resolved nor was declared lost");

    // Heal: any topology change respawns the dead shard.
    let report = service.scale_to(3).expect("reshard heals the dead shard");
    assert_eq!(report.to_shards, 3);

    // Post-heal traffic is fully clean — nothing lost, nothing stranded.
    let (post_resolved, post_lost) = submit_wave(10_000, 200);
    assert_eq!(post_lost, 0, "healed fleet must not lose tickets");
    assert_eq!(post_resolved, 200);

    let drain = service.drain();
    // The panicked worker was already reaped by the healing reshard, so
    // the drain itself joins only healthy workers...
    assert_eq!(drain.lost_shards, 0, "heal already replaced the dead worker");
    // ...but the service-level counters keep the scar: the stranded
    // tickets were submitted and never got a verdict, so conservation is
    // (correctly, visibly) broken rather than papered over.
    assert!(!drain.metrics.is_conserved(), "lost tickets must show up as a conservation deficit");
    assert_eq!(
        drain.metrics.submitted - drain.metrics.resolved(),
        lost,
        "the conservation deficit is exactly the driver-observed lost tickets"
    );
}

/// The same stranded tickets, redeemed through the unified handle: a
/// poll-only driver sees `Some(Err(Lost))` instead of spinning on `None`
/// forever, and a bounded wait reports `Lost` — at once, not `TimedOut`
/// — because the channel said disconnected, not empty.
#[test]
fn lost_tickets_resolve_lost_through_the_unified_handle() {
    let scenario = small_scenario(5);
    let mut config = harness_config(4);
    config.chaos = ChaosConfig { panic_shard_at_round: Some((1, 5)), slow_solver: Duration::ZERO };
    let service = Service::start(config, &scenario.instance).expect("service start");
    let admitter: &dyn Admitter = &service;
    let pending: Vec<_> = (0..400u32)
        .map(|i| {
            let proto = i as usize % scenario.instance.tasks.len();
            let mut task = scenario.instance.tasks[proto].clone();
            task.id = TaskId(i);
            admitter.submit(task, scenario.instance.options[proto].clone(), None).expect("not draining")
        })
        .collect();

    let give_up = Instant::now() + Duration::from_secs(20);
    let mut lost = 0u32;
    for (i, p) in pending.into_iter().enumerate() {
        let verdict = loop {
            if let Some(v) = p.poll() {
                break v;
            }
            assert!(Instant::now() < give_up, "ticket {i} polls None forever");
            std::thread::yield_now();
        };
        if let Err(e) = verdict {
            assert_eq!(e, VerdictError::Lost);
            // Nothing was consumed, so the same handle also answers the
            // bounded wait: a dead worker is not a timeout.
            assert_eq!(p.wait_timeout(Duration::from_secs(30)), Err(VerdictError::Lost), "ticket {i}");
            lost += 1;
        }
    }
    assert!(lost > 0, "chaos round was never reached: shard 1 got fewer than 5 rounds");
    assert!(Instant::now() < give_up, "lost tickets must resolve promptly, not at the wait bound");
    drop(service.drain());
}

/// A pathologically slow solver stretches rounds while a reshard runs:
/// verdicts still arrive, nothing is lost, and conservation holds.
#[test]
fn chaos_slow_solver_during_reshard_conserves() {
    let scenario = small_scenario(5);
    let mut config = harness_config(3);
    config.batch_max = 16; // let requests coalesce behind the slow rounds
    config.chaos = ChaosConfig { panic_shard_at_round: None, slow_solver: Duration::from_millis(2) };
    let service = Service::start(config, &scenario.instance).expect("service start");

    let mut tickets = Vec::new();
    for i in 0..150u32 {
        let proto = i as usize % scenario.instance.tasks.len();
        let mut task = scenario.instance.tasks[proto].clone();
        task.id = TaskId(i);
        tickets.push(
            service.submit(task, scenario.instance.options[proto].clone(), None).expect("not draining"),
        );
        if i == 60 {
            service.scale_to(6).expect("grow mid-stream");
        }
        if i == 120 {
            service.scale_to(2).expect("shrink mid-stream");
        }
    }
    for t in tickets {
        t.wait().expect("slow is not dead: every ticket resolves");
    }
    let drain = service.drain();
    assert!(drain.metrics.is_conserved(), "{}", drain.metrics);
    assert_eq!(drain.metrics.submitted, 150);
    assert_eq!(drain.metrics.reshards, 2);
    assert_eq!(drain.lost_shards, 0);
}
