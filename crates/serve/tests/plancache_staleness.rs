//! Staleness harness: every event that can make a memoized answer wrong
//! — positive-plan TTL expiry, CLOCK capacity eviction, any movement of
//! the shard's ledger under a memoized rejection (admission, departure,
//! the memo's own bound, another shard's different ledger),
//! reshard/repartition generation bumps, and chaos-healed respawns —
//! must force the serving stack back to a fresh solve. Each test drives
//! the real `Service` (sequential submit → wait, so counter reads are
//! race-free) and asserts on the plan-cache statistics plus the
//! solver-round counter.

use offloadnn_core::scenario::{small_scenario, Scenario};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_plancache::{PlanCacheConfig, PlanCacheStats};
use offloadnn_serve::{router, Admitter, ChaosConfig, Outcome, Service, ServiceConfig, VerdictError};
use std::collections::VecDeque;
use std::time::Duration;

fn config(shards: usize, plan_cache: PlanCacheConfig) -> ServiceConfig {
    ServiceConfig {
        shards,
        batch_max: 1,
        batch_window: Duration::from_micros(50),
        queue_capacity: 256,
        shed_watermark: 256,
        admission_deadline: Duration::from_secs(30),
        plan_cache: Some(plan_cache),
        ..ServiceConfig::default()
    }
}

/// A shape the solver always rejects: the request rate is inflated until
/// the compute cost of admitting any fraction exceeds its utility.
/// Rejections leave the ledger untouched, so repeat submissions to one
/// shard replay the memoized rejection deterministically.
fn infeasible_task(scenario: &Scenario, id: u32, variant: u64) -> Task {
    let mut task = scenario.instance.tasks[0].clone();
    task.id = TaskId(id);
    task.request_rate *= 1.0e6 + variant as f64;
    task
}

fn submit_wait(service: &Service, task: Task, proto: usize, scenario: &Scenario) -> Outcome {
    service
        .submit(task, scenario.instance.options[proto].clone(), None)
        .expect("not draining")
        .wait()
        .expect("worker resolves everything")
}

fn stats(service: &Service) -> PlanCacheStats {
    service.plan_cache_stats().expect("plan cache configured")
}

/// `(solver rounds, rejections replayed from the memo)` so far.
fn rounds_and_replays(service: &Service) -> (u64, u64) {
    (service.metrics().solver_rounds, stats(service).negative_hits)
}

/// The first `n` ids at or above `from` that the current fleet routes to `shard`.
fn pinned(service: &Service, shard: usize, from: u32, n: usize) -> Vec<u32> {
    let shards = service.shards();
    let ids: Vec<u32> =
        (from..from + 1000).filter(|&id| router::shard(TaskId(id), shards) == shard).take(n).collect();
    assert_eq!(ids.len(), n, "fleet routed fewer than {n} of 1000 ids to shard {shard}");
    ids
}

#[test]
fn positive_ttl_expiry_forces_a_fresh_solve() {
    let scenario = small_scenario(3);
    let pc = PlanCacheConfig { ttl: Duration::from_millis(300), ..PlanCacheConfig::default() };
    let service = Service::start(config(1, pc), &scenario.instance).expect("service start");

    // Warm: one repeated shape against a slack ledger replays its plan.
    let mut active: VecDeque<TaskId> = VecDeque::new();
    for i in 0..20u32 {
        let mut task = scenario.instance.tasks[0].clone();
        task.id = TaskId(i);
        if submit_wait(&service, task, 0, &scenario).is_admitted() {
            active.push_back(TaskId(i));
        }
        while active.len() > 4 {
            service.depart(active.pop_front().expect("non-empty"));
        }
    }
    let warm = stats(&service);
    assert!(warm.hits > 0, "warm phase never hit: {warm:?}");

    // Sit out the TTL; the resident plan must now be discarded and the
    // next request for the shape must pay for a solver round again.
    std::thread::sleep(Duration::from_millis(400));
    let rounds_before = service.metrics().solver_rounds;
    let mut task = scenario.instance.tasks[0].clone();
    task.id = TaskId(1000);
    submit_wait(&service, task, 0, &scenario);
    let after = stats(&service);
    assert!(after.expirations > warm.expirations, "TTL never expired the entry: {warm:?} -> {after:?}");
    assert!(service.metrics().solver_rounds > rounds_before, "expiry did not re-solve");
    assert!(service.drain().metrics.is_conserved());
}

#[test]
fn a_rejection_replays_only_until_the_ledger_moves() {
    let scenario = small_scenario(3);
    let service = Service::start(config(1, PlanCacheConfig::default()), &scenario.instance).expect("start");
    let reject = |id: u32| {
        assert!(!submit_wait(&service, infeasible_task(&scenario, id, 0), 0, &scenario).is_admitted());
        rounds_and_replays(&service)
    };

    // Solved once, then replayed for as long as nothing moves (no TTL).
    assert_eq!(reject(0), (1, 0));
    assert_eq!(reject(1), (1, 1));
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(reject(2), (1, 2));

    // An admission moves the ledger and retires the memoized rejection.
    let mut task = scenario.instance.tasks[0].clone();
    task.id = TaskId(3);
    assert!(submit_wait(&service, task, 0, &scenario).is_admitted());
    assert_eq!(rounds_and_replays(&service), (2, 2));
    assert_eq!(reject(4), (3, 2));
    assert_eq!(reject(5), (3, 3));

    // So does a departure (queued ahead of the next request, FIFO).
    service.depart(TaskId(3));
    assert_eq!(reject(6), (4, 3));
    assert_eq!(reject(7), (4, 4));

    assert_eq!(stats(&service).validation_failures, 0, "a rejection has nothing to validate");
    assert!(service.drain().metrics.is_conserved());
}

#[test]
fn one_shards_rejection_neither_replays_on_nor_evicts_for_another() {
    let scenario = small_scenario(3);
    let service = Service::start(config(2, PlanCacheConfig::default()), &scenario.instance).expect("start");

    // The same rejected shape, alternating between the two shards: each
    // shard solves it once against its own budget partition and replays
    // its own rejection from then on.
    let (on_0, on_1) = (pinned(&service, 0, 0, 10), pinned(&service, 1, 0, 10));
    for (&a, &b) in on_0.iter().zip(&on_1) {
        assert!(!submit_wait(&service, infeasible_task(&scenario, a, 0), 0, &scenario).is_admitted());
        assert!(!submit_wait(&service, infeasible_task(&scenario, b, 0), 0, &scenario).is_admitted());
    }
    let end = stats(&service);
    assert_eq!(service.metrics().solver_rounds, 2, "one solve per shard: {end:?}");
    assert_eq!(end.validation_failures, 0);
    assert_eq!(end.negative_hits, 18);
    assert!(service.drain().metrics.is_conserved());
}

#[test]
fn the_rejection_memo_is_bounded() {
    // `REJECTED_CAP` in `serve::shard` (private): a full memo is cleared.
    const CAP: u32 = 4096;
    let scenario = small_scenario(3);
    let service = Service::start(config(1, PlanCacheConfig::default()), &scenario.instance).expect("start");
    for k in 0..=CAP {
        assert!(!submit_wait(&service, infeasible_task(&scenario, k, k as u64), 0, &scenario).is_admitted());
    }
    assert_eq!(rounds_and_replays(&service), (CAP as u64 + 1, 0));

    // The ledger never moved, yet the first shape is solved again; the
    // latest one is still memoized.
    assert!(!submit_wait(&service, infeasible_task(&scenario, CAP + 1, 0), 0, &scenario).is_admitted());
    assert_eq!(rounds_and_replays(&service), (CAP as u64 + 2, 0));
    assert!(
        !submit_wait(&service, infeasible_task(&scenario, CAP + 2, CAP as u64), 0, &scenario).is_admitted()
    );
    assert_eq!(rounds_and_replays(&service), (CAP as u64 + 2, 1));
    assert!(service.drain().metrics.is_conserved());
}

#[test]
fn eviction_under_capacity_pressure_forces_fresh_solves() {
    let scenario = small_scenario(3);
    let pc = PlanCacheConfig { capacity: 4, shards: 1, ..PlanCacheConfig::default() };
    let service = Service::start(config(1, pc), &scenario.instance).expect("service start");
    let admit_then_depart = |id: u32, k: u32| {
        let mut task = scenario.instance.tasks[0].clone();
        task.id = TaskId(id);
        task.request_rate *= 1.0 + 0.001 * k as f64;
        assert!(submit_wait(&service, task, 0, &scenario).is_admitted());
        service.depart(TaskId(id));
    };

    // Twelve distinct shapes, each admitted in full against an empty
    // ledger (so each mints a plan) and departed again, through a 4-slot
    // cache: the early plans must be evicted.
    for k in 0..12u32 {
        admit_then_depart(k, k);
    }
    let filled = stats(&service);
    assert_eq!(filled.inserts, 12, "every full admission mints a plan: {filled:?}");
    assert!(filled.evictions > 0, "12 inserts through 4 slots evicted nothing: {filled:?}");

    // The first shape is long evicted: resubmitting it is a miss and a
    // fresh solve, not a replay.
    let rounds_before = service.metrics().solver_rounds;
    admit_then_depart(100, 0);
    let after = stats(&service);
    assert_eq!(
        after.hits + after.negative_hits,
        filled.hits + filled.negative_hits,
        "an evicted entry must not hit: {filled:?} -> {after:?}"
    );
    assert!(after.misses > filled.misses);
    assert!(service.metrics().solver_rounds > rounds_before);
    assert!(service.drain().metrics.is_conserved());
}

#[test]
fn reshard_and_repartition_force_fresh_solves() {
    let scenario = small_scenario(3);
    let service = Service::start(config(2, PlanCacheConfig::default()), &scenario.instance).expect("start");

    // Warm a rejection and confirm it replays. The ids are pinned to one
    // shard: each shard memoizes its own rejections (it rejects against
    // its own budget partition), so cross-shard ids would re-solve.
    for id in pinned(&service, 0, 0, 4) {
        assert!(!submit_wait(&service, infeasible_task(&scenario, id, 0), 0, &scenario).is_admitted());
    }
    let warm = stats(&service);
    assert!(warm.negative_hits > 0, "warm phase never replayed: {warm:?}");

    // Scale out: every survivor's ledger is repartitioned (its memo is
    // cleared) and newcomers start empty, so the warmed shape must be
    // solved fresh.
    service.scale_to(3).expect("scale out");
    let rounds_before = service.metrics().solver_rounds;
    assert!(!submit_wait(&service, infeasible_task(&scenario, 100, 0), 0, &scenario).is_admitted());
    let after_out = stats(&service);
    assert_eq!(
        after_out.hits + after_out.negative_hits,
        warm.hits + warm.negative_hits,
        "a reshard must not leave replayable entries: {warm:?} -> {after_out:?}"
    );
    assert!(after_out.misses > warm.misses);
    assert!(service.metrics().solver_rounds > rounds_before, "reshard did not re-solve");

    // Scale back in: a repartition to fewer, larger budget slices —
    // again no replay of anything minted before.
    service.scale_to(1).expect("scale in");
    let before_in = stats(&service);
    assert!(!submit_wait(&service, infeasible_task(&scenario, 101, 0), 0, &scenario).is_admitted());
    let after_in = stats(&service);
    assert_eq!(
        after_in.hits + after_in.negative_hits,
        before_in.hits + before_in.negative_hits,
        "a repartition must not leave replayable entries: {before_in:?} -> {after_in:?}"
    );
    assert!(service.drain().metrics.is_conserved());
}

#[test]
fn chaos_heal_forces_fresh_solves() {
    let scenario = small_scenario(3);
    let mut cfg = config(2, PlanCacheConfig::default());
    cfg.chaos = ChaosConfig { panic_shard_at_round: Some((1, 3)), slow_solver: Duration::ZERO };
    let service = Service::start(cfg, &scenario.instance).expect("service start");

    // Drive traffic until shard 1 panics (its stranded tickets resolve
    // `Lost`; everything else resolves normally).
    let mut lost = 0u64;
    for i in 0..200u32 {
        let proto = i as usize % scenario.instance.tasks.len();
        let mut task = scenario.instance.tasks[proto].clone();
        task.id = TaskId(i);
        let ticket =
            service.submit(task, scenario.instance.options[proto].clone(), None).expect("not draining");
        if ticket.wait() == Err(VerdictError::Lost) {
            lost += 1;
        }
    }
    assert!(lost > 0, "chaos round was never reached");

    // Heal: a topology change respawns the dead worker (a same-count
    // scale_to is a no-op) with an empty memo and bumps the generation —
    // nothing minted before the panic may replay afterwards.
    service.scale_to(3).expect("heal");
    let healed = stats(&service);
    let rounds_before = service.metrics().solver_rounds;
    // Two post-heal submissions of one never-seen shape, pinned to the
    // same shard of the new fleet: the first must pay for a fresh solve,
    // the second replays the freshly minted rejection — proving the
    // cache works again after the respawn.
    let shard = router::shard(TaskId(10_000), service.shards());
    for id in pinned(&service, shard, 10_000, 2) {
        assert!(!submit_wait(&service, infeasible_task(&scenario, id, 0), 0, &scenario).is_admitted());
    }
    let after = stats(&service);
    assert!(service.metrics().solver_rounds > rounds_before, "post-heal solve did not happen");
    assert!(
        after.negative_hits > healed.negative_hits,
        "post-heal entries must be replayable again: {healed:?} -> {after:?}"
    );
    let drain = service.drain();
    assert_eq!(drain.lost_shards, 0, "heal already replaced the dead worker");
}
