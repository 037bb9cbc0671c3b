//! Cached-equals-fresh equivalence, in three layers:
//!
//! 1. The *state equivalence property* the ISSUE pins: for the same
//!    (shape, ledger) state, applying a cached plan through the hit path
//!    produces the same outcome and the same budget deltas as a cold
//!    solve. Driven over random Zipf streams with interleaved
//!    departures, with every plan round-tripped through a real
//!    [`PlanCache`] so storage fidelity is part of the proof.
//! 2. A twin-service run over an identical stream asserting the
//!    system-level invariants that survive ledger drift: conservation on
//!    both twins, budget-safety on both twins, and the cached twin
//!    solving no more rounds than the fresh one while actually hitting.
//! 3. A bitwise twin comparison in the stable full-admission regime
//!    (one repeated shape, slack ledger), where replays are exact.
//!
//! The fixed seeds run everywhere; `PLANCACHE_SEED=<u64>` adds one more
//! so CI can fuzz fresh streams (`ci.sh` runs a fixed and a random one).

use offloadnn_core::controller::{AdmissionRequest, Controller};
use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_plancache::{
    budget_bucket, shape_fingerprint, CachedPlan, PlanCache, PlanCacheConfig, PlanKey,
};
use offloadnn_serve::{Admitter, Service, ServiceConfig, ShapePool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Duration;

/// Fixed seeds plus an optional CI-supplied one.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![7, 0x0FF1_0AD0];
    if let Ok(raw) = std::env::var("PLANCACHE_SEED") {
        match raw.trim().parse::<u64>() {
            Ok(seed) => seeds.push(seed),
            Err(_) => panic!("PLANCACHE_SEED must be a u64, got {raw:?}"),
        }
    }
    seeds
}

/// The core property: at every reachable ledger state along a random
/// stream, a cold solve on a cloned controller and a cache-path replay
/// on the live controller produce bit-identical outcomes and budget
/// deltas. Plans travel through a real cache (insert → lookup → apply),
/// so fingerprint collisions or value corruption would also fail here.
fn run_state_equivalence(seed: u64, requests: u32) {
    let scenario = small_scenario(5);
    let cache: PlanCache<CachedPlan> = PlanCache::new(PlanCacheConfig::default());
    let mut live = Controller::new(&scenario.instance, OffloadnnSolver::new());
    let pool = ShapePool::new(16, 1.2, scenario.instance.tasks.len(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: VecDeque<TaskId> = VecDeque::new();
    let mut replayed = 0u32;

    for i in 0..requests {
        let (proto, priority_factor, rate_factor) = pool.draw(&mut rng);
        let mut task = scenario.instance.tasks[proto].clone();
        task.id = TaskId(i);
        task.priority = (task.priority * priority_factor).clamp(0.05, 1.0);
        task.request_rate *= rate_factor;
        let options = scenario.instance.options[proto].clone();

        // Cold solve at the current state, on a clone.
        let mut cold = live.clone();
        let outcome = cold
            .submit(vec![AdmissionRequest { task: task.clone(), options: options.clone() }])
            .expect("cold solve");

        if let Some(grant) = outcome.admitted.first() {
            // Round-trip the plan through the cache, then replay the
            // *looked-up* value on the live twin at the same state.
            let option = options.iter().position(|o| o == &grant.option).expect("granted option exists");
            let key = PlanKey {
                shape: shape_fingerprint(&task, &options),
                bucket: budget_bucket(&live.snapshot().headroom, &scenario.instance.budgets),
                generation: 0,
            };
            cache.insert(
                key,
                CachedPlan::Admit { option, admission: grant.admission, rbs: grant.rbs },
                false,
            );
            let cached = cache.lookup(&key).expect("just inserted").value;
            let CachedPlan::Admit { option, admission, rbs } = cached;
            let applied = live
                .try_apply_plan(&task, &options, option, admission, rbs)
                .expect("a plan solved at this exact state must re-validate (request {i}, seed {seed})");
            assert_eq!(&applied, grant, "replayed grant diverged (request {i}, seed {seed})");
            active.push_back(TaskId(i));
            replayed += 1;
        } else {
            // Rejected: the live twin cold-solves the same request and
            // must reject it too (deterministic solver, same state).
            let mirrored = live.submit(vec![AdmissionRequest { task, options }]).expect("mirror solve");
            assert!(
                mirrored.admitted.is_empty(),
                "live twin admitted a shape the clone rejected (request {i}, seed {seed})"
            );
        }

        // Identical budget deltas: the ledgers must agree exactly.
        let (a, b) = (live.snapshot(), cold.snapshot());
        assert_eq!(a, b, "ledger diverged after request {i} (seed {seed})");

        // Departures churn the ledger so the property is checked across
        // many distinct states, not just the monotone fill-up.
        while active.len() > 10 {
            let oldest = active.pop_front().expect("non-empty");
            live.release(&[oldest]);
        }
    }
    assert!(replayed > 0, "stream never exercised the replay path (seed {seed})");
}

#[test]
fn cache_hit_equals_cold_solve_at_same_state() {
    for seed in seeds() {
        run_state_equivalence(seed, 300);
    }
}

fn twin_config(plan_cache: Option<PlanCacheConfig>) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        batch_max: 1,
        batch_window: Duration::from_micros(50),
        queue_capacity: 64,
        shed_watermark: 64,
        admission_deadline: Duration::from_secs(30),
        plan_cache,
        ..ServiceConfig::default()
    }
}

/// System-level invariants over an identical stream: both twins conserve
/// every request and stay within budget, and the cached twin pays for no
/// more solver rounds than the fresh one while actually serving hits.
#[test]
fn cached_twin_conserves_and_solves_less() {
    for seed in seeds() {
        let scenario = small_scenario(5);
        let cached = Service::start(twin_config(Some(PlanCacheConfig::default())), &scenario.instance)
            .expect("cached service start");
        let fresh = Service::start(twin_config(None), &scenario.instance).expect("fresh service start");

        let pool = ShapePool::new(16, 1.2, scenario.instance.tasks.len(), seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut active: VecDeque<TaskId> = VecDeque::new();
        for i in 0..400u32 {
            let (proto, priority_factor, rate_factor) = pool.draw(&mut rng);
            let mut task = scenario.instance.tasks[proto].clone();
            task.id = TaskId(i);
            task.priority = (task.priority * priority_factor).clamp(0.05, 1.0);
            task.request_rate *= rate_factor;
            let options = scenario.instance.options[proto].clone();

            let verdict = cached
                .submit(task.clone(), options.clone(), None)
                .expect("cached submit")
                .wait()
                .expect("cached verdict");
            fresh.submit(task, options, None).expect("fresh submit").wait().expect("fresh verdict");

            if verdict.is_admitted() {
                active.push_back(TaskId(i));
            }
            while active.len() > 12 {
                let oldest = active.pop_front().expect("non-empty");
                cached.depart(oldest);
                fresh.depart(oldest);
            }
        }

        let stats = cached.plan_cache_stats().expect("plan cache configured");
        assert!(
            stats.hits + stats.negative_hits > 0,
            "twin run never hit the cache (seed {seed}): {stats:?}"
        );

        let report_cached = cached.drain();
        let report_fresh = fresh.drain();
        assert!(report_cached.metrics.is_conserved(), "cached twin lost a request (seed {seed})");
        assert!(report_fresh.metrics.is_conserved(), "fresh twin lost a request (seed {seed})");
        assert!(report_cached.within_budgets(), "cached twin exceeded a budget (seed {seed})");
        assert!(report_fresh.within_budgets(), "fresh twin exceeded a budget (seed {seed})");
        assert!(
            report_cached.metrics.solver_rounds <= report_fresh.metrics.solver_rounds,
            "the cache made the solver work harder (seed {seed}): {} > {}",
            report_cached.metrics.solver_rounds,
            report_fresh.metrics.solver_rounds
        );
    }
}

/// Bitwise twin equality in the stable regime: one repeated shape
/// against a slack ledger stays in the full-admission corner, where a
/// validated replay is exactly what a fresh solve grants — so every
/// verdict and the final ledger must match bit-for-bit.
#[test]
fn hot_single_shape_stream_matches_cold_solve() {
    for proto in 0..3usize {
        let scenario = small_scenario(3);
        let cached = Service::start(twin_config(Some(PlanCacheConfig::default())), &scenario.instance)
            .expect("cached service start");
        let fresh = Service::start(twin_config(None), &scenario.instance).expect("fresh service start");

        let mut active: VecDeque<TaskId> = VecDeque::new();
        for i in 0..200u32 {
            let mut task = scenario.instance.tasks[proto].clone();
            task.id = TaskId(i);
            let options = scenario.instance.options[proto].clone();

            let verdict_cached = cached
                .submit(task.clone(), options.clone(), None)
                .expect("cached submit")
                .wait()
                .expect("cached verdict");
            let verdict_fresh =
                fresh.submit(task, options, None).expect("fresh submit").wait().expect("fresh verdict");
            assert_eq!(verdict_cached, verdict_fresh, "verdict diverged at request {i} (proto {proto})");

            if verdict_cached.is_admitted() {
                active.push_back(TaskId(i));
            }
            // A small active cap keeps the ledger slack, pinning the
            // stream to the regime where replays are provably exact.
            while active.len() > 6 {
                let oldest = active.pop_front().expect("non-empty");
                cached.depart(oldest);
                fresh.depart(oldest);
            }
        }

        let report_cached = cached.drain();
        let report_fresh = fresh.drain();
        for (a, b) in report_cached.shards.iter().zip(report_fresh.shards.iter()) {
            assert_eq!(a.snapshot, b.snapshot, "ledger diverged on shard {} (proto {proto})", a.shard);
        }
    }
}
