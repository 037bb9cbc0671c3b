//! The controller's move-only `submit` and its incremental block ledger,
//! checked against the public one-shot pieces they replaced.
//!
//! * **Differential oracle.** At every ledger state along a seeded churn
//!   stream, `Controller::submit` returns an outcome `==` (bit-for-bit in
//!   `admission` and `rbs`) to `residual_instance` over
//!   `Controller::deployed` + `OffloadnnSolver::solve`, and
//!   `options[chosen] == grant.option`.
//! * **Ledger equals recomputation.** After every operation,
//!   `snapshot()`, `deployed()`, `headroom()` and the per-block
//!   reference counts equal a from-scratch pass over `active()`.
//!
//! `LEDGER_SEED=<u64>` adds one more stream to the fixed ones.

use offloadnn_core::controller::{ActiveTask, AdmissionOutcome, AdmissionRequest, Controller};
use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::incremental::residual_instance;
use offloadnn_core::instance::{Budgets, DotInstance};
use offloadnn_core::scenario::{large_scenario, small_scenario, LoadLevel};
use offloadnn_core::task::TaskId;
use offloadnn_dnn::BlockId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

fn seeds() -> Vec<u64> {
    let mut seeds = vec![7, 0x0FF1_0AD0];
    if let Ok(raw) = std::env::var("LEDGER_SEED") {
        seeds.push(raw.trim().parse().unwrap_or_else(|_| panic!("LEDGER_SEED must be a u64, got {raw:?}")));
    }
    seeds
}

/// A seeded request source over a scenario's prototype tasks.
struct Stream<'a> {
    template: &'a DotInstance,
    rng: StdRng,
    next_id: u32,
}

impl Stream<'_> {
    fn requests(&mut self, n: usize) -> Vec<AdmissionRequest> {
        (0..n)
            .map(|_| {
                let proto = self.rng.random_range(0..self.template.tasks.len());
                let mut task = self.template.tasks[proto].clone();
                task.id = TaskId(self.next_id);
                self.next_id += 1;
                task.priority = (task.priority * self.rng.random_range(0.5..1.0f64)).clamp(0.05, 1.0);
                task.request_rate *= self.rng.random_range(0.5..1.5f64);
                AdmissionRequest { task, options: self.template.options[proto].clone() }
            })
            .collect()
    }
}

/// What `submit` must return, assembled from the public one-shot pieces
/// at the controller's current state.
fn oracle(
    controller: &Controller,
    template: &DotInstance,
    budgets: Budgets,
    requests: &[AdmissionRequest],
) -> AdmissionOutcome {
    let instance = DotInstance {
        tasks: requests.iter().map(|r| r.task.clone()).collect(),
        options: requests.iter().map(|r| r.options.clone()).collect(),
        budgets,
        ..template.clone()
    };
    let residual = residual_instance(&instance, &controller.deployed());
    let sol = OffloadnnSolver::new().solve(&residual).expect("well-formed round");
    let mut outcome = AdmissionOutcome { admitted: Vec::new(), chosen: Vec::new(), rejected: Vec::new() };
    for (i, req) in requests.iter().enumerate() {
        match sol.choices[i] {
            Some(o) if sol.admission[i] > 0.0 => {
                outcome.admitted.push(ActiveTask {
                    task: req.task.clone(),
                    option: req.options[o].clone(),
                    admission: sol.admission[i],
                    rbs: sol.rbs[i],
                });
                outcome.chosen.push(o);
            }
            _ => outcome.rejected.push(req.task.id),
        }
    }
    outcome
}

/// Submits through the oracle check; returns the outcome.
fn checked_submit(
    controller: &mut Controller,
    template: &DotInstance,
    budgets: Budgets,
    requests: Vec<AdmissionRequest>,
    ctx: &str,
) -> AdmissionOutcome {
    let expected = oracle(controller, template, budgets, &requests);
    let kept: Vec<_> = requests.iter().map(|r| (r.task.id, r.options.clone())).collect();
    let got = controller.submit(requests).expect("well-formed round");
    assert_eq!(got, expected, "submit diverged from residual_instance + solve ({ctx})");
    // Both lists keep request order: walk the requests once.
    let mut grants = got.admitted.iter().zip(&got.chosen);
    for (id, options) in kept.iter().filter(|(id, _)| !got.rejected.contains(id)) {
        let (grant, &chosen) = grants.next().expect("one grant per request not rejected");
        assert_eq!(grant.task.id, *id, "grants out of request order ({ctx})");
        assert_eq!(options[chosen], grant.option, "chosen index names another option ({ctx})");
    }
    assert!(grants.next().is_none(), "more grants than admitted requests ({ctx})");
    got
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The ledger equals a from-scratch recomputation over `active()`.
fn check_ledger(controller: &Controller, template: &DotInstance, budgets: Budgets, ctx: &str) {
    let mut holders = vec![0u32; template.block_memory.len()];
    let (mut compute, mut rbs) = (0.0, 0.0);
    for a in controller.active() {
        let distinct: HashSet<BlockId> = a.option.path.blocks.iter().copied().collect();
        assert_eq!(distinct.len(), a.option.path.blocks.len(), "a path lists a block twice ({ctx})");
        for b in distinct {
            holders[b.0 as usize] += 1;
        }
        compute += a.compute_usage();
        rbs += a.radio_usage();
    }
    assert_eq!(controller.block_refs(), &holders[..], "refcount != active paths holding the block ({ctx})");
    let resident: HashSet<BlockId> =
        holders.iter().enumerate().filter(|(_, &n)| n > 0).map(|(b, _)| BlockId(b as u32)).collect();
    let memory: f64 = resident.iter().map(|b| template.block_memory[b.0 as usize]).sum();

    let (snap, dep, head) = (controller.snapshot(), controller.deployed(), controller.headroom());
    assert_eq!(dep.blocks, resident, "deployed block set ({ctx})");
    assert_eq!(snap.deployed_blocks, resident.len(), "{ctx}");
    assert_eq!(snap.active_tasks, controller.active().len(), "{ctx}");
    for (what, got, want) in [
        ("memory", snap.memory_bytes, memory),
        ("compute", snap.compute_seconds, compute),
        ("rbs", snap.rbs, rbs),
        ("deployed memory", dep.memory_bytes, memory),
        ("deployed compute", dep.compute_seconds, compute),
        ("deployed rbs", dep.rbs, rbs),
        ("headroom rbs", head.rbs, (budgets.rbs - rbs).max(0.0)),
        ("headroom compute", head.compute_seconds, (budgets.compute_seconds - compute).max(0.0)),
        ("headroom memory", head.memory_bytes, (budgets.memory_bytes - memory).max(0.0)),
    ] {
        assert!(close(got, want), "{what}: ledger {got} vs recomputed {want} ({ctx})");
    }
    assert_eq!(snap.headroom, head, "{ctx}");
}

/// Drives two controllers (tasks migrate between them) through a seeded
/// mix of every ledger-moving operation, checking the oracle on every
/// submit and the recomputation after every step.
fn churn(template: &DotInstance, seed: u64, steps: usize) {
    let mut stream = Stream { template, rng: StdRng::seed_from_u64(seed), next_id: 0 };
    let mut budgets = [template.budgets; 2];
    let mut fleet = [
        Controller::new(template, OffloadnnSolver::new()),
        Controller::new(template, OffloadnnSolver::new()),
    ];
    let mut admitted_total = 0usize;
    for step in 0..steps {
        let me = stream.rng.random_range(0..2usize);
        let ctx = format!("seed {seed}, step {step}, controller {me}");
        match stream.rng.random_range(0..10u32) {
            0..=3 => {
                let n = stream.rng.random_range(1..9usize);
                let requests = stream.requests(n);
                let out = checked_submit(&mut fleet[me], template, budgets[me], requests, &ctx);
                assert!(out.accounts_for(n));
                admitted_total += out.admitted.len();
            }
            4 => {
                // A cached-plan replay: solve on a clone, apply on the original.
                let req = stream.requests(1).remove(0);
                let mut cold = fleet[me].clone();
                let out = cold.submit(vec![req.clone()]).expect("cold solve");
                if let (Some(grant), Some(&chosen)) = (out.admitted.first(), out.chosen.first()) {
                    let before = fleet[me].snapshot();
                    match fleet[me].try_apply_plan(
                        &req.task,
                        &req.options,
                        chosen,
                        grant.admission,
                        grant.rbs,
                    ) {
                        Some(applied) => {
                            assert_eq!(&applied, grant, "{ctx}");
                            assert_eq!(fleet[me].snapshot(), cold.snapshot(), "{ctx}");
                        }
                        // The solver clamps an exhausted residual budget
                        // to a sliver; validation re-checks the full cap.
                        // Only a controller that a budget shrink left at
                        // or over a cap may refuse a fresh plan.
                        None => {
                            let h = before.headroom;
                            assert!(
                                h.rbs == 0.0 || h.compute_seconds == 0.0 || h.memory_bytes == 0.0,
                                "a plan solved at this state must re-validate ({ctx})"
                            );
                            assert_eq!(
                                fleet[me].snapshot(),
                                before,
                                "a refused plan moved the ledger ({ctx})"
                            );
                        }
                    }
                }
            }
            5 | 6 => {
                let ids: Vec<TaskId> = fleet[me]
                    .active()
                    .iter()
                    .map(|a| a.task.id)
                    .filter(|_| stream.rng.random_bool(0.4))
                    .chain([TaskId(u32::MAX)]) // never held: must be ignored
                    .collect();
                assert_eq!(fleet[me].release(&ids), ids.len() - 1, "{ctx}");
            }
            7 => {
                // Keyspace handoff: a residue class moves to the other controller.
                let (modulus, residue) = (stream.rng.random_range(2..5u32), stream.rng.random_range(0..2u32));
                let moved = fleet[me].extract_if(|a| a.task.id.0 % modulus == residue);
                assert!(fleet[me].active().iter().all(|a| a.task.id.0 % modulus != residue), "{ctx}");
                fleet[1 - me].adopt(moved);
            }
            8 => {
                // Memory is scaled on its own and far down, so that the
                // residual block costs (not only the radio) decide rounds.
                let scale: f64 = stream.rng.random_range(0.5..1.5);
                let memory_scale: f64 = stream.rng.random_range(0.02..1.0);
                budgets[me] = Budgets {
                    rbs: template.budgets.rbs * scale,
                    compute_seconds: template.budgets.compute_seconds * scale,
                    memory_bytes: template.budgets.memory_bytes * memory_scale,
                    ..template.budgets
                };
                fleet[me].set_budgets(budgets[me]);
            }
            _ => {
                // A retiring shard hands everything over; a clone must
                // carry the ledger, not just the active list.
                if stream.rng.random_bool(0.5) {
                    let all = fleet[me].take_active();
                    assert!(fleet[me].active().is_empty() && fleet[me].snapshot().deployed_blocks == 0);
                    fleet[1 - me].adopt(all);
                } else {
                    fleet[me] = fleet[me].clone();
                }
            }
        }
        for (i, c) in fleet.iter().enumerate() {
            check_ledger(c, template, budgets[i], &ctx);
        }
    }
    assert!(admitted_total > 0, "seed {seed}: the stream never admitted anything");
}

#[test]
fn submit_and_ledger_match_their_oracles_on_the_small_scenario() {
    let scenario = small_scenario(5);
    for seed in seeds() {
        churn(&scenario.instance, seed, 400);
    }
}

#[test]
fn submit_and_ledger_match_their_oracles_on_the_large_scenario() {
    let scenario = large_scenario(LoadLevel::Low);
    for seed in seeds() {
        churn(&scenario.instance, seed, 60);
    }
}

#[test]
fn a_malformed_round_errs_and_leaves_the_controller_untouched() {
    let scenario = small_scenario(5);
    let template = &scenario.instance;
    let mut stream = Stream { template, rng: StdRng::seed_from_u64(11), next_id: 0 };
    let mut controller = Controller::new(template, OffloadnnSolver::new());
    checked_submit(&mut controller, template, template.budgets, stream.requests(3), "warm-up");
    let (snap, refs, active) =
        (controller.snapshot(), controller.block_refs().to_vec(), controller.active().to_vec());

    let mut bad = stream.requests(2);
    bad[1].options[0].path.blocks.push(BlockId(9_999_999));
    assert!(controller.submit(bad).is_err(), "an option naming an unknown block is malformed");

    assert_eq!(controller.snapshot(), snap);
    assert_eq!(controller.block_refs(), &refs[..]);
    assert_eq!(controller.active(), &active[..]);
    // The residual tables came back too: the next round still matches.
    checked_submit(&mut controller, template, template.budgets, stream.requests(4), "after the error");
    check_ledger(&controller, template, template.budgets, "after the error");
}
