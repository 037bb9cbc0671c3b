//! Ingress validation: one hostile request must not kill a shard.
//!
//! A NaN request rate or a zero-bit quality level used to reach
//! `f64::clamp` in the allocator with a NaN bound and panic the shard
//! worker — the verdict was lost, the ledger stopped conserving and the
//! shard shed everything after it. [`validate_request`] refuses such a
//! request before it is counted; everything the scenarios and the load
//! generators produce still passes.

use offloadnn_core::instance::PathOption;
use offloadnn_core::scenario::{large_scenario, small_scenario, LoadLevel};
use offloadnn_core::task::Task;
use offloadnn_serve::{validate_request, Admitter, Outcome, Service, ServiceConfig, SubmitError};

type Mutation = fn(&mut Task, &mut Vec<PathOption>);

const HOSTILE: [(&str, Mutation); 8] = [
    ("NaN request rate", |t, _| t.request_rate = f64::NAN),
    ("infinite latency bound", |t, _| t.max_latency = f64::INFINITY),
    ("priority above 1", |t, _| t.priority = 1.5),
    ("zero-bit quality level", |_, o| o[0].quality.bits = 0.0),
    ("quality outside (0,1]", |_, o| o[0].quality.quality = 0.0),
    ("NaN accuracy", |_, o| o[0].accuracy = f64::NAN),
    ("negative processing time", |_, o| o[0].proc_seconds = -1.0),
    ("NaN training time", |_, o| o[0].training_seconds = f64::NAN),
];

#[test]
fn hostile_submits_are_refused_and_the_shard_keeps_admitting() {
    let scenario = small_scenario(4);
    let service =
        Service::start(ServiceConfig { shards: 1, ..ServiceConfig::default() }, &scenario.instance).unwrap();
    let (task, options) = (&scenario.instance.tasks[0], &scenario.instance.options[0]);
    for (what, mutate) in HOSTILE {
        let (mut task, mut options) = (task.clone(), options.clone());
        mutate(&mut task, &mut options);
        assert_eq!(service.submit(task, options, None).unwrap_err(), SubmitError::Invalid, "{what}");
    }
    assert_eq!(service.metrics().submitted, 0, "a refused request is never counted");

    // The one shard every hostile request would have reached still solves.
    let verdict = service.submit(task.clone(), options.clone(), None).unwrap().wait();
    assert!(matches!(verdict, Ok(Outcome::Admitted { .. })), "got {verdict:?}");
    let report = service.drain();
    assert!(report.metrics.is_conserved(), "ledger: {:?}", report.metrics);
    assert_eq!(report.metrics.submitted, 1);
}

#[test]
fn everything_the_scenarios_and_load_generators_produce_is_accepted() {
    let large = LoadLevel::ALL.map(large_scenario);
    for scenario in large.into_iter().chain([small_scenario(5)]) {
        for (task, options) in scenario.instance.tasks.iter().zip(&scenario.instance.options) {
            // The loadgen / perfbench jitter envelope: priority clamped
            // to [0.05, 1], request rate scaled by a positive factor.
            for (priority, rate) in [(0.0, 1e-3), (1.0, 1.0), (7.5, 40.0)] {
                let mut task = task.clone();
                task.priority = (task.priority * priority).clamp(0.05, 1.0);
                task.request_rate *= rate;
                assert_eq!(validate_request(&task, options), Ok(()), "{} x({priority}, {rate})", task.id);
            }
        }
    }
}
