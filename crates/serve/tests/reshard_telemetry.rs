//! Telemetry consistency under live resharding: registry and service
//! snapshots taken *concurrently* with `serve.reshard` spans must be
//! internally consistent at every instant — counters monotonic, the
//! generation gauge never behind the reshard counter by more than the
//! in-progress span, and the quiescent totals exact.
//!
//! The same test body runs in both telemetry builds: with the default
//! features the `serve.reshard` phase histogram and reshard events are
//! asserted too; with `offloadnn-telemetry/disabled` those are compiled
//! out (the span assertions degrade to "absent or empty") while the
//! service's own counters must keep working — metrics are load-bearing,
//! not observability garnish. CI runs it both ways.

use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_serve::{Admitter, MetricsSnapshot, Service, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn consistent_at_any_instant(m: &MetricsSnapshot) {
    assert!(
        m.resolved() <= m.submitted,
        "more verdicts than submissions: {} resolved, {} submitted",
        m.resolved(),
        m.submitted
    );
    assert!(m.departed <= m.admitted, "departures only ever follow admissions: {m:?}");
    // `scale_to` publishes the new generation first, then counts the
    // completed reshard — a sampler may observe the gap of the reshard
    // in progress, but never a counter ahead of the generation.
    assert!(
        m.reshards <= m.generation && m.generation <= m.reshards + 1,
        "generation {} vs reshards {}: drifted past the in-progress window",
        m.generation,
        m.reshards
    );
}

#[test]
fn snapshots_concurrent_with_reshard_spans_are_consistent() {
    let scenario = small_scenario(5);
    let config = ServiceConfig {
        shards: 4,
        batch_max: 8,
        batch_window: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    let service = Service::start(config, &scenario.instance).expect("service start");
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Sampler: hammers both snapshot surfaces while reshards run.
        let sampler = scope.spawn(|| {
            let mut samples = 0u64;
            let mut last_counters: Vec<(&'static str, u64)> = Vec::new();
            while !stop.load(Ordering::Acquire) {
                consistent_at_any_instant(&service.metrics());

                // The service's own registry holds the fleet's counters
                // (spans and events go to the global one).
                let registry = service.telemetry().snapshot();
                // Counters are monotonic between any two observations.
                for (name, value) in &registry.counters {
                    if let Some((_, prev)) = last_counters.iter().find(|(n, _)| n == name) {
                        assert!(value >= prev, "counter {name} went backwards: {prev} -> {value}");
                    }
                }
                last_counters = registry.counters;
                samples += 1;
            }
            samples
        });

        // Load: a steady submit/depart stream across every reshard.
        let load = scope.spawn(|| {
            let mut admitted: Vec<TaskId> = Vec::new();
            for i in 0..600u32 {
                let proto = i as usize % scenario.instance.tasks.len();
                let mut task = scenario.instance.tasks[proto].clone();
                task.id = TaskId(i);
                let ticket = service
                    .submit(task, scenario.instance.options[proto].clone(), None)
                    .expect("not draining");
                if let Ok(offloadnn_serve::Outcome::Admitted { .. }) = ticket.wait() {
                    admitted.push(TaskId(i));
                }
                if admitted.len() > 32 {
                    service.depart(admitted.remove(0));
                }
            }
        });

        // Reshard storm: grow, shrink, grow while the other two threads
        // observe and load the fleet.
        for &target in &[7usize, 2, 5, 3] {
            service.scale_to(target).expect("scale_to");
            std::thread::sleep(Duration::from_millis(5));
        }

        load.join().expect("load thread");
        stop.store(true, Ordering::Release);
        let samples = sampler.join().expect("sampler thread");
        assert!(samples > 0, "the sampler must actually have raced the reshards");
    });

    // Quiescent totals: the service counters and the shared registry
    // agree exactly, in every build flavor.
    let final_metrics = service.metrics();
    assert_eq!(final_metrics.reshards, 4);
    assert_eq!(final_metrics.generation, 4);
    let fleet = service.telemetry().snapshot();
    let counter = |name: &str| fleet.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert_eq!(counter("serve.reshards"), Some(final_metrics.reshards));
    assert_eq!(counter("serve.migrated"), Some(final_metrics.migrated));

    // Spans and completion events record into the process-global
    // registry, gated on the telemetry build flavor.
    let registry = offloadnn_telemetry::global().snapshot();
    let reshard_phase = registry.phases.iter().find(|(n, _)| *n == "serve.reshard");
    if offloadnn_telemetry::enabled() {
        // Spans recorded one timing sample per completed reshard.
        let (_, hist) = reshard_phase.expect("serve.reshard phase histogram exists");
        assert_eq!(hist.count, final_metrics.reshards, "one serve.reshard span per reshard");
        assert!(
            registry.events.iter().any(|e| e.message.contains("resharded")),
            "reshard completion events are retained"
        );
    } else if let Some((_, hist)) = reshard_phase {
        assert_eq!(hist.count, 0, "disabled builds must not record span timings");
    }

    let drain = service.drain();
    assert!(drain.metrics.is_conserved(), "{}", drain.metrics);
    consistent_at_any_instant(&drain.metrics);
    assert_eq!(drain.lost_shards, 0);
}
