//! The sharded admission-control service runtime end to end: start a
//! fleet of controller shards, submit a burst of concurrent requests,
//! watch verdicts and live metrics, depart some admitted tasks, drain
//! gracefully, and check the conservation invariant.
//!
//! Run with `cargo run --release --example service_runtime`.

use offloadnn::core::scenario::small_scenario;
use offloadnn::core::task::TaskId;
use offloadnn::serve::{Admitter, Outcome, Service, ServiceConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = small_scenario(5);
    let instance = &scenario.instance;

    // Four shards, each owning a quarter of the edge budgets and its own
    // controller. Requests batch for up to 1 ms before a solver round.
    let config =
        ServiceConfig { shards: 4, batch_window: Duration::from_millis(1), ..ServiceConfig::default() };
    let service = Service::start(config, instance)?;
    println!(
        "started {} shards, each with {:.1} RBs / {:.2} GPU-s/s / {:.2} GB\n",
        config.shards,
        instance.budgets.rbs / config.shards as f64,
        instance.budgets.compute_seconds / config.shards as f64,
        instance.budgets.memory_bytes / config.shards as f64 / 1e9,
    );

    // Offer 40 requests derived from the scenario's five prototypes,
    // each with a unique task id (the id picks the shard).
    let mut tickets = Vec::new();
    for i in 0..40u32 {
        let proto = (i as usize) % instance.tasks.len();
        let mut task = instance.tasks[proto].clone();
        task.id = TaskId(1000 + i);
        tickets.push(service.submit(task, instance.options[proto].clone(), None)?);
    }

    // Redeem the tickets; every request gets exactly one verdict.
    let mut admitted: Vec<TaskId> = Vec::new();
    for ticket in tickets {
        let task = ticket.task();
        match ticket.wait()? {
            Outcome::Admitted { admission, rbs, shard } => {
                println!("task {:>4} -> shard {shard}: admitted (z = {admission:.2}, {rbs:.2} RBs)", task.0);
                admitted.push(task);
            }
            Outcome::Rejected { shard } => println!("task {:>4} -> shard {shard}: rejected", task.0),
            Outcome::Shed { shard } => println!("task {:>4} -> shard {shard}: shed (backpressure)", task.0),
            Outcome::Expired { shard } => println!("task {:>4} -> shard {shard}: expired in queue", task.0),
        }
    }

    let live = service.metrics();
    println!("\nlive metrics while running:\n{live}\n");

    // Half the admitted tasks finish; their shards release the capacity
    // (routing by task id reaches the controller that holds each task).
    let departing = admitted.len() / 2;
    for id in admitted.drain(..departing) {
        service.depart(id);
    }
    println!("departed {departing} tasks\n");

    // Graceful drain: ingress closes, every queued request still gets a
    // verdict, workers join and report their final controller state.
    let report = service.drain();
    println!("final metrics:\n{}\n", report.metrics);
    for shard in &report.shards {
        println!(
            "shard {}: {} rounds, {} tasks active at exit, peak {:.2}/{:.2} RBs",
            shard.shard, shard.rounds, shard.snapshot.active_tasks, shard.peak_rbs, shard.budgets.rbs
        );
    }

    assert!(report.metrics.is_conserved(), "every request must have exactly one verdict");
    assert!(report.within_budgets(), "no shard may exceed its budget partition");
    println!("\nconservation holds: submitted = admitted + rejected + shed + expired");
    Ok(())
}
