//! Allocation guard: a request's option list is allocated once, at
//! ingress, and only moved or borrowed from there to the controller's
//! ledger. A deep copy anywhere on that path costs two allocations per
//! option (the path's block list and the label), so counting allocator
//! calls is an exact, repeatable gate against the copies coming back —
//! unlike a wall-clock ratio.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use offloadnn_core::controller::{AdmissionRequest, Controller};
use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::scenario::{large_scenario, LoadLevel, Scenario};
use offloadnn_core::task::TaskId;
use offloadnn_plancache::PlanCacheConfig;
use offloadnn_serve::{Admitter, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts every call that hands out memory (frees are not counted).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` unchanged; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Allocations of one `Service` round trip (submit → cache pass → solver
/// round → verdict → plan published → departure) for `options` candidate
/// paths.
fn round_trip(service: &Service, scenario: &Scenario, id: u32, options: usize) -> u64 {
    let mut task = scenario.instance.tasks[0].clone();
    task.id = TaskId(id);
    // A shape of its own, so the plan cache misses and the round solves.
    task.priority -= 1e-3 * f64::from(id);
    // An even sample of the 1 000 candidates (the feasible ones are not
    // among the first few).
    let all = &scenario.instance.options[0];
    let options: Vec<_> = all.iter().step_by(all.len() / options).take(options).cloned().collect();
    let before = allocations();
    let ticket = service.submit(task, options, None).expect("accepted");
    assert!(ticket.wait().expect("verdict").is_admitted(), "an empty edge admits the task");
    // The fence: the worker takes its messages in order, so once it has
    // counted this departure, everything it does after answering (the
    // plan is published then) is over as well.
    let fence = service.metrics().departed + 1;
    service.depart(TaskId(id));
    while service.metrics().departed < fence {
        std::thread::yield_now();
    }
    allocations() - before
}

#[test]
fn the_option_list_is_never_copied_between_ingress_and_ledger() {
    let scenario = large_scenario(LoadLevel::Low);
    let template = &scenario.instance;
    assert_eq!(template.options[0].len(), 1000);

    // One cold `Controller::submit` of a 1 000-option request. The first
    // round registers telemetry instruments; measure the second.
    let mut controller = Controller::new(template, OffloadnnSolver::new());
    let mut spent = Vec::new();
    for id in 0..3 {
        let mut task = template.tasks[0].clone();
        task.id = TaskId(id);
        let round = vec![AdmissionRequest { task, options: template.options[0].clone() }];
        let before = allocations();
        let outcome = controller.submit(round).expect("well-formed round");
        spent.push(allocations() - before);
        assert_eq!(outcome.admitted.len(), 1, "an empty edge admits the first task");
        controller.release(&[TaskId(id)]);
    }
    assert!(spent[1] < 64, "Controller::submit allocated {spent:?} times for one 1000-option request");
    assert_eq!(spent[1], spent[2], "the count repeats exactly: {spent:?}");

    // One round trip through the service runtime: the cost per request
    // does not depend on how many options it carries.
    let config = ServiceConfig {
        shards: 1,
        batch_max: 1,
        batch_window: Duration::from_millis(1),
        plan_cache: Some(PlanCacheConfig::default()),
        ..ServiceConfig::default()
    };
    let service = Service::start(config, template).expect("service starts");
    round_trip(&service, &scenario, 100, 1000); // warm-up: lazy statics, thread-locals
    let few = round_trip(&service, &scenario, 101, 15);
    let many = round_trip(&service, &scenario, 102, 1000);
    assert_eq!(many, round_trip(&service, &scenario, 103, 1000), "the count repeats exactly");
    println!("allocations: Controller::submit {spent:?}; round trip {few} (15 options) vs {many} (1000)");
    assert!(
        many <= 2 * few,
        "a 1000-option round trip allocated {many} times, a 15-option one {few}: something scales with the option count"
    );
    assert!(service.drain().metrics.is_conserved(), "the guard's own traffic conserves");
}
