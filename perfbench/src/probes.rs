//! Probes: benchmark-side spans around single calls into each crate's
//! public functions, replayed single-threaded over the first requests
//! of the workload's stream. They give the per-layer costs that a
//! request-level span cannot see from outside.

use crate::stream::{materialize, Stream};
use crate::trace::{summarize, Trace};
use crate::workloads::Workload;
use offloadnn_core::controller::{AdmissionRequest, Controller};
use offloadnn_core::scenario::{small_scenario, Scenario};
use offloadnn_core::task::TaskId;
use offloadnn_core::{objective, ExactSolver, OffloadnnSolver};
use offloadnn_dnn::{models::resnet18, Repository, TensorShape};
use offloadnn_emu::colosseum::{deployments, ColosseumConfig};
use offloadnn_gateway::router::{node_seed, rank, Candidate};
use offloadnn_net::codec::{OutcomeResponse, SubmitRequest};
use offloadnn_net::{decode, encode, Frame};
use offloadnn_plancache::{shape_fingerprint, CachedPlan, PlanCache, PlanCacheConfig, PlanKey};
use offloadnn_profiler::CostTable;
use offloadnn_serve::Outcome;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests of the stream each replaying probe covers.
const REPLAY: usize = 2_000;
/// Wall-clock cap per replaying probe of a full run: the large
/// scenario's requests cost over a millisecond each in the controller.
pub const PROBE_BUDGET: Duration = Duration::from_millis(700);

#[derive(Default)]
pub struct ProbeResults {
    /// Per-layer metric name → value.
    pub values: BTreeMap<&'static str, f64>,
    pub violations: Vec<String>,
}

/// Mean duration in `unit_ns` nanoseconds of the probe spans called
/// `span`.
fn mean_of(summary: &BTreeMap<&'static str, (u64, f64, f64)>, span: &str, unit_ns: f64) -> f64 {
    summary.get(span).map_or(0.0, |&(_, mean_us, _)| mean_us * 1e3 / unit_ns)
}

/// Records the summary of the probe spans from `first_span` on under
/// their metric names.
fn record_means(
    values: &mut BTreeMap<&'static str, f64>,
    trace: &Trace,
    first_span: usize,
    metrics: &[(&'static str, &str, f64)],
) {
    let summary = summarize(&trace.spans[first_span..]);
    for &(metric, span, unit_ns) in metrics {
        values.insert(metric, mean_of(&summary, span, unit_ns));
    }
}

/// The probes that do not depend on the workload; a run over several
/// workloads takes them once.
pub fn common(trace: &mut Trace) -> ProbeResults {
    let mut out = ProbeResults::default();
    let first_span = trace.spans.len();
    offloadnn_telemetry::set_enabled(true);

    trace.probe("dnn.model_build", || {
        let mut repo = Repository::new();
        black_box(repo.add_model(resnet18(60, 1000, TensorShape::new(3, 224, 224))));
    });

    // Heuristic against the exhaustive optimum, where that is tractable.
    let solver = OffloadnnSolver::new();
    let mut gap = 0.0;
    for t in 1..=5 {
        let small = small_scenario(t);
        let exact = trace.probe("core.exact_solve", || ExactSolver::new().solve(&small.instance));
        match (exact, solver.solve(&small.instance)) {
            (Ok(e), Ok(h)) => gap += (h.cost.total() - e.cost.total()) / e.cost.total() / 5.0,
            (e, h) => {
                out.violations.push(format!(
                    "exact-gap solve failed on small_scenario({t}): {:?} {:?}",
                    e.err(),
                    h.err()
                ));
            }
        }
    }
    // The objective sums block costs in hash-set order, which differs
    // from process to process in the last bit; this number must repeat
    // exactly, so it keeps nine decimals.
    let gap = (gap * 1e9).round() / 1e9;
    out.values.insert("core.exact_gap", gap);

    // Rendezvous ranking over a pool of two, as `gw-churn` routes.
    let pool: Vec<Candidate> = (0..2)
        .map(|i| Candidate { index: i, seed: node_seed(&format!("127.0.0.1:{}", 9000 + i)), weight: 1.0 })
        .collect();
    for key in 0..REPLAY as u64 {
        let order = trace.probe("gateway.rank", || rank(key, &pool));
        black_box(order);
    }

    // What one span of the program's own instrumentation costs, switched on.
    for _ in 0..REPLAY {
        trace.probe("telemetry.span", || {
            let _span = offloadnn_telemetry::span!("perfbench.probe");
        });
    }

    record_means(
        &mut out.values,
        trace,
        first_span,
        &[
            ("dnn.model_build_ms", "dnn.model_build", 1e6),
            ("gateway.rank_ns", "gateway.rank", 1.0),
            ("telemetry.span_ns", "telemetry.span", 1.0),
        ],
    );
    out
}

/// The probes over this workload's scenario and request stream, each
/// replay capped at `budget`. Also hands back the scenario it built.
pub fn for_workload(
    workload: &Workload,
    seed: u64,
    trace: &mut Trace,
    budget: Duration,
) -> (ProbeResults, Scenario) {
    let mut values = BTreeMap::new();
    let mut violations = Vec::new();
    let first_span = trace.spans.len();

    // profiler → core: what set-up is made of.
    let scenario: Scenario =
        trace.probe("core.scenario_build", || workload.scenario.build(workload.budget_scale));
    trace.probe("profiler.cost_table", || black_box(CostTable::profile(&scenario.repo, &scenario.profile)));
    let template = &scenario.instance;

    // The one-shot solve of the template, verified and deployed (Fig. 11).
    let solver = OffloadnnSolver::new();
    let mut solution = None;
    let solve_budget = Instant::now() + budget / 4;
    for _ in 0..20 {
        match trace.probe("core.solve", || solver.solve(template)) {
            Ok(s) => solution = Some(s),
            Err(e) => violations.push(format!("one-shot solve of {} failed: {e}", workload.scenario.label())),
        }
        if Instant::now() >= solve_budget {
            break;
        }
    }
    if let Some(solution) = &solution {
        let broken = objective::verify(template, solution);
        if !broken.is_empty() {
            violations
                .push(format!("one-shot solution of {} violates {broken:?}", workload.scenario.label()));
        }
        let cell = ColosseumConfig::reference();
        let deployed = deployments(template, solution, &cell);
        let started = Instant::now();
        match trace.probe("emu.run", || offloadnn_emu::sim::run(&deployed, &cell.emulator)) {
            Ok(report) => {
                let wall = started.elapsed().as_secs_f64();
                let events: u64 = report.stats.iter().map(|s| s.generated + s.completed).sum();
                let completed: u64 = report.stats.iter().map(|s| s.completed).sum();
                let missed: u64 = report.stats.iter().map(|s| s.deadline_misses).sum();
                let met = 1.0 - missed as f64 / completed.max(1) as f64;
                values.insert("emu.events_per_s", events as f64 / wall.max(1e-9));
                values.insert("emu.deadline_met_share", met);
                // The emulator's own tolerance: slices are sized at the
                // latency floor, so a jittered link grazes the bound
                // (emu::colosseum tests allow 10 % misses).
                if completed == 0 || met < 0.90 {
                    violations.push(format!(
                        "emulated deployment met {met:.3} of its deadlines ({completed} completed)"
                    ));
                }
            }
            Err(e) => violations.push(format!("emulation failed: {e}")),
        }
    }

    // Replays over the first requests of this workload's own stream.
    let mut stream = Stream::new(workload, template.tasks.len(), seed);
    let requests: Vec<_> = (0..REPLAY).map(|_| stream.next_req()).collect();

    // A bare controller with the same logical holds: one request per
    // round, departures counted in arrivals.
    let mut controller = Controller::new(template, solver);
    let mut holds = crate::driver::HoldHeap::default();
    let until = Instant::now() + budget;
    for (n, req) in requests.iter().enumerate() {
        while let Some((seq, ..)) = holds.pop_due(n as u64) {
            trace.probe("core.controller_release", || black_box(controller.release(&[TaskId(seq)])));
        }
        let (task, options) = materialize(template, req);
        match trace
            .probe("core.controller_submit", || controller.submit(vec![AdmissionRequest { task, options }]))
        {
            Ok(outcome) if !outcome.admitted.is_empty() => {
                holds.admit(req.seq, 0, crate::trace::NONE, n as u64, req.hold)
            }
            Ok(_) => {}
            Err(e) => violations.push(format!("bare controller refused request {}: {e}", req.seq)),
        }
        if Instant::now() >= until {
            break;
        }
    }

    // Plan cache: fingerprint, then insert and look up under it.
    let cache: PlanCache<CachedPlan> = PlanCache::new(PlanCacheConfig::default());
    let until = Instant::now() + budget;
    for req in &requests {
        let (task, options) = materialize(template, req);
        let shape = trace.probe("plancache.fingerprint", || shape_fingerprint(&task, &options));
        let key = PlanKey { shape, bucket: 0, generation: 0 };
        let plan = CachedPlan::Admit { option: 0, admission: 1.0, rbs: 4.0 };
        trace.probe("plancache.insert", || cache.insert(key, plan, false));
        if trace.probe("plancache.lookup", || cache.lookup(&key)).is_none() {
            violations.push(format!("plan cache lost the entry it was just given (request {})", req.seq));
        }
        if Instant::now() >= until {
            break;
        }
    }

    // Wire codec: this scenario's submit frame and an outcome frame.
    let until = Instant::now() + budget;
    for req in &requests {
        let (task, options) = materialize(template, req);
        let request_id = u64::from(req.seq) + 1;
        let submit = Frame::Submit(SubmitRequest { request_id, deadline_us: 0, task, options });
        let bytes = trace.probe("net.encode_submit", || encode(&submit));
        values.insert("net.submit_frame_bytes", bytes.len() as f64);
        let decoded = trace.probe("net.decode_submit", || decode(&bytes));
        let outcome = Frame::Outcome(OutcomeResponse { request_id, outcome: Outcome::Rejected { shard: 1 } });
        let out_bytes = trace.probe("net.encode_outcome", || encode(&outcome));
        let out_decoded = trace.probe("net.decode_outcome", || decode(&out_bytes));
        let round_trips = matches!(&decoded, Ok(Some((f, n))) if *f == submit && *n == bytes.len())
            && matches!(&out_decoded, Ok(Some((f, n))) if *f == outcome && *n == out_bytes.len());
        if !round_trips {
            violations.push(format!("codec round trip changed request {}", req.seq));
        }
        if Instant::now() >= until {
            break;
        }
    }

    record_means(
        &mut values,
        trace,
        first_span,
        &[
            ("profiler.cost_table_ms", "profiler.cost_table", 1e6),
            ("core.scenario_build_ms", "core.scenario_build", 1e6),
            ("core.solve_us", "core.solve", 1e3),
            ("core.controller_submit_us", "core.controller_submit", 1e3),
            ("core.controller_release_us", "core.controller_release", 1e3),
            ("plancache.fingerprint_ns", "plancache.fingerprint", 1.0),
            ("plancache.insert_ns", "plancache.insert", 1.0),
            ("plancache.lookup_ns", "plancache.lookup", 1.0),
            ("net.encode_submit_ns", "net.encode_submit", 1.0),
            ("net.decode_submit_ns", "net.decode_submit", 1.0),
            ("net.encode_outcome_ns", "net.encode_outcome", 1.0),
            ("net.decode_outcome_ns", "net.decode_outcome", 1.0),
        ],
    );
    (ProbeResults { values, violations }, scenario)
}
