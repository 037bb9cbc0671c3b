//! One round of one workload: fresh stack → first verdict → warm-up →
//! paced → saturation → departures settle → drain → output checks.

use crate::driver::{Driver, NullAdmitter, PhaseKind, PhaseReport, Slice, Tally};
use crate::stack::{Ledgers, Stack};
use crate::stats::{highest_supported, quantile_sorted};
use crate::trace::{summarize, Trace};
use crate::workloads::{Tier, Workload};
use offloadnn_core::instance::DotInstance;
use offloadnn_core::task::TaskId;
use offloadnn_serve::{Admitter, MetricsSnapshot, Outcome};
use offloadnn_telemetry::RegistrySnapshot;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Share of a round each phase gets: 0.5 s warm-up, 3.5 s paced and 2 s
/// saturation out of every 6 s, scaled to whatever the run allows.
const WARM_SHARE: f64 = 0.5 / 6.0;
const PACED_SHARE: f64 = 3.5 / 6.0;
const SAT_SHARE: f64 = 2.0 / 6.0;

/// How long a round keeps the cores busy before it sets up.
const HEAT_S: f64 = 0.6;

/// The generator ran late enough to colour the round's latencies.
const DISTURBED_LAG_MS: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
pub struct RoundPlan {
    /// Seconds of `host::heat` before set-up; 0 for a smoke round.
    pub heat_s: f64,
    pub warm_s: f64,
    pub paced_s: f64,
    /// 0 skips the saturation phase (traced rounds).
    pub sat_s: f64,
    /// `Some(time origin of the run's trace)` makes this the traced
    /// round: telemetry on, spans recorded.
    pub trace_origin: Option<Instant>,
}

impl RoundPlan {
    /// Splits `round_s` seconds of measuring into the three phases.
    pub fn untraced(round_s: f64) -> Self {
        Self {
            heat_s: HEAT_S,
            warm_s: round_s * WARM_SHARE,
            paced_s: round_s * PACED_SHARE,
            sat_s: round_s * SAT_SHARE,
            trace_origin: None,
        }
    }

    /// Warm-up and paced phase only, in the same proportion.
    pub fn paced_only(round_s: f64, trace_origin: Option<Instant>) -> Self {
        let scale = round_s / (WARM_SHARE + PACED_SHARE);
        Self {
            heat_s: HEAT_S,
            warm_s: scale * WARM_SHARE,
            paced_s: scale * PACED_SHARE,
            sat_s: 0.0,
            trace_origin,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Requests issued over the whole round, and those of them that
    /// were not decided by the solver.
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples of the paced phase.
    pub paced_verdicts: u64,
    /// Which percentiles `driver.verdict_p99_ms` / `p999_ms` could
    /// actually report with ten samples beyond them.
    pub tail_percentiles: (f64, f64),
    pub disturbed: bool,
    pub violations: Vec<String>,
    pub spans: Vec<crate::trace::Span>,
}

/// Submits one unjittered request and waits for its verdict: set-up ends
/// when the stack has answered for the first time.
fn first_verdict(admitter: &dyn Admitter, template: &DotInstance, tally: &mut Tally) -> Result<u64, String> {
    let mut task = template.tasks[0].clone();
    task.id = TaskId(u32::MAX);
    tally.attempted += 1;
    let pending = admitter
        .submit(task, template.options[0].clone(), None)
        .map_err(|e| format!("the fresh stack refused its first request: {e}"))?;
    match pending.wait_timeout(Duration::from_secs(10)) {
        Ok(outcome) => {
            tally.observe(&Ok(outcome));
            if matches!(outcome, Outcome::Admitted { .. }) {
                admitter.depart(TaskId(u32::MAX));
                return Ok(1);
            }
            Ok(0)
        }
        Err(e) => Err(format!("the fresh stack never answered its first request: {e}")),
    }
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `after - before` of the process-wide registry: counters by name, and
/// `(count, sum µs)` per span histogram.
struct RegistryDelta {
    counters: BTreeMap<&'static str, u64>,
    phases: BTreeMap<&'static str, (u64, u64)>,
}

impl RegistryDelta {
    fn between(before: &RegistrySnapshot, after: &RegistrySnapshot) -> Self {
        let old_counters: BTreeMap<_, _> = before.counters.iter().copied().collect();
        let old_phases: BTreeMap<_, _> =
            before.phases.iter().map(|(n, h)| (*n, (h.count, h.sum_us))).collect();
        Self {
            counters: after
                .counters
                .iter()
                .map(|(n, v)| (*n, v - old_counters.get(n).copied().unwrap_or(0)))
                .collect(),
            phases: after
                .phases
                .iter()
                .map(|(n, h)| {
                    let (count, sum) = old_phases.get(n).copied().unwrap_or((0, 0));
                    (*n, (h.count - count, h.sum_us - sum))
                })
                .collect(),
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn counters_under(&self, prefix: &str) -> f64 {
        self.counters.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| *v as f64).sum()
    }

    fn span_count(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |&(count, _)| count as f64)
    }

    fn span_mean_us(&self, name: &str) -> f64 {
        match self.phases.get(name) {
            Some(&(count, sum_us)) if count > 0 => sum_us as f64 / count as f64,
            _ => 0.0,
        }
    }
}

/// Latency samples a slice needs before its percentiles count.
const MIN_SLICE_SAMPLES: usize = 10;

/// Which slice of a phase stands for the phase. The sizing box loses a
/// core, or half the speed of both, for seconds at a time, and such
/// noise only ever subtracts: so a throughput reports its upper-decile
/// slice (the top tenth also holds the burst that follows a stall), a
/// time or a cost its lower-quartile slice, and a share, which noise
/// moves either way, its median slice.
const LOWER_QUARTILE: f64 = 0.25;
const MEDIAN: f64 = 0.5;
const UPPER_DECILE: f64 = 0.9;

/// The `q`-quantile over the slices for which `value` is defined.
fn quartile_slice(slices: &[Slice], q: f64, value: impl Fn(&Slice) -> Option<f64>) -> f64 {
    quantile_sorted(&sorted(slices.iter().filter_map(value).collect()), q)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean of a ledger latency histogram summed over several ledgers, ms.
fn mean_ms<'a>(hists: impl Iterator<Item = &'a offloadnn_serve::HistogramSnapshot>) -> f64 {
    let (count, sum_us) = hists.fold((0u64, 0u64), |(c, s), h| (c + h.count, s + h.sum_us));
    ratio(sum_us as f64 / 1e3, count as f64)
}

/// Driver tally against one ledger, class by class.
fn check_ledger(name: &str, ledger: &MetricsSnapshot, tally: &Tally, violations: &mut Vec<String>) {
    if !ledger.is_conserved() {
        violations.push(format!("{name} ledger is not conserved: {ledger:?}"));
    }
    let pairs = [
        ("submitted", ledger.submitted, tally.attempted - tally.refused),
        ("admitted", ledger.admitted, tally.admitted),
        ("rejected", ledger.rejected, tally.rejected),
        ("shed", ledger.shed, tally.shed),
        ("expired", ledger.expired, tally.expired),
    ];
    for (class, theirs, ours) in pairs {
        if theirs != ours {
            violations.push(format!("{name} ledger counts {theirs} {class}, the driver {ours}"));
        }
    }
}

fn sum_nodes(ledgers: &Ledgers) -> MetricsSnapshot {
    let mut nodes = ledgers.nodes.iter().map(|n| n.metrics);
    let mut sum = nodes.next().expect("every stack has a serve node");
    for m in nodes {
        sum.submitted += m.submitted;
        sum.admitted += m.admitted;
        sum.rejected += m.rejected;
        sum.shed += m.shed;
        sum.expired += m.expired;
        sum.departed += m.departed;
        sum.solver_rounds += m.solver_rounds;
        sum.solver_errors += m.solver_errors;
        sum.peak_queue_depth = sum.peak_queue_depth.max(m.peak_queue_depth);
    }
    sum
}

/// A stack that has answered its first request.
struct SetUp {
    scenario: offloadnn_core::scenario::Scenario,
    stack: Stack,
    /// The first request, as the driver's tally must count it.
    tally: Tally,
    departs: u64,
    setup_s: f64,
}

/// Set-up: scenario build (dnn → profiler → radio → core), stack start,
/// connect and probe until the first verdict.
fn set_up(workload: &Workload) -> Result<SetUp, String> {
    let started = Instant::now();
    let scenario = workload.scenario.build(workload.budget_scale);
    let stack = Stack::start(workload, &scenario.instance)?;
    let mut tally = Tally::default();
    let departs = first_verdict(stack.admitters()[0], &scenario.instance, &mut tally)?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok(SetUp { scenario, stack, tally, departs, setup_s })
}

/// Sets a stack up and takes it down again: one more `setup_s` sample.
pub fn setup_only(workload: &Workload) -> Result<f64, String> {
    let up = set_up(workload)?;
    up.stack.settle(up.departs)?;
    up.stack.finish();
    Ok(up.setup_s)
}

/// What one round left behind, before it is judged and summarized.
struct Driven {
    setup_s: f64,
    /// Every request of the round: first verdict, warm-up and both phases.
    tally: Tally,
    paced: PhaseReport,
    sat: Option<PhaseReport>,
    ledgers: Ledgers,
    /// The serve nodes' ledgers, summed.
    nodes: MetricsSnapshot,
    stream_fnv: u64,
    /// Traced rounds only: what the process-wide registry and the
    /// benchmark's own spans saw.
    registry: Option<RegistryDelta>,
    trace: Option<Trace>,
    /// The departures that did not reach their node in time, if any.
    unsettled: Option<String>,
}

fn drive(workload: &Workload, seed: u64, plan: RoundPlan) -> Result<Driven, String> {
    offloadnn_telemetry::set_enabled(plan.trace_origin.is_some());
    crate::host::heat(Duration::from_secs_f64(plan.heat_s));
    let SetUp { scenario, stack, tally: first, mut departs, setup_s } = set_up(workload)?;
    let admitters = stack.admitters();
    let registry_before = plan.trace_origin.map(|_| offloadnn_telemetry::global().snapshot());

    let trace = plan.trace_origin.map(Trace::starting_at);
    let mut driver = Driver::new(&admitters, &scenario.instance, workload, seed, trace);
    driver.round_tally = first;
    let warm = driver.run_phase(PhaseKind::Paced, plan.warm_s);
    let paced = driver.run_phase(PhaseKind::Paced, plan.paced_s);
    let sat = (plan.sat_s > 0.0).then(|| driver.run_phase(PhaseKind::Saturation, plan.sat_s));
    departs += driver.release_all() + warm.departs + paced.departs + sat.as_ref().map_or(0, |s| s.departs);
    let tally = driver.round_tally;
    let (stream, trace) = driver.into_parts();

    let unsettled = stack.settle(departs).err();
    let registry = registry_before
        .map(|before| RegistryDelta::between(&before, &offloadnn_telemetry::global().snapshot()));
    drop(admitters);
    let ledgers = stack.finish();
    let nodes = sum_nodes(&ledgers);
    Ok(Driven {
        setup_s,
        tally,
        paced,
        sat,
        ledgers,
        nodes,
        stream_fnv: stream.fnv(),
        registry,
        trace,
        unsettled,
    })
}

impl Driven {
    fn forward_share(&self) -> f64 {
        ratio(self.ledgers.forward.forwards as f64, self.tally.attempted as f64)
    }

    /// The output checks of one round.
    fn violations(&self, workload: &Workload) -> Vec<String> {
        let mut violations: Vec<String> = self.unsettled.iter().cloned().collect();
        for (name, ledger) in &self.ledgers.tiers {
            check_ledger(name, ledger, &self.tally, &mut violations);
        }
        check_ledger("serve nodes together", &self.nodes, &self.tally, &mut violations);
        for node in &self.ledgers.nodes {
            if !node.within_budgets() {
                violations.push(format!("a shard exceeded its budget partition: {:?}", node.shards));
            }
            if node.lost_shards > 0 {
                violations.push(format!("{} shard worker(s) died", node.lost_shards));
            }
        }
        if self.nodes.departed != self.tally.admitted {
            violations.push(format!(
                "{} tasks were admitted but {} departed",
                self.tally.admitted, self.nodes.departed
            ));
        }
        if workload.tier == Tier::Federated && self.forward_share() < 0.99 {
            violations
                .push(format!("only {:.3} of the requests took the forward path", self.forward_share()));
        }
        if let Some(reg) = &self.registry {
            for counter in ["gw.failover", "gw.hedges"] {
                if reg.counter(counter) > 0.0 {
                    violations.push(format!("{counter} = {} on a healthy cluster", reg.counter(counter)));
                }
            }
        }
        violations
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let paced = &self.paced.slices;
        let latency = |q: f64| {
            quartile_slice(paced, LOWER_QUARTILE, |s| {
                (s.latencies_ms.len() >= MIN_SLICE_SAMPLES)
                    .then(|| quantile_sorted(&sorted(s.latencies_ms.clone()), q))
            })
        };
        let slo = quartile_slice(paced, MEDIAN, |s| {
            (s.attempted > 0).then(|| s.slo_hits as f64 / s.attempted as f64)
        });
        // Stalls do not change who is admitted, and a slice of a low-rate
        // workload holds too few requests for a share: pooled over the phase.
        let (admitted_weight, offered_priority) =
            paced.iter().fold((0.0, 0.0), |(a, o), s| (a + s.admitted_weight, o + s.offered_priority));
        let mut e2e = BTreeMap::from([
            ("setup_s", self.setup_s),
            ("verdict_p50_ms", latency(0.5)),
            ("verdict_p90_ms", latency(0.9)),
            ("slo_share", slo),
            ("weighted_admit_share", ratio(admitted_weight, offered_priority)),
        ]);
        if let Some(sat) = &self.sat {
            let per_slice = quartile_slice(&sat.slices, UPPER_DECILE, |s| Some(s.verdicts_seen as f64));
            e2e.insert("sat_vps", per_slice / crate::driver::SAT_SLICE.as_secs_f64());
        }
        e2e
    }

    /// Driver and ledger metrics, which any round has, then what only a
    /// traced round can see. Also returns the percentiles the two tail
    /// metrics actually are.
    fn per_layer(&self, workload: &Workload) -> (BTreeMap<&'static str, f64>, (f64, f64)) {
        let (tally, nodes, ledgers) = (&self.tally, &self.nodes, &self.ledgers);
        let latencies = self.paced.latencies_sorted();
        let lags = sorted(self.paced.gen_lags_ms.clone());
        let supported = highest_supported(latencies.len(), &[0.5, 0.9, 0.99, 0.999]).unwrap_or(0.5);
        let tails = (supported.min(0.99), supported.min(0.999));
        let pc = ledgers.plan_cache();
        let node_latency_ms = mean_ms(ledgers.nodes.iter().map(|n| &n.metrics.latency));
        let round_ms = mean_ms(ledgers.nodes.iter().map(|n| &n.metrics.round_time));
        let mut layer = BTreeMap::from([
            ("driver.gen_lag_p99_ms", quantile_sorted(&lags, 0.99)),
            ("driver.gen_lag_max_ms", lags.last().copied().unwrap_or(0.0)),
            ("driver.verdict_p99_ms", quantile_sorted(&latencies, tails.0)),
            ("driver.verdict_p999_ms", quantile_sorted(&latencies, tails.1)),
            ("driver.paced_verdicts", latencies.len() as f64),
            ("driver.attempted", tally.attempted as f64),
            ("driver.failed", tally.failed() as f64),
            ("driver.failed_share", ratio(tally.failed() as f64, tally.attempted as f64)),
            (
                "driver.admit_share",
                ratio(self.paced.tally.admitted as f64, self.paced.tally.attempted as f64),
            ),
            (
                "driver.cpu_us_per_verdict",
                quartile_slice(&self.paced.slices, LOWER_QUARTILE, |s| {
                    (s.verdicts_seen > 0 && s.cpu_s > 0.0).then(|| s.cpu_s * 1e6 / s.verdicts_seen as f64)
                }),
            ),
            ("driver.stream_fnv", ((self.stream_fnv >> 32) ^ (self.stream_fnv & 0xffff_ffff)) as f64),
            ("plancache.hit_share", ratio(pc.hits as f64, pc.lookups() as f64)),
            ("plancache.negative_hit_share", ratio(pc.negative_hits as f64, pc.lookups() as f64)),
            // Hits of either kind whose plan could not be replayed: wasted lookups.
            (
                "plancache.validation_fail_share",
                ratio(pc.validation_failures as f64, (pc.hits + pc.negative_hits) as f64),
            ),
            ("plancache.evictions", pc.evictions as f64),
            ("plancache.invalidations", pc.invalidations as f64),
            ("serve.ledger_latency_ms", node_latency_ms),
            ("serve.queue_wait_ms", node_latency_ms - round_ms),
            ("serve.rounds", nodes.solver_rounds as f64),
            ("serve.mean_batch", ratio((nodes.submitted - nodes.shed) as f64, nodes.solver_rounds as f64)),
            ("serve.peak_queue", nodes.peak_queue_depth as f64),
            ("serve.shed", nodes.shed as f64),
            ("serve.expired", nodes.expired as f64),
            ("serve.departed", nodes.departed as f64),
        ]);
        if matches!(workload.tier, Tier::Gateway | Tier::Federated) {
            let forward = ledgers.forward;
            let per_node = ledgers.nodes.iter().map(|n| n.metrics.submitted as f64);
            let (least, most) = per_node.fold((f64::INFINITY, 0.0f64), |(lo, hi), n| (lo.min(n), hi.max(n)));
            layer.extend([
                ("gateway.hop_ms", mean_ms(std::iter::once(&ledgers.tiers[0].1.latency)) - node_latency_ms),
                ("gateway.forwards", forward.forwards as f64),
                ("gateway.forward_share", self.forward_share()),
                ("gateway.forward_win_share", ratio(forward.forward_wins as f64, forward.forwards as f64)),
                ("gateway.node_imbalance", ratio(most, least)),
            ]);
        }
        let (Some(reg), Some(trace)) = (&self.registry, &self.trace) else {
            return (layer, tails);
        };
        let calls = summarize(&trace.spans);
        let call_us = |span: &str| calls.get(span).map_or(0.0, |&(_, mean_us, _)| mean_us);
        layer.extend([
            ("serve.submit_call_us", call_us("serve.submit_call")),
            ("serve.depart_call_us", call_us("serve.depart_call")),
            ("net.client_submit_call_us", call_us("net.client_submit_call")),
            ("gateway.submit_call_us", call_us("gateway.submit_call")),
            ("gateway.depart_call_us", call_us("gateway.depart_call")),
            ("serve.ingress_us", reg.span_mean_us("serve.ingress")),
            ("serve.batch_us", reg.span_mean_us("serve.batch")),
            ("core.solver_round_us", reg.span_mean_us("solver.round")),
            ("core.solver_clique_us", reg.span_mean_us("solver.clique")),
            ("core.solver_tree_us", reg.span_mean_us("solver.tree")),
            ("core.solver_alloc_us", reg.span_mean_us("solver.alloc")),
            ("core.solver_rounds", reg.span_count("solver.round")),
            ("gateway.route_us", reg.span_mean_us("gw.route")),
            ("gateway.failovers", reg.counter("gw.failover")),
            ("gateway.hedges", reg.counter("gw.hedges")),
        ]);
        if workload.tier != Tier::Service {
            let verdicts = tally.verdicts() as f64;
            let rtt_us = reg.span_mean_us("net.rtt");
            let frames = reg.counters_under("net.tx.") + reg.counters_under("net.rx.");
            let wakeups = reg.counter("net.epoll.wakeups");
            layer.extend([
                ("net.rtt_mean_us", rtt_us),
                ("net.frames_per_verdict", ratio(frames, verdicts)),
                ("net.wire_ms", rtt_us / 1e3 - node_latency_ms),
                ("reactor.wakeups_per_verdict", ratio(wakeups, verdicts)),
                ("reactor.reads_per_wakeup", ratio(reg.counter("net.readiness.read"), wakeups)),
                ("reactor.writes_per_verdict", ratio(reg.counter("net.readiness.write"), verdicts)),
            ]);
        }
        (layer, tails)
    }
}

pub fn run_round(workload: &Workload, seed: u64, plan: RoundPlan) -> RoundResult {
    let driven = match drive(workload, seed, plan) {
        Ok(driven) => driven,
        Err(e) => return RoundResult { violations: vec![e], ..RoundResult::default() },
    };
    let (per_layer, tail_percentiles) = driven.per_layer(workload);
    RoundResult {
        end_to_end: driven.end_to_end(),
        attempted: driven.tally.attempted,
        failed: driven.tally.failed(),
        paced_verdicts: driven.paced.tally.verdicts(),
        tail_percentiles,
        disturbed: per_layer["driver.gen_lag_p99_ms"] > DISTURBED_LAG_MS,
        violations: driven.violations(workload),
        spans: driven.trace.map_or_else(Vec::new, |t| t.spans),
        per_layer,
    }
}

/// The driver alone: the paced schedule against an admitter that answers
/// at once. CPU µs per request.
pub fn driver_cost(workload: &Workload, template: &DotInstance, seed: u64, seconds: f64) -> f64 {
    let null = NullAdmitter;
    let admitters: [&dyn Admitter; 1] = [&null];
    let alone = Workload { blocking_waiters: 0, ..*workload };
    let mut driver = Driver::new(&admitters, template, &alone, seed, None);
    let report: PhaseReport = driver.run_phase(PhaseKind::Paced, seconds);
    ratio(report.cpu_s * 1e6, report.tally.attempted as f64)
}
