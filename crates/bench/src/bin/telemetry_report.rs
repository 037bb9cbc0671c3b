//! Per-phase latency breakdown of an instrumented end-to-end run.
//!
//! Drives the sharded admission service with the shared load driver
//! (populating the `solver.*` and `serve.*` phases), replays a
//! short Colosseum-style emulation (populating `emu.step`), and prints
//! the global telemetry registry: one latency histogram per phase —
//! clique build, tree descent, convex allocation, ingress, batch
//! assembly, drain — plus counters, gauges and the event ring.
//!
//! The run is then repeated with telemetry switched off
//! ([`offloadnn_telemetry::set_enabled`]) to show (a) the wall-clock
//! overhead of instrumentation and (b) that the service's conservation
//! invariant holds identically in both configurations. A third pass
//! replays one Zipf-skewed stream twice — plan cache off, then on — and
//! prints the before/after solve-path comparison (solver rounds, mean
//! round time, throughput, hit rate). Exits non-zero if conservation is
//! violated in any run.
//!
//! ```text
//! cargo run --release -p offloadnn-bench --bin telemetry_report -- \
//!     --requests 5000 --shards 4 --seed 7
//! ```

use offloadnn_core::heuristic::OffloadnnSolver;
use offloadnn_core::instance::DotInstance;
use offloadnn_core::scenario::small_scenario;
use offloadnn_emu::colosseum::{validate, ColosseumConfig};
use offloadnn_plancache::PlanCacheConfig;
use offloadnn_serve::{drive, DrainReport, DriveConfig, DriveReport, Service, ServiceConfig, ShapePool};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

const USAGE: &str = "\
telemetry_report — per-phase latency breakdown of an instrumented load run

USAGE: telemetry_report [OPTIONS]

OPTIONS (all optional; defaults in brackets):
  --requests N   total requests offered to the service      [5000]
  --shards N     worker shards                              [4]
  --ues N        UEs in the reference scenario              [5]
  --seed N       RNG seed (printed in the run header)       [7]
  --jsonl        also emit the registry as JSON lines
  -h, --help     print this help
";

struct Args {
    requests: u64,
    shards: usize,
    ues: usize,
    seed: u64,
    jsonl: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self { requests: 5_000, shards: 4, ues: 5, seed: 7, jsonl: false }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--jsonl" => {
                args.jsonl = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--requests" => args.requests = value.parse().map_err(|e| bad(&e))?,
            "--shards" => args.shards = value.parse().map_err(|e| bad(&e))?,
            "--ues" => args.ues = value.parse().map_err(|e| bad(&e))?,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

/// One load run against a fresh service: what the driver saw, what the
/// service counted, and how long it took from first submit to drained.
struct LoadRun {
    report: DriveReport,
    drain: DrainReport,
    wall: Duration,
}

impl LoadRun {
    fn start(args: &Args, config: ServiceConfig, template: &DotInstance, shapes: Option<&ShapePool>) -> Self {
        let cfg = DriveConfig {
            requests: args.requests,
            driver: 0,
            drivers: 1,
            seed: args.seed,
            window: 64,
            max_active: 64,
            deadline: None,
        };
        let started = Instant::now();
        let service = Service::start(config, template).expect("service start");
        let report = drive(&service, &cfg, template, shapes, &AtomicU64::new(0));
        let drain = service.drain();
        Self { report, drain, wall: started.elapsed() }
    }

    fn is_conserved(&self) -> bool {
        let (tally, ledger) = (&self.report.tally, &self.drain.metrics);
        tally.errors() == 0 && ledger.is_conserved() && tally.mismatches(ledger).is_empty()
    }

    fn throughput_hz(&self) -> f64 {
        self.report.tally.outcomes() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn service_config(args: &Args) -> ServiceConfig {
    ServiceConfig {
        shards: args.shards,
        batch_window: Duration::from_micros(500),
        ..ServiceConfig::default()
    }
}

/// One full instrumented workload: a service load run plus a short
/// emulation replay of the same scenario's solution.
fn run_workload(args: &Args) -> Result<(LoadRun, Duration), Box<dyn std::error::Error>> {
    let scenario = small_scenario(args.ues);
    let start = Instant::now();
    let run = LoadRun::start(args, service_config(args), &scenario.instance, None);

    // A short emulation pass so the `emu.step` phase and event counters
    // appear alongside the solver/serve phases.
    let solution = OffloadnnSolver::new().solve(&scenario.instance)?;
    let mut emu_cfg = ColosseumConfig::reference();
    emu_cfg.emulator.duration = 5.0;
    validate(&scenario.instance, &solution, &emu_cfg)?;
    Ok((run, start.elapsed()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // Pass 1: instrumented. Phases/counters/events land in the global
    // registry; the service's own metrics land in its per-service one.
    offloadnn_telemetry::set_enabled(true);
    let (on_report, on_wall) = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let snapshot = offloadnn_telemetry::global().snapshot();

    println!("=== instrumented run ===");
    println!(
        "{} requests across {} shards (seed {}) in {:.3?}: {:.0} verdicts/s",
        args.requests,
        args.shards,
        args.seed,
        on_report.wall,
        on_report.throughput_hz()
    );
    println!("outcomes: {}\n{}", on_report.report.tally, on_report.drain.metrics);
    println!();
    println!("=== per-phase telemetry (global registry) ===");
    print!("{snapshot}");
    if args.jsonl {
        println!();
        println!("=== registry as JSON lines ===");
        print!("{}", snapshot.to_jsonl());
    }

    // Pass 2: telemetry off — every span!/count!/event! reduces to one
    // branch. The functional accounting must be unaffected.
    offloadnn_telemetry::set_enabled(false);
    let (off_report, off_wall) = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    offloadnn_telemetry::set_enabled(true);

    println!();
    println!("=== overhead (same workload, telemetry off) ===");
    println!(
        "wall clock: {on_wall:.3?} instrumented vs {off_wall:.3?} off ({:+.1}%)",
        100.0 * (on_wall.as_secs_f64() - off_wall.as_secs_f64()) / off_wall.as_secs_f64().max(1e-9),
    );
    for (name, report) in [("on", &on_report), ("off", &off_report)] {
        println!(
            "conservation (telemetry {name}): {}",
            if report.is_conserved() { "OK" } else { "VIOLATED" }
        );
    }

    if !on_report.is_conserved() || !off_report.is_conserved() {
        eprintln!("error: conservation violated — a request was lost or double-counted");
        return ExitCode::FAILURE;
    }
    let have = |p: &str| snapshot.phases.iter().any(|(n, h)| *n == p && h.count > 0);
    for phase in [
        "solver.clique",
        "solver.tree",
        "solver.alloc",
        "serve.ingress",
        "serve.batch",
        "serve.drain",
        "emu.step",
    ] {
        if !have(phase) {
            eprintln!("error: phase {phase} recorded no samples — instrumentation regressed");
            return ExitCode::FAILURE;
        }
    }

    // Pass 3: the same Zipf-skewed stream twice — plan cache off, then
    // on — isolating what the cache saves on the solve path.
    let scenario = small_scenario(args.ues);
    let cold_config = service_config(&args);
    let warm_config = ServiceConfig { plan_cache: Some(PlanCacheConfig::default()), ..cold_config };
    let shapes = ShapePool::new(32, 1.2, scenario.instance.tasks.len(), args.seed);
    let cold = LoadRun::start(&args, cold_config, &scenario.instance, Some(&shapes));
    let warm = LoadRun::start(&args, warm_config, &scenario.instance, Some(&shapes));
    println!();
    println!("=== plan cache (same Zipf stream: skew 1.2, pool 32; cache off -> on) ===");
    let (cm, wm) = (&cold.drain.metrics, &warm.drain.metrics);
    println!("solver rounds:   {} -> {}", cm.solver_rounds, wm.solver_rounds);
    println!("round mean:      {:.3?} -> {:.3?}", cm.round_time.mean(), wm.round_time.mean());
    println!(
        "throughput:      {:.0} -> {:.0} verdicts/s ({:+.1}%)",
        cold.throughput_hz(),
        warm.throughput_hz(),
        100.0 * (warm.throughput_hz() - cold.throughput_hz()) / cold.throughput_hz().max(1e-9),
    );
    let Some(pc) = warm.drain.plan_cache else {
        eprintln!("error: cached run reported no plan-cache stats");
        return ExitCode::FAILURE;
    };
    println!(
        "hit rate:        {:.1}% ({} hits, {} negative, {} misses)",
        100.0 * pc.hit_rate(),
        pc.hits,
        pc.negative_hits,
        pc.misses,
    );
    if !cold.is_conserved() || !warm.is_conserved() {
        eprintln!("error: conservation violated in the plan-cache comparison");
        return ExitCode::FAILURE;
    }
    if pc.hits + pc.negative_hits == 0 {
        eprintln!("error: a Zipf-skewed stream produced zero plan-cache hits");
        return ExitCode::FAILURE;
    }
    let after = offloadnn_telemetry::global().snapshot();
    if !after.phases.iter().any(|(n, h)| *n == "plancache.lookup" && h.count > 0) {
        eprintln!("error: phase plancache.lookup recorded no samples — instrumentation regressed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
