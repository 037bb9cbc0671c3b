//! `perf` — the repository's benchmark: six workloads driven open-loop
//! through `&dyn Admitter` over all four admission tiers, end-to-end
//! metrics as medians of interleaved untraced rounds, and one traced
//! round per workload for the per-layer budget. See `README.md` beside
//! this package for the metric glossary and the workload rationale.

mod compare;
mod driver;
mod host;
mod json;
mod metrics;
mod probes;
mod report;
mod round;
mod stack;
mod stats;
mod stream;
mod trace;
mod workloads;

use json::Json;
use report::WorkloadReport;
use round::{run_round, RoundPlan};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Untraced rounds per workload; each reported number is their median.
const ROUNDS: usize = 5;
/// Set-ups per workload beside those of its rounds: `setup_s` is a few
/// milliseconds on most stacks, and its median wants more than three.
const EXTRA_SETUPS: usize = 4;
/// Seconds one workload measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 12.0;
/// Phase length of `--smoke`.
const SMOKE_PHASE_S: f64 = 0.3;

const USAGE: &str = "\
perf — open-loop benchmark over the four admission tiers

  perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       [--smoke] [--out FILE] [--trace-out DIR]
  perf compare <a.json> <b.json> [--manifest BENCHMARK.json]

Without --workload every workload runs: three interleaved untraced
rounds each (end-to-end metrics, median of rounds), then one traced
round each (per-layer metrics), and a result file is written.
With --workload NAME one workload runs for --seconds seconds and the
last line of output is one JSON object: the end-to-end metrics after
--trace 0, the per-layer metrics after --trace 1.

  --seed N        seed of the generated request stream        [7]
  --seconds S     seconds one workload measures               [12]
  --smoke         one round of 0.3 s phases, every output check on,
                  no result file
  --out FILE      result file  [<target dir>/perf/result-seed<N>.json]
  --trace-out DIR spans of the traced rounds, JSON lines, as
                  DIR/trace-<workload>.jsonl        [<target dir>/perf]
";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both untraced and traced rounds (the full run).
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                parsed.workload = Some(
                    workloads::find(value)
                        .ok_or_else(|| format!("unknown workload {value} (one of {names:?})"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// The stream seed of one round: the run's own seed for the first (and
/// for the traced round), a fixed function of it for the others, so
/// the median over rounds also averages over streams.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Where the run leaves its files unless told otherwise: cargo's target
/// directory, which is never committed.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perf")
}

/// The traced part of one workload's run: probes, an untraced and a
/// traced paced round (their CPU difference is the tracing overhead),
/// and the driver alone against a null admitter.
fn traced_run(
    report: &mut WorkloadReport,
    (common, common_trace): (&probes::ProbeResults, &trace::Trace),
    seed: u64,
    plan: RoundPlan,
    probe_budget: Duration,
    trace_out: &Path,
) {
    let workload = report.workload;
    // Every workload's span file starts with the shared probes' spans.
    let mut trace = common_trace.clone();
    let origin = trace.origin;
    offloadnn_telemetry::set_enabled(true);
    let (probed, scenario) = probes::for_workload(workload, seed, &mut trace, probe_budget);
    let driver_us = round::driver_cost(workload, &scenario.instance, seed, (plan.paced_s * 0.2).min(0.5));
    drop(scenario);

    let plain = run_round(workload, seed, plan);
    let traced = run_round(workload, seed, RoundPlan { trace_origin: Some(origin), ..plan });

    // CPU per verdict is the untraced twin's; the traced round's excess
    // over it is what tracing costs.
    let cpu =
        |r: &round::RoundResult| r.per_layer.get("driver.cpu_us_per_verdict").copied().unwrap_or(f64::NAN);
    report.per_layer = traced.per_layer.clone();
    report.per_layer.extend(common.values.iter().map(|(k, v)| (*k, *v)));
    report.per_layer.extend(probed.values);
    report.per_layer.insert("driver.cpu_us_per_request", driver_us);
    report.per_layer.insert("driver.cpu_us_per_verdict", cpu(&plain));
    report.per_layer.insert("telemetry.overhead_share", (cpu(&traced) - cpu(&plain)) / cpu(&plain));
    report.tail_percentiles = traced.tail_percentiles;
    report.traced_disturbed = traced.disturbed;
    report.traced_attempted = plain.attempted + traced.attempted;
    report.traced_failed = plain.failed + traced.failed;
    report.violations.extend(common.violations.iter().cloned());
    report.violations.extend(probed.violations);
    report.violations.extend(plain.violations.iter().map(|v| format!("untraced twin: {v}")));
    report.violations.extend(traced.violations.iter().cloned());

    // Request spans index their parents within the round's own store.
    let offset = trace.spans.len() as u32;
    trace.spans.extend(traced.spans.iter().map(|s| trace::Span {
        parent: if s.parent == trace::NONE { trace::NONE } else { s.parent + offset },
        ..*s
    }));
    if let Err(e) = trace::write_jsonl(trace_out, &trace.spans) {
        report.violations.push(format!("could not write the spans to {}: {e}", trace_out.display()));
    }
}

fn result_file(args: &Args, round_s: f64, reports: &[WorkloadReport], telemetry_compiled_in: bool) -> Json {
    let host = host::fingerprint(telemetry_compiled_in);
    let lines = host::src_lines_per_crate(Path::new("."));
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_workload", Json::Num(args.seconds)),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("round_seconds", Json::Num(round_s)),
        ("host", Json::Obj(host.into_iter().map(|(k, v)| (k.to_owned(), Json::Str(v))).collect())),
        ("src_lines", Json::Obj(lines.into_iter().map(|(k, v)| (k, Json::Num(v as f64))).collect())),
        ("workloads", Json::Arr(reports.iter().map(WorkloadReport::to_json).collect())),
    ])
}

fn run(args: &Args) -> ExitCode {
    let origin = Instant::now();
    offloadnn_telemetry::set_enabled(true);
    let telemetry_compiled_in = offloadnn_telemetry::enabled();
    let selected: Vec<&'static Workload> =
        args.workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
    let (rounds, round_s, probe_budget) = if args.smoke {
        (1, SMOKE_PHASE_S * 3.0, Duration::from_millis(40))
    } else {
        (ROUNDS, args.seconds / ROUNDS as f64, probes::PROBE_BUDGET)
    };
    let mut reports: Vec<WorkloadReport> = selected.iter().map(|w| WorkloadReport::new(w)).collect();
    println!(
        "perf: seed {}, {} workload(s), {} round(s) of {:.2} s, {} core(s){}",
        args.seed,
        selected.len(),
        rounds,
        round_s,
        std::thread::available_parallelism().map_or(0, usize::from),
        if args.smoke { ", smoke" } else { "" },
    );

    // Untraced rounds, interleaved (W1..W6, W1..W6, ...), so a disturbed
    // stretch of the host hits every workload once instead of one
    // workload every time.
    if args.trace != Some(true) {
        let plan = if args.smoke {
            RoundPlan {
                heat_s: 0.0,
                warm_s: SMOKE_PHASE_S,
                paced_s: SMOKE_PHASE_S,
                sat_s: SMOKE_PHASE_S,
                trace_origin: None,
            }
        } else {
            RoundPlan::untraced(round_s)
        };
        for round in 0..rounds {
            for report in &mut reports {
                report.rounds.push(run_round(report.workload, round_seed(args.seed, round), plan));
            }
        }
        for report in reports.iter_mut().filter(|_| !args.smoke) {
            for _ in 0..EXTRA_SETUPS {
                match round::setup_only(report.workload) {
                    Ok(setup_s) => report.extra_setups.push(setup_s),
                    Err(e) => report.violations.push(e),
                }
            }
        }
    }
    // Then the traced round of each.
    if args.trace != Some(false) {
        let mut common_trace = trace::Trace::starting_at(origin);
        let common = probes::common(&mut common_trace);
        let plan = if args.smoke {
            RoundPlan { heat_s: 0.0, ..RoundPlan::paced_only(SMOKE_PHASE_S * 2.0, None) }
        } else {
            RoundPlan::paced_only(round_s, None)
        };
        let dir = args.trace_out.clone().unwrap_or_else(output_dir);
        for report in &mut reports {
            let path = dir.join(format!("trace-{}.jsonl", report.workload.name));
            traced_run(report, (&common, &common_trace), args.seed, plan, probe_budget, &path);
        }
    }

    for report in &reports {
        report.print();
    }
    let violations: Vec<String> = reports.iter().flat_map(WorkloadReport::all_violations).collect();
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    if args.workload.is_none() && !args.smoke {
        let path =
            args.out.clone().unwrap_or_else(|| output_dir().join(format!("result-seed{}.json", args.seed)));
        let file = result_file(args, round_s, &reports, telemetry_compiled_in);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, file.pretty()));
        match written {
            Ok(()) => println!("result file: {}", path.display()),
            Err(e) => {
                println!("CHECK FAILED: could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "output checks: {} ({:.1} s wall)",
        if violations.is_empty() { "all passed".to_owned() } else { format!("{} FAILED", violations.len()) },
        origin.elapsed().as_secs_f64()
    );
    if let (Some(_), [report]) = (args.workload, &reports[..]) {
        // The driver's contract: one JSON object, last on standard output.
        println!("{}", report.driver_line(args.trace == Some(true)).compact());
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut manifest = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--manifest" {
            manifest = PathBuf::from(it.next().ok_or("--manifest needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = &files[..] else {
        return Err("compare takes exactly two result files".into());
    };
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (rows, trips) = compare::compare(&load(&manifest)?, &load(a)?, &load(b)?)?;
    compare::print(&rows, &trips);
    Ok(trips.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "compare") {
        return match run_compare(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Ok(parsed) => run(&parsed),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
