//! Loopback load generator for the `offloadnn-net` TCP frontend.
//!
//! Starts an [`AnyServer`] on an ephemeral loopback port, drives it with
//! N concurrent [`Client`] connections pipelining admission submits,
//! then drains and cross-checks the end-to-end conservation invariant:
//!
//! ```text
//! offered = outcomes received + refused + transport-errored + lost
//! server.submitted = outcomes received  (per verdict class, exactly)
//! ```
//!
//! Exits non-zero on any violation, so CI can gate on it. The flag
//! surface, verdict tally and driver loop are the shared ones from
//! [`offloadnn_serve::loadgen::args`] — each connection's [`Client`] is
//! driven purely as a `&dyn Admitter`, the same loop body the other
//! tiers use.
//!
//! ```text
//! cargo run --release -p offloadnn-net --bin net_loadgen -- \
//!     --requests 20000 --clients 4 --shards 4
//! ```

use offloadnn_core::instance::PathOption;
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::Task;
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_plancache::PlanCacheConfig;
use offloadnn_serve::loadgen::args::{self, CommonArgs, DriveConfig, DriveReport, WireTally};
use offloadnn_serve::{ServiceConfig, ShapePool};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const USAGE: &str = "\
net_loadgen — loopback load generator for the offloadnn-net TCP frontend

USAGE: net_loadgen [OPTIONS]

OPTIONS (all optional; defaults in brackets):
  --frontend F        TCP frontend serving the run:
                      'threads' (reader+writer pair per
                      connection) or 'reactor' (fixed epoll
                      event-loop pool)                    [threads]
  --requests N        total submits across all clients    [20000]
  --clients N         concurrent client connections; the
                      server's connection limit is raised
                      to fit, so 512+ works against the
                      reactor frontend                    [4]
  --window N          per-client pipeline depth           [128]
  --shards N          service worker shards               [4]
  --ues N             UEs in the reference scenario       [5]
  --deadline-ms N     client-shipped admission budget, ms
                      (0 = server policy deadline)        [0]
  --max-active N      admitted tasks kept per client
                      before the oldest departs           [64]
  --snapshot-every N  interleave a metrics snapshot every
                      N submits per client (0 = never)    [0]
  --queue-capacity N  per-shard ingress queue bound       [1024]
  --batch-max N       max requests per solver round       [64]
  --batch-window-us N batch assembly window, µs           [2000]
  --seed N            RNG seed (task mix)                 [7]
  --scale-script S    comma-separated at:shards steps, e.g.
                      \"5000:8,15000:2\" — a control client
                      reshards the live server to `shards`
                      once `at` submits have been offered
                      across all clients                  [none]
  --shape-skew S      Zipf exponent of the task-shape mix;
                      0 keeps the uniform prototype draw  [0]
  --shape-pool N      distinct shapes in the Zipf pool    [64]
  --plan-cache B      true|false — enable the server-side
                      admission plan cache                [false]
  -h, --help          print this help
";

/// The flags only this binary understands.
struct Extra {
    snapshot_every: u64,
    queue_capacity: usize,
    batch_max: usize,
    batch_window_us: u64,
    scale_script: Vec<(u64, u32)>,
    plan_cache: bool,
}

fn parse_args() -> Result<(CommonArgs, Extra), String> {
    let s = ServiceConfig::default();
    let mut common = CommonArgs { requests: 20_000, window: 128, shards: s.shards, ..CommonArgs::default() };
    let mut extra = Extra {
        snapshot_every: 0,
        queue_capacity: s.queue_capacity,
        batch_max: s.batch_max,
        batch_window_us: s.batch_window.as_micros() as u64,
        scale_script: Vec::new(),
        plan_cache: false,
    };
    args::parse(USAGE, &mut common, |flag, it| {
        match flag {
            "--snapshot-every" | "--queue-capacity" | "--batch-max" | "--batch-window-us"
            | "--scale-script" | "--plan-cache" => {}
            _ => return Ok(false),
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--snapshot-every" => extra.snapshot_every = value.parse().map_err(|e| bad(&e))?,
            "--queue-capacity" => extra.queue_capacity = value.parse().map_err(|e| bad(&e))?,
            "--batch-max" => extra.batch_max = value.parse().map_err(|e| bad(&e))?,
            "--batch-window-us" => extra.batch_window_us = value.parse().map_err(|e| bad(&e))?,
            "--scale-script" => extra.scale_script = args::parse_scale_script(&value)?,
            "--plan-cache" => extra.plan_cache = value.parse().map_err(|e| bad(&e))?,
            _ => unreachable!("guarded above"),
        }
        Ok(true)
    })?;
    Ok((common, extra))
}

/// One driver connection: dial, hand the client to the shared
/// tier-agnostic drive loop, hang up. A failed dial charges this
/// driver's whole share as transport errors (the submits were offered
/// to a dead endpoint).
fn run_client(
    addr: std::net::SocketAddr,
    cfg: DriveConfig,
    protos: &[(Task, Vec<PathOption>)],
    shapes: Option<&ShapePool>,
    offered: &AtomicU64,
) -> DriveReport {
    let client = match Client::connect(addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(_) => {
            offered.fetch_add(cfg.requests, Ordering::Relaxed);
            return DriveReport {
                tally: WireTally { transport: cfg.requests, ..WireTally::default() },
                departed: 0,
            };
        }
    };
    let report = args::drive(&client, &cfg, protos, shapes, offered);
    client.close();
    report
}

fn main() -> ExitCode {
    let (common, extra) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let frontend: Frontend = match common.frontend.parse() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: --frontend {}: {e}", common.frontend);
            return ExitCode::from(2);
        }
    };
    let service_config = ServiceConfig {
        shards: common.shards,
        queue_capacity: extra.queue_capacity,
        batch_max: extra.batch_max,
        batch_window: Duration::from_micros(extra.batch_window_us),
        plan_cache: extra.plan_cache.then(PlanCacheConfig::default),
        ..ServiceConfig::default()
    };
    if let Err(e) = service_config.validate() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    let scenario = small_scenario(common.ues);
    let protos: Vec<_> =
        scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
    let shapes = (common.shape_skew > 0.0)
        .then(|| ShapePool::new(common.shape_pool, common.shape_skew, protos.len(), common.seed));

    // Raise the connection limit to fit the requested client fleet (+
    // the control connection and the shutdown wake), so --clients 512
    // exercises concurrency rather than the TooManyConnections path.
    let net_config = NetConfig {
        max_connections: NetConfig::default().max_connections.max(common.clients + 8),
        ..NetConfig::default()
    };
    let server =
        match AnyServer::start(frontend, ("127.0.0.1", 0), net_config, service_config, &scenario.instance) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: failed to start server: {e}");
                return ExitCode::FAILURE;
            }
        };
    let addr = server.local_addr();
    args::print_header(
        "net",
        &common.frontend,
        common.seed,
        format_args!(
            "{} requests, {} concurrent connection(s) x window {}, {} shard(s) — server {addr}",
            common.requests, common.clients, common.window, common.shards
        ),
    );
    if common.shape_skew > 0.0 {
        println!(
            "shapes: Zipf skew {:.2} over a pool of {} deterministic shapes (plan cache {})",
            common.shape_skew,
            common.shape_pool,
            if extra.plan_cache { "on" } else { "off" },
        );
    }

    let started = Instant::now();
    let per_client = common.requests / common.clients as u64;
    let remainder = common.requests % common.clients as u64;
    let mut total = DriveReport::default();
    let offered = AtomicU64::new(0);
    let clients_done = AtomicBool::new(false);
    let mut scale_errors = 0u64;
    let mut reshards: Vec<offloadnn_net::codec::ScaleResponse> = Vec::new();
    std::thread::scope(|scope| {
        // A dedicated control connection walks the scale script while the
        // load clients pipeline submits: each step fires once the global
        // offered count passes its threshold (or immediately once every
        // client has finished, so trailing steps still run). Resharding
        // is management plane, so it stays on the concrete Client.
        let controller = (!extra.scale_script.is_empty()).then(|| {
            let (script, offered, clients_done) = (&extra.scale_script, &offered, &clients_done);
            scope.spawn(move || {
                let mut responses = Vec::new();
                let mut errors = 0u64;
                let Ok(client) = Client::connect(addr, ClientConfig::default()) else {
                    return (responses, script.len() as u64);
                };
                let mut script = script.clone();
                script.sort_unstable();
                for (at, shards) in script {
                    while offered.load(Ordering::Relaxed) < at && !clients_done.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    match client.scale_to(shards) {
                        Ok(resp) => responses.push(resp),
                        Err(e) => {
                            eprintln!("error: scale_to({shards}) failed: {e}");
                            errors += 1;
                        }
                    }
                }
                client.close();
                (responses, errors)
            })
        });
        let handles: Vec<_> = (0..common.clients)
            .map(|idx| {
                let share = per_client + u64::from((idx as u64) < remainder);
                let mut cfg = DriveConfig::from_common(&common, idx, share);
                cfg.snapshot_every = extra.snapshot_every;
                let (protos, offered) = (&protos, &offered);
                let shapes = shapes.as_ref();
                scope.spawn(move || run_client(addr, cfg, protos, shapes, offered))
            })
            .collect();
        for h in handles {
            let r = h.join().expect("client thread");
            total.tally.merge(r.tally);
            total.departed += r.departed;
        }
        clients_done.store(true, Ordering::Relaxed);
        if let Some(c) = controller {
            let (responses, errors) = c.join().expect("scale controller thread");
            reshards = responses;
            scale_errors = errors;
        }
    });
    let wall = started.elapsed();
    let tally = total.tally;

    let report = server.shutdown();
    let m = &report.metrics;
    let submit_rate = common.requests as f64 / wall.as_secs_f64().max(1e-9);

    println!("\n— run —");
    println!(
        "wall {:.3?}   offered {}   {:.0} submits/s   departed {}",
        wall, common.requests, submit_rate, total.departed
    );
    println!("outcomes: {tally}");
    for r in &reshards {
        println!(
            "reshard:  {} -> {} shards, {} in-flight tasks migrated (generation {})",
            r.from_shards, r.to_shards, r.migrated, r.generation
        );
    }
    println!("\n— server (post-drain) —\n{m}");
    if let Some(pc) = &report.plan_cache {
        println!(
            "plan cache: hit rate {:.1}% ({} hits, {} negative, {} misses, {} evictions, {} invalidated)",
            100.0 * pc.hit_rate(),
            pc.hits,
            pc.negative_hits,
            pc.misses,
            pc.evictions,
            pc.invalidations,
        );
    }
    let telemetry = offloadnn_telemetry::global().snapshot();
    println!("\n— client-side telemetry (net.encode / net.rtt) —\n{telemetry}");

    // End-to-end conservation: every offered request is accounted for
    // exactly once, and the wire-observed verdicts match the server's
    // own counters class by class.
    let mut violations = Vec::new();
    if tally.outcomes() + tally.errors() != common.requests {
        violations.push(format!(
            "offered {} != outcomes {} + errors {}",
            common.requests,
            tally.outcomes(),
            tally.errors(),
        ));
    }
    if !m.is_conserved() {
        violations.push(format!(
            "server conservation violated: submitted {} != resolved {}",
            m.submitted,
            m.resolved()
        ));
    }
    if scale_errors > 0 || reshards.len() != extra.scale_script.len() {
        violations.push(format!(
            "scale script: {} of {} steps completed, {} errored",
            reshards.len(),
            extra.scale_script.len(),
            scale_errors
        ));
    }
    // Steps that targeted the current shard count are no-ops and don't
    // bump the server's reshard counter.
    let effective = reshards.iter().filter(|r| r.from_shards != r.to_shards).count() as u64;
    if m.reshards != effective {
        violations.push(format!(
            "server counted {} reshards, script performed {effective} topology changes",
            m.reshards
        ));
    }
    if tally.errors() == 0 {
        for (name, wire, server) in [
            ("submitted", tally.outcomes(), m.submitted),
            ("admitted", tally.admitted, m.admitted),
            ("rejected", tally.rejected, m.rejected),
            ("shed", tally.shed, m.shed),
            ("expired", tally.expired, m.expired),
        ] {
            if wire != server {
                violations.push(format!("{name}: wire saw {wire}, server counted {server}"));
            }
        }
    }
    if violations.is_empty() {
        println!("\nconservation: OK");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("error: {v}");
        }
        ExitCode::FAILURE
    }
}
