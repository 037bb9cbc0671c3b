//! Loopback load generator for the `offloadnn-gateway` cluster tier.
//!
//! Starts N backend [`AnyServer`] nodes on ephemeral loopback ports,
//! fronts them with a [`Gateway`], exposes the gateway itself through
//! the selected TCP frontend ([`AnyServer::start_with_backend`]), and
//! drives it with a fleet of [`Client`] connections pipelining
//! admission submits. Optionally kills one backend node mid-run so the
//! gateway's ejection + failover path carries live traffic, hot-joins a
//! brand-new node over the wire (`--join-node-at`, an Announce frame
//! followed by probation), gracefully departs a node
//! (`--leave-node-at`, a Leave frame) while its in-flight verdicts
//! drain, or federates the gateway with a second full cluster
//! (`--peer`): the primary cluster is deliberately starved
//! (`--queue-capacity`) so its would-be `Shed` overflow forwards over
//! `Forward` frames to the peer, and the run requires that
//! overflow to actually land there.
//!
//! The run is conservation-gated: every offered request must resolve
//! exactly once at the wire, the gateway's own ledger must balance,
//! and every backend node — including the killed one and the peer
//! cluster's — must be locally conserved. Exits non-zero on any
//! violation, so CI can gate on it. The flag surface, verdict tally
//! and driver loop are the shared ones from
//! [`offloadnn_serve::loadgen::args`]; each connection's [`Client`] is
//! driven purely as a `&dyn Admitter`.
//!
//! ```text
//! cargo run --release -p offloadnn-gateway --bin gateway_loadgen -- \
//!     --nodes 3 --requests 3000 --kill-node-at 1200
//! cargo run --release -p offloadnn-gateway --bin gateway_loadgen -- \
//!     --nodes 1 --shards 1 --queue-capacity 8 --requests 2000 --peer
//! ```

use offloadnn_core::instance::PathOption;
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::Task;
use offloadnn_gateway::{FederationConfig, Gateway, GatewayConfig, HedgeConfig};
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_plancache::PlanCacheConfig;
use offloadnn_serve::loadgen::args::{self, CommonArgs, DriveConfig, DriveReport, WireTally};
use offloadnn_serve::{ServiceConfig, ShapePool};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "\
gateway_loadgen — loopback load generator for the offloadnn-gateway tier

Topology: N backend serve nodes <- gateway <- TCP frontend <- clients,
optionally federated with a second peer cluster (--peer).

OPTIONS (all optional; defaults in brackets):
  --frontend F        TCP frontend for the gateway's own
                      listening side: 'threads' or 'reactor' [threads]
  --nodes N           backend serve nodes in the pool       [3]
  --requests N        total submits across all clients      [3000]
  --clients N         concurrent client connections         [4]
  --window N          per-client pipeline depth             [64]
  --shards N          worker shards per backend node        [2]
  --ues N             UEs in the reference scenario         [4]
  --deadline-ms N     client-shipped admission budget, ms
                      (0 = gateway policy deadline)         [0]
  --max-active N      admitted tasks kept per client
                      before the oldest departs             [64]
  --queue-capacity N  per-shard ingress queue bound on the
                      primary cluster's nodes; shrink it to
                      starve the cluster into shedding (the
                      --peer overflow lever)                [1024]
  --kill-node-at N    shut one backend node down once N
                      submits have been offered across all
                      clients (0 = never)                   [0]
  --kill-node IDX     which node --kill-node-at shuts down  [1]
  --join-node-at N    hot-join one extra backend node once N
                      submits have been offered: it starts,
                      announces itself over the wire (an
                      Announce frame) and serves traffic
                      after probation (0 = never)           [0]
  --leave-node-at N   gracefully leave one backend node once
                      N submits have been offered (a
                      Leave frame; the server stays up to
                      flush in-flight verdicts) (0 = never) [0]
  --leave-node IDX    which node --leave-node-at departs    [0]
  --hedge             enable deadline-aware hedging         [off]
  --peer              federate with a second cluster: the
                      primary gateway forwards its would-be
                      Shed overflow to it over
                      Forward frames; the run fails unless
                      overflow actually lands there         [off]
  --peer-nodes N      backend nodes in the peer cluster     [2]
  --shape-skew S      Zipf exponent of the task-shape mix;
                      0 keeps the uniform prototype draw    [0]
  --shape-pool N      distinct shapes in the Zipf pool      [64]
  --gw-cache          enable the gateway-level plan cache
                      (routing affinity + negative entries) [off]
  --seed N            RNG seed (task mix)                   [7]
  -h, --help          print this help
";

/// The flags only this binary understands.
struct Extra {
    nodes: usize,
    queue_capacity: usize,
    kill_node_at: u64,
    kill_node: usize,
    join_node_at: u64,
    leave_node_at: u64,
    leave_node: usize,
    hedge: bool,
    gw_cache: bool,
    peer: bool,
    peer_nodes: usize,
}

fn parse_args() -> Result<(CommonArgs, Extra), String> {
    let mut common = CommonArgs { requests: 3000, window: 64, ues: 4, ..CommonArgs::default() };
    let mut extra = Extra {
        nodes: 3,
        queue_capacity: ServiceConfig::default().queue_capacity,
        kill_node_at: 0,
        kill_node: 1,
        join_node_at: 0,
        leave_node_at: 0,
        leave_node: 0,
        hedge: false,
        gw_cache: false,
        peer: false,
        peer_nodes: 2,
    };
    args::parse(USAGE, &mut common, |flag, it| {
        // The value-less switches are claimed before any value is
        // pulled; every other extra flag takes exactly one value.
        match flag {
            "--hedge" => {
                extra.hedge = true;
                return Ok(true);
            }
            "--gw-cache" => {
                extra.gw_cache = true;
                return Ok(true);
            }
            "--peer" => {
                extra.peer = true;
                return Ok(true);
            }
            "--nodes" | "--queue-capacity" | "--kill-node-at" | "--kill-node" | "--join-node-at"
            | "--leave-node-at" | "--leave-node" | "--peer-nodes" => {}
            _ => return Ok(false),
        }
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--nodes" => extra.nodes = value.parse().map_err(|e| bad(&e))?,
            "--queue-capacity" => extra.queue_capacity = value.parse().map_err(|e| bad(&e))?,
            "--kill-node-at" => extra.kill_node_at = value.parse().map_err(|e| bad(&e))?,
            "--kill-node" => extra.kill_node = value.parse().map_err(|e| bad(&e))?,
            "--join-node-at" => extra.join_node_at = value.parse().map_err(|e| bad(&e))?,
            "--leave-node-at" => extra.leave_node_at = value.parse().map_err(|e| bad(&e))?,
            "--leave-node" => extra.leave_node = value.parse().map_err(|e| bad(&e))?,
            "--peer-nodes" => extra.peer_nodes = value.parse().map_err(|e| bad(&e))?,
            _ => unreachable!("guarded above"),
        }
        Ok(true)
    })?;
    if extra.nodes == 0 {
        return Err("--nodes must be >= 1".into());
    }
    if extra.kill_node_at > 0 {
        if extra.nodes < 2 {
            return Err("--kill-node-at needs at least 2 nodes (someone must survive)".into());
        }
        if extra.kill_node >= extra.nodes {
            return Err("--kill-node index out of range".into());
        }
    }
    if extra.leave_node_at > 0 {
        if extra.nodes < 2 && extra.join_node_at == 0 {
            return Err("--leave-node-at needs at least 2 nodes (someone must survive)".into());
        }
        if extra.leave_node >= extra.nodes {
            return Err("--leave-node index out of range".into());
        }
        if extra.kill_node_at > 0 && extra.leave_node == extra.kill_node {
            return Err("--leave-node and --kill-node must differ".into());
        }
    }
    if extra.peer && extra.peer_nodes == 0 {
        return Err("--peer-nodes must be >= 1".into());
    }
    Ok((common, extra))
}

/// One driver connection: dial, hand the client to the shared
/// tier-agnostic drive loop, hang up. A failed dial charges this
/// driver's whole share as transport errors.
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

/// Fast-failover gateway tuning so a mid-run kill (or a peer digest
/// gap) resolves well inside the verdict timeout; the defaults are
/// sized for real WAN probes.
fn fast_gateway_config() -> GatewayConfig {
    GatewayConfig {
        health_interval: Duration::from_millis(50),
        health_timeout: Duration::from_millis(250),
        eject_after: 2,
        probation: Duration::from_millis(500),
        default_deadline: Duration::from_secs(2),
        verdict_grace: Duration::from_secs(2),
        ..GatewayConfig::default()
    }
}

fn main() -> ExitCode {
    let (common, extra) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let frontend_kind: Frontend = match common.frontend.parse() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: --frontend {}: {e}", common.frontend);
            return ExitCode::from(2);
        }
    };
    let scenario = small_scenario(common.ues);
    let protos: Vec<_> =
        scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
    let shapes = (common.shape_skew > 0.0)
        .then(|| ShapePool::new(common.shape_pool, common.shape_skew, protos.len(), common.seed));
    let service_config = ServiceConfig {
        shards: common.shards,
        queue_capacity: extra.queue_capacity,
        ..ServiceConfig::default()
    };
    if let Err(e) = service_config.validate() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }

    // Backend pool: each node is a full serve stack behind its own TCP
    // frontend, exactly what a remote edge node would run.
    let nodes: Vec<Mutex<Option<AnyServer>>> = match (0..extra.nodes)
        .map(|_| {
            AnyServer::start(
                Frontend::Threads,
                ("127.0.0.1", 0),
                NetConfig::default(),
                service_config,
                &scenario.instance,
            )
            .map(|n| Mutex::new(Some(n)))
        })
        .collect()
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: failed to start backend node: {e}");
            return ExitCode::FAILURE;
        }
    };
    let node_addrs: Vec<_> = nodes
        .iter()
        .map(|n| n.lock().expect("node lock").as_ref().expect("node live").local_addr())
        .collect();

    // The peer cluster (--peer) is a second, independent gateway over
    // its own node pool with *default* queue capacity — plenty of
    // headroom to absorb the primary's overflow. It never forwards back
    // (no federation config of its own), so the topology is a strict
    // overflow drain.
    let peer_cluster = if extra.peer {
        let peer_service = ServiceConfig { shards: common.shards, ..ServiceConfig::default() };
        let peer_nodes: Vec<AnyServer> = match (0..extra.peer_nodes)
            .map(|_| {
                AnyServer::start(
                    Frontend::Threads,
                    ("127.0.0.1", 0),
                    NetConfig::default(),
                    peer_service,
                    &scenario.instance,
                )
            })
            .collect()
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: failed to start peer backend node: {e}");
                return ExitCode::FAILURE;
            }
        };
        let peer_addrs: Vec<_> = peer_nodes.iter().map(AnyServer::local_addr).collect();
        let peer_gateway = match Gateway::start(&peer_addrs, fast_gateway_config()) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: failed to start peer gateway: {e}");
                return ExitCode::FAILURE;
            }
        };
        let peer_frontend = match AnyServer::start_with_backend(
            frontend_kind,
            ("127.0.0.1", 0),
            NetConfig::default(),
            peer_gateway,
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: failed to start peer gateway frontend: {e}");
                return ExitCode::FAILURE;
            }
        };
        Some((peer_frontend, peer_nodes))
    } else {
        None
    };

    let mut gateway_config = GatewayConfig {
        hedge: HedgeConfig { enabled: extra.hedge, min_samples: 32 },
        plan_cache: extra.gw_cache.then(PlanCacheConfig::default),
        ..fast_gateway_config()
    };
    if let Some((peer_frontend, _)) = &peer_cluster {
        // Fast digest cadence for the same reason as the fast health
        // probes: the peer must be scored (digested) early in the run.
        gateway_config.federation = Some(FederationConfig {
            digest_interval: Duration::from_millis(50),
            digest_timeout: Duration::from_millis(250),
            eject_after: 2,
            ..FederationConfig::new("loadgen-primary", vec![peer_frontend.local_addr()])
        });
    }
    let gateway = match Gateway::start(&node_addrs, gateway_config) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: failed to start gateway: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The gateway is itself a Backend, so it mounts behind the same
    // reactor-or-threads frontend switch the single-node server uses.
    let net_config = NetConfig {
        max_connections: NetConfig::default().max_connections.max(common.clients + 8),
        ..NetConfig::default()
    };
    let frontend = match AnyServer::start_with_backend(frontend_kind, ("127.0.0.1", 0), net_config, gateway) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start gateway frontend: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = frontend.local_addr();
    args::print_header(
        "gateway",
        &common.frontend,
        common.seed,
        format_args!(
            "{} node(s) x {} shard(s), {} requests, {} client(s) x window {}{} — gateway {addr}",
            extra.nodes,
            common.shards,
            common.requests,
            common.clients,
            common.window,
            if extra.kill_node_at > 0 {
                format!(", killing node {} at {} offered", extra.kill_node, extra.kill_node_at)
            } else {
                String::new()
            },
        ),
    );
    if let Some((peer_frontend, _)) = &peer_cluster {
        println!(
            "federation: overflow forwards to peer cluster {} ({} node(s), queue capacity {} locally)",
            peer_frontend.local_addr(),
            extra.peer_nodes,
            extra.queue_capacity,
        );
    }
    if extra.join_node_at > 0 {
        println!("discovery: hot-joining one node at {} offered", extra.join_node_at);
    }
    if extra.leave_node_at > 0 {
        println!("discovery: node {} leaves gracefully at {} offered", extra.leave_node, extra.leave_node_at);
    }
    if common.shape_skew > 0.0 {
        println!(
            "shapes: Zipf skew {:.2} over a pool of {} deterministic shapes (gateway cache {})",
            common.shape_skew,
            common.shape_pool,
            if extra.gw_cache { "on" } else { "off" },
        );
    }

    let started = Instant::now();
    let per_client = common.requests / common.clients as u64;
    let remainder = common.requests % common.clients as u64;
    let mut total = DriveReport::default();
    let offered = AtomicU64::new(0);
    let mut node_reports = Vec::new();
    let mut joined_server = None;
    std::thread::scope(|scope| {
        // The killer waits for the offered threshold, then shuts the
        // victim down with tickets still in flight — the gateway must
        // eject it and finish those tickets on survivors.
        let killer = (extra.kill_node_at > 0).then(|| {
            let (offered, victim) = (&offered, &nodes[extra.kill_node]);
            let (kill_node, kill_node_at) = (extra.kill_node, extra.kill_node_at);
            scope.spawn(move || {
                while offered.load(Ordering::Relaxed) < kill_node_at {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let server = victim.lock().expect("node lock").take().expect("victim live");
                let at = offered.load(Ordering::Relaxed);
                let report = server.shutdown();
                println!("killed node {kill_node} at {at} offered");
                report
            })
        });
        // The joiner starts a brand-new backend node mid-run and
        // announces it to the gateway *over the wire* — the Announce
        // frame travels through the TCP frontend, the node sits out its
        // probation, and only then starts absorbing traffic.
        let joiner = (extra.join_node_at > 0).then(|| {
            let (offered, scenario) = (&offered, &scenario);
            let join_node_at = extra.join_node_at;
            scope.spawn(move || {
                while offered.load(Ordering::Relaxed) < join_node_at {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let server = AnyServer::start(
                    Frontend::Threads,
                    ("127.0.0.1", 0),
                    NetConfig::default(),
                    service_config,
                    &scenario.instance,
                )
                .expect("start hot-join node");
                let at = offered.load(Ordering::Relaxed);
                let ack = server.announce_to(addr).expect("announce over the wire");
                println!(
                    "joined node {} at {at} offered: {:?} ({} members known)",
                    server.local_addr(),
                    ack.decision,
                    ack.members.len()
                );
                server
            })
        });
        // The leaver sends a graceful Leave frame for one seed node but
        // keeps its server running: the gateway must stop routing new
        // work to it while in-flight tickets fail over or finish.
        let leaver = (extra.leave_node_at > 0).then(|| {
            let offered = &offered;
            let leave_addr = node_addrs[extra.leave_node];
            let (leave_node, leave_node_at) = (extra.leave_node, extra.leave_node_at);
            scope.spawn(move || {
                while offered.load(Ordering::Relaxed) < leave_node_at {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let at = offered.load(Ordering::Relaxed);
                let client = Client::connect(addr, ClientConfig::default()).expect("leave client");
                let resp = client
                    .leave(&leave_addr.to_string(), u64::MAX, Duration::from_secs(5))
                    .expect("leave rpc");
                client.close();
                println!("node {leave_node} left at {at} offered: {:?}", resp.decision);
            })
        });
        let handles: Vec<_> = (0..common.clients)
            .map(|idx| {
                let share = per_client + u64::from((idx as u64) < remainder);
                let cfg = DriveConfig::from_common(&common, idx, share);
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
        if let Some(k) = killer {
            node_reports.push((extra.kill_node, k.join().expect("killer thread"), true));
        }
        if let Some(l) = leaver {
            l.join().expect("leaver thread");
        }
        if let Some(j) = joiner {
            joined_server = Some(j.join().expect("joiner thread"));
        }
    });
    let wall = started.elapsed();
    let tally = total.tally;

    // Frontend drain returns the gateway's ledger; then drain whatever
    // backend nodes are still alive, then (in --peer mode) the peer
    // cluster — its gateway first, its nodes after.
    let report = frontend.shutdown();
    let m = &report.metrics;
    for (idx, node) in nodes.iter().enumerate() {
        if let Some(server) = node.lock().expect("node lock").take() {
            node_reports.push((idx, server.shutdown(), false));
        }
    }
    if let Some(server) = joined_server {
        node_reports.push((extra.nodes, server.shutdown(), false));
    }
    node_reports.sort_by_key(|(idx, _, _)| *idx);
    let peer_reports = peer_cluster.map(|(peer_frontend, peer_nodes)| {
        let gw = peer_frontend.shutdown();
        let node_reports: Vec<_> = peer_nodes.into_iter().map(AnyServer::shutdown).collect();
        (gw, node_reports)
    });
    let submit_rate = common.requests as f64 / wall.as_secs_f64().max(1e-9);

    println!("\n— run —");
    println!(
        "wall {:.3?}   offered {}   {:.0} submits/s   departed {}",
        wall, common.requests, submit_rate, total.departed
    );
    println!("outcomes: {tally}");
    println!("\n— gateway (post-drain) —\n{m}");
    if let Some(pc) = &report.plan_cache {
        println!(
            "plan cache: hit rate {:.1}% ({} affinity hits, {} negative, {} misses, {} invalidated)",
            100.0 * pc.hit_rate(),
            pc.hits,
            pc.negative_hits,
            pc.misses,
            pc.invalidations,
        );
    }
    for (idx, r, killed) in &node_reports {
        let nm = &r.metrics;
        println!(
            "node {idx}{}: submitted {}  admitted {}  departed {}  conserved {}",
            if *killed { " (killed)" } else { "" },
            nm.submitted,
            nm.admitted,
            nm.departed,
            nm.is_conserved(),
        );
    }
    if let Some((gw, peer_node_reports)) = &peer_reports {
        let pm = &gw.metrics;
        println!(
            "peer gateway: submitted {}  admitted {}  shed {}  conserved {}",
            pm.submitted,
            pm.admitted,
            pm.shed,
            pm.is_conserved(),
        );
        for (idx, r) in peer_node_reports.iter().enumerate() {
            let nm = &r.metrics;
            println!(
                "peer node {idx}: submitted {}  admitted {}  departed {}  conserved {}",
                nm.submitted,
                nm.admitted,
                nm.departed,
                nm.is_conserved(),
            );
        }
    }
    let telemetry = offloadnn_telemetry::global().snapshot();
    println!("\n— telemetry (gw.* / net.*) —\n{telemetry}");

    // End-to-end conservation: every offered request is accounted for
    // exactly once at the wire, the gateway ledger balances, and every
    // node — including a killed one and the peer cluster's — is locally
    // conserved.
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
            "gateway conservation violated: submitted {} != resolved {}",
            m.submitted,
            m.resolved()
        ));
    }
    if tally.errors() == 0 {
        for (name, wire, gateway) in [
            ("submitted", tally.outcomes(), m.submitted),
            ("admitted", tally.admitted, m.admitted),
            ("rejected", tally.rejected, m.rejected),
            ("shed", tally.shed, m.shed),
            ("expired", tally.expired, m.expired),
        ] {
            if wire != gateway {
                violations.push(format!("{name}: wire saw {wire}, gateway counted {gateway}"));
            }
        }
    }
    let mut node_admitted = 0u64;
    for (idx, r, _) in &node_reports {
        let nm = &r.metrics;
        node_admitted += nm.admitted;
        if !nm.is_conserved() {
            violations.push(format!(
                "node {idx} conservation violated: submitted {} != resolved {}",
                nm.submitted,
                nm.resolved()
            ));
        }
        if nm.departed > nm.admitted {
            violations
                .push(format!("node {idx} departed {} more than it admitted {}", nm.departed, nm.admitted));
        }
    }
    if let Some((gw, peer_node_reports)) = &peer_reports {
        let pm = &gw.metrics;
        if !pm.is_conserved() {
            violations.push(format!(
                "peer gateway conservation violated: submitted {} != resolved {}",
                pm.submitted,
                pm.resolved()
            ));
        }
        // The whole point of the federated run: the primary's overflow
        // must actually reach the peer cluster over the wire.
        if pm.submitted == 0 {
            violations.push("no overflow was forwarded to the peer cluster".into());
        }
        for (idx, r) in peer_node_reports.iter().enumerate() {
            let nm = &r.metrics;
            node_admitted += nm.admitted;
            if !nm.is_conserved() {
                violations.push(format!(
                    "peer node {idx} conservation violated: submitted {} != resolved {}",
                    nm.submitted,
                    nm.resolved()
                ));
            }
        }
    }
    // A submit that reached a node right as it died may be admitted
    // there with the verdict lost in the close; the gateway retries it
    // elsewhere, so nodes (across both clusters) can admit more — never
    // fewer — than the gateway acknowledged.
    if node_admitted < m.admitted {
        violations
            .push(format!("nodes admitted {node_admitted} in total, gateway acknowledged {}", m.admitted));
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
