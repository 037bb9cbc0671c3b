//! The one load generator: `loadgen --tier service|net|gateway|federated`.
//!
//! Stands one admission tier up over loopback, drives it with
//! `--clients` concurrent [`drive`] loops speaking only
//! [`offloadnn_serve::Admitter`], optionally disturbs it mid-run, then
//! shuts it down into its ledgers and holds them to one conservation
//! contract ([`check`]); exits non-zero on any violation, so CI gates on
//! it.
//!
//! * `service` — an in-process [`Service`] shared by the driver threads.
//! * `net` — the same service behind an [`AnyServer`] TCP frontend
//!   (`--frontend threads|reactor`), one [`Client`] connection per driver.
//! * `gateway` — `--nodes` backend servers fronted by a [`Gateway`] that
//!   is itself mounted behind the TCP frontend.
//! * `federated` — that cluster plus a second, healthy peer cluster:
//!   starve the primary (`--queue-capacity`) and its would-be `Shed`
//!   overflow must forward to the peer over `Forward` frames.
//!
//! Mid-run disturbances trigger on the global offered count:
//! `--scale-script` reshards live, `--kill-node-at` shuts a backend node
//! down with tickets in flight, `--join-node-at` hot-joins a new node
//! over the wire (Announce, then probation) and `--leave-node-at` sends
//! a graceful Leave for one.
//!
//! ```text
//! cargo run --release -p offloadnn-gateway --bin loadgen -- \
//!     --tier gateway --nodes 3 --requests 3000 --kill-node-at 1200
//! ```

use offloadnn_core::instance::DotInstance;
use offloadnn_core::scenario::{large_scenario, small_scenario, LoadLevel};
use offloadnn_gateway::{FederationConfig, Gateway, GatewayConfig, HedgeConfig};
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_plancache::{PlanCacheConfig, PlanCacheStats};
use offloadnn_serve::loadgen::{drive, DriveConfig, DriveReport, ShapePool, WireTally};
use offloadnn_serve::{DrainReport, ReshardReport, Service, ServiceConfig};
use std::fmt;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The backend node `--kill-node-at` shuts down.
const KILL_NODE: usize = 1;
/// The backend node `--leave-node-at` departs gracefully.
const LEAVE_NODE: usize = 0;
/// Backend nodes in the `federated` tier's peer cluster.
const PEER_NODES: usize = 2;

/// Every flag: name, value placeholder (empty for a switch), help with
/// the default in brackets. The parser and `--help` both read this table.
const FLAGS: &[(&str, &str, &str)] = &[
    ("--tier", "T", "service | net | gateway | federated [service]"),
    ("--frontend", "F", "TCP frontend of the wire tiers: threads | reactor [threads]"),
    ("--requests", "N", "total submits across all drivers [10000]"),
    ("--clients", "N", "concurrent drivers (one connection each on the wire tiers) [4]"),
    ("--window", "N", "per-driver pipeline depth [64]"),
    ("--max-active", "N", "admitted tasks a driver keeps before the oldest departs [2]"),
    ("--deadline-ms", "N", "caller-shipped admission budget; 0 = the tier's policy [0]"),
    ("--seed", "N", "RNG seed of the task mix, echoed in the header [7]"),
    ("--scenario", "K", "small (Table IV) | large (T = 20, 125 structures) [small]"),
    ("--ues", "N", "UEs in the small scenario, 1..=5 [5]"),
    ("--shape-skew", "F", "Zipf exponent of the shape mix; 0 = fresh jitter per request [0]"),
    ("--shape-pool", "N", "distinct shapes in the Zipf pool [64]"),
    ("--shards", "N", "worker shards per service [4]"),
    ("--queue-capacity", "N", "per-shard ingress queue bound (primary cluster only) [1024]"),
    ("--batch-max", "N", "max requests per solver round [64]"),
    ("--plan-cache", "", "enable the serve nodes' plan cache, on every tier [off]"),
    ("--min-hit-rate", "F", "fail unless the nodes' summed plan-cache hit rate reaches F (0..1) [none]"),
    ("--scale-script", "S", "at:shards,... live reshards, service and net tiers [none]"),
    ("--nodes", "N", "backend nodes behind the gateway [3]"),
    ("--hedge", "", "enable the gateway's deadline-aware hedging [off]"),
    ("--kill-node-at", "N", "shut node 1 down once N submits were offered; 0 = never [0]"),
    ("--join-node-at", "N", "hot-join one more node once N submits were offered [0]"),
    ("--leave-node-at", "N", "node 0 leaves gracefully once N submits were offered [0]"),
    ("--help", "", "print this help"),
];

fn usage() -> String {
    let mut text = String::from(
        "loadgen — conservation-gated load generator for every admission tier\n\nOPTIONS (all optional; defaults in brackets):\n",
    );
    for (flag, value, help) in FLAGS {
        text.push_str(&format!("  {:<20} {help}\n", format!("{flag} {value}")));
    }
    text
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Service,
    Net,
    Gateway,
    Federated,
}

impl Tier {
    /// Whether the tier is a gateway over backend nodes.
    fn is_cluster(self) -> bool {
        matches!(self, Self::Gateway | Self::Federated)
    }
}

impl FromStr for Tier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "service" => Ok(Self::Service),
            "net" => Ok(Self::Net),
            "gateway" => Ok(Self::Gateway),
            "federated" => Ok(Self::Federated),
            other => Err(format!("unknown tier '{other}' (expected service | net | gateway | federated)")),
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Service => "service",
            Self::Net => "net",
            Self::Gateway => "gateway",
            Self::Federated => "federated",
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    tier: Tier,
    frontend: Frontend,
    requests: u64,
    clients: usize,
    window: usize,
    max_active: usize,
    deadline_ms: u64,
    seed: u64,
    large: bool,
    ues: usize,
    shape_skew: f64,
    shape_pool: usize,
    shards: usize,
    queue_capacity: usize,
    batch_max: usize,
    plan_cache: bool,
    min_hit_rate: Option<f64>,
    scale_script: Vec<(u64, u32)>,
    nodes: usize,
    hedge: bool,
    kill_node_at: u64,
    join_node_at: u64,
    leave_node_at: u64,
}

impl Default for Args {
    fn default() -> Self {
        let service = ServiceConfig::default();
        Self {
            tier: Tier::Service,
            frontend: Frontend::Threads,
            requests: 10_000,
            clients: 4,
            window: 64,
            max_active: 2,
            deadline_ms: 0,
            seed: 7,
            large: false,
            ues: 5,
            shape_skew: 0.0,
            shape_pool: 64,
            shards: service.shards,
            queue_capacity: service.queue_capacity,
            batch_max: service.batch_max,
            plan_cache: false,
            min_hit_rate: None,
            scale_script: Vec::new(),
            nodes: 3,
            hedge: false,
            kill_node_at: 0,
            join_node_at: 0,
            leave_node_at: 0,
        }
    }
}

fn value<T: FromStr>(text: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    text.parse().map_err(|e: T::Err| e.to_string())
}

/// Parses `"at:shards,at:shards"` into scale-script steps.
fn parse_scale_script(text: &str) -> Result<Vec<(u64, u32)>, String> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|step| {
            let (at, shards) =
                step.split_once(':').ok_or_else(|| format!("step {step:?}: expected at:shards"))?;
            let at = at.trim().parse().map_err(|e| format!("step {step:?}: {e}"))?;
            let shards = shards.trim().parse().map_err(|e| format!("step {step:?}: {e}"))?;
            if shards == 0 {
                return Err(format!("step {step:?}: target must be at least one shard"));
            }
            Ok((at, shards))
        })
        .collect()
}

impl Args {
    /// Applies one flag from [`FLAGS`] (`text` is empty for a switch).
    fn set(&mut self, flag: &str, text: &str) -> Result<(), String> {
        match flag {
            "--tier" => self.tier = value(text)?,
            "--frontend" => self.frontend = value(text)?,
            "--requests" => self.requests = value(text)?,
            "--clients" => self.clients = value(text)?,
            "--window" => self.window = value(text)?,
            "--max-active" => self.max_active = value(text)?,
            "--deadline-ms" => self.deadline_ms = value(text)?,
            "--seed" => self.seed = value(text)?,
            "--scenario" => {
                self.large = match text {
                    "small" => false,
                    "large" => true,
                    _ => return Err("expected small | large".into()),
                }
            }
            "--ues" => self.ues = value(text)?,
            "--shape-skew" => self.shape_skew = value(text)?,
            "--shape-pool" => self.shape_pool = value(text)?,
            "--shards" => self.shards = value(text)?,
            "--queue-capacity" => self.queue_capacity = value(text)?,
            "--batch-max" => self.batch_max = value(text)?,
            "--plan-cache" => self.plan_cache = true,
            "--min-hit-rate" => self.min_hit_rate = Some(value(text)?),
            "--scale-script" => self.scale_script = parse_scale_script(text)?,
            "--nodes" => self.nodes = value(text)?,
            "--hedge" => self.hedge = true,
            "--kill-node-at" => self.kill_node_at = value(text)?,
            "--join-node-at" => self.join_node_at = value(text)?,
            "--leave-node-at" => self.leave_node_at = value(text)?,
            other => unreachable!("{other} is in FLAGS but has no setter"),
        }
        Ok(())
    }

    /// Cross-flag constraints, checked before anything starts.
    fn validate(&self) -> Result<(), String> {
        let membership = self.kill_node_at > 0 || self.join_node_at > 0 || self.leave_node_at > 0;
        let refusals = [
            (
                self.clients == 0 || self.window == 0 || self.shape_pool == 0 || self.nodes == 0,
                "--clients, --window, --shape-pool and --nodes must be >= 1",
            ),
            (self.requests > u64::from(u32::MAX), "--requests must fit the u32 task-id space"),
            (!(1..=5).contains(&self.ues), "--ues must be in 1..=5"),
            (
                membership && !self.tier.is_cluster(),
                "--kill-node-at, --join-node-at and --leave-node-at need --tier gateway or federated",
            ),
            (
                !self.scale_script.is_empty() && self.tier.is_cluster(),
                "--scale-script needs --tier service or net",
            ),
            (
                self.kill_node_at > 0 && self.nodes <= KILL_NODE,
                "--kill-node-at needs at least 2 nodes (node 1 dies, someone must survive)",
            ),
            (
                self.leave_node_at > 0 && self.nodes < 2 && self.join_node_at == 0,
                "--leave-node-at needs at least 2 nodes (someone must survive)",
            ),
        ];
        if let Some((_, refusal)) = refusals.iter().find(|(refused, _)| *refused) {
            return Err((*refusal).into());
        }
        self.service_config().validate().map_err(|e| e.to_string())
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            batch_max: self.batch_max,
            plan_cache: self.plan_cache.then(PlanCacheConfig::default),
            ..ServiceConfig::default()
        }
    }

    /// The mid-run disturbances in firing order.
    fn events(&self) -> Vec<(u64, Action)> {
        let mut events: Vec<_> =
            self.scale_script.iter().map(|&(at, shards)| (at, Action::Scale(shards))).collect();
        for (at, action) in [
            (self.kill_node_at, Action::Kill),
            (self.join_node_at, Action::Join),
            (self.leave_node_at, Action::Leave),
        ] {
            if at > 0 {
                events.push((at, action));
            }
        }
        events.sort_by_key(|&(at, _)| at);
        events
    }
}

/// Parses the command line; `Ok(None)` asks for the help text.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        let Some((_, placeholder, _)) = FLAGS.iter().find(|spec| spec.0 == flag) else {
            return Err(format!("unknown flag {flag} (try --help)"));
        };
        let text = match placeholder.is_empty() {
            true => "",
            false => it.next().ok_or_else(|| format!("{flag}: missing value"))?,
        };
        args.set(flag, text).map_err(|e| format!("{flag} {text}: {e}"))?;
    }
    args.validate()?;
    Ok(Some(args))
}

/// One mid-run disturbance.
#[derive(Debug, Clone, Copy)]
enum Action {
    Scale(u32),
    Kill,
    Join,
    Leave,
}

/// The primary cluster's backend nodes in index order (a hot-joined
/// node is appended); the killed one leaves its slot empty and its
/// final report behind.
struct Nodes {
    live: Vec<Option<AnyServer>>,
    killed: Option<DrainReport>,
}

/// A running tier. [`Stack::start`] stands it up, the drivers reach it
/// through [`Stack::addr`] (or share the in-process service),
/// [`Stack::apply`] disturbs it and [`Stack::shutdown`] drains it into
/// its [`Ledgers`].
#[allow(clippy::large_enum_variant)] // one Stack per process
enum Stack {
    Service(Service),
    Net(AnyServer),
    Cluster {
        gateway: AnyServer<Gateway>,
        nodes: Mutex<Nodes>,
        /// The peer cluster of the federated tier: its gateway, its nodes.
        peer: Option<(AnyServer<Gateway>, Vec<AnyServer>)>,
    },
}

/// Everything a finished run left behind.
struct Ledgers {
    /// The driven tier's own final report (service, server or gateway).
    tier: DrainReport,
    /// The peer cluster's gateway (federated tier).
    peer: Option<DrainReport>,
    /// Labelled backend nodes of both clusters.
    nodes: Vec<(String, DrainReport)>,
}

impl Ledgers {
    /// Plan-cache statistics summed over every serve node of the run
    /// (the tier itself on `service`/`net`; a gateway caches nothing);
    /// all zero without `--plan-cache`.
    fn plan_cache(&self) -> PlanCacheStats {
        let reports = std::iter::once(&self.tier).chain(self.nodes.iter().map(|(_, r)| r));
        reports.filter_map(|r| r.plan_cache).sum()
    }
}

fn start_node(config: ServiceConfig, template: &DotInstance) -> Result<AnyServer, String> {
    AnyServer::start(Frontend::Threads, ("127.0.0.1", 0), NetConfig::default(), config, template)
        .map_err(|e| format!("failed to start backend node: {e}"))
}

/// Fronts `nodes` with a gateway mounted behind the TCP frontend — the
/// gateway is itself a `Backend`, so it serves the same wire protocol a
/// single node does.
fn start_cluster(
    frontend: Frontend,
    net: NetConfig,
    nodes: &[AnyServer],
    config: GatewayConfig,
) -> Result<AnyServer<Gateway>, String> {
    let addrs: Vec<_> = nodes.iter().map(AnyServer::local_addr).collect();
    let gateway = Gateway::start(&addrs, config).map_err(|e| format!("failed to start gateway: {e}"))?;
    AnyServer::start_with_backend(frontend, ("127.0.0.1", 0), net, gateway)
        .map_err(|e| format!("failed to start gateway frontend: {e}"))
}

/// Fast-failover gateway tuning so a mid-run kill (or a dead peer)
/// resolves well inside the verdict timeout, and a peer is scored early
/// in the run; the defaults are sized for real WAN probes.
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

impl Stack {
    fn start(args: &Args, template: &DotInstance) -> Result<Self, String> {
        let config = args.service_config();
        // Room for every driver plus the control connections, so
        // --clients 512 exercises concurrency, not TooManyConnections.
        let net = NetConfig { max_connections: NetConfig::default().max_connections.max(args.clients + 8) };
        match args.tier {
            Tier::Service => Service::start(config, template)
                .map(Self::Service)
                .map_err(|e| format!("failed to start service: {e}")),
            Tier::Net => AnyServer::start(args.frontend, ("127.0.0.1", 0), net, config, template)
                .map(Self::Net)
                .map_err(|e| format!("failed to start server: {e}")),
            Tier::Gateway | Tier::Federated => {
                let start_nodes = |n: usize, config: ServiceConfig| {
                    (0..n).map(|_| start_node(config, template)).collect::<Result<Vec<_>, _>>()
                };
                let nodes = start_nodes(args.nodes, config)?;
                let mut gateway_config = GatewayConfig {
                    hedge: HedgeConfig { enabled: args.hedge, min_samples: 32 },
                    ..fast_gateway_config()
                };
                // The peer cluster keeps the default queue capacity —
                // headroom for the primary's overflow — and no federation
                // of its own, so the topology is a strict overflow drain.
                let peer = match args.tier {
                    Tier::Federated => {
                        let roomy = ServiceConfig::default().queue_capacity;
                        let peer_nodes =
                            start_nodes(PEER_NODES, ServiceConfig { queue_capacity: roomy, ..config })?;
                        let peer = start_cluster(
                            args.frontend,
                            NetConfig::default(),
                            &peer_nodes,
                            fast_gateway_config(),
                        )?;
                        gateway_config.federation =
                            Some(FederationConfig::new("loadgen-primary", vec![peer.local_addr()]));
                        Some((peer, peer_nodes))
                    }
                    _ => None,
                };
                let gateway = start_cluster(args.frontend, net, &nodes, gateway_config)?;
                let nodes = Nodes { live: nodes.into_iter().map(Some).collect(), killed: None };
                Ok(Self::Cluster { gateway, nodes: Mutex::new(nodes), peer })
            }
        }
    }

    /// Where the drivers dial; `None` for the in-process service.
    fn addr(&self) -> Option<SocketAddr> {
        match self {
            Self::Service(_) => None,
            Self::Net(server) => Some(server.local_addr()),
            Self::Cluster { gateway, .. } => Some(gateway.local_addr()),
        }
    }

    /// A management-plane connection, kept off the drivers' connections.
    fn control(&self) -> Result<Client, String> {
        let addr = self.addr().expect("only wire tiers dial a control connection");
        Client::connect(addr, ClientConfig::default()).map_err(|e| format!("control connection: {e}"))
    }

    /// Executes one disturbance against the live tier; a reshard returns
    /// its report.
    fn apply(
        &self,
        action: Action,
        args: &Args,
        template: &DotInstance,
    ) -> Result<Option<ReshardReport>, String> {
        match (action, self) {
            (Action::Scale(shards), Self::Service(service)) => {
                service.scale_to(shards as usize).map(Some).map_err(|e| format!("scale_to({shards}): {e}"))
            }
            // Over the wire the reshard travels as a Scale frame.
            (Action::Scale(shards), _) => {
                let client = self.control()?;
                let r = client.scale_to(shards).map_err(|e| format!("scale_to({shards}): {e}"))?;
                Ok(Some(ReshardReport {
                    from_shards: r.from_shards as usize,
                    to_shards: r.to_shards as usize,
                    migrated: r.migrated,
                    generation: r.generation,
                }))
            }
            // Tickets are still in flight: the gateway must eject the
            // victim and finish them on the survivors.
            (Action::Kill, Self::Cluster { nodes, .. }) => {
                let mut nodes = nodes.lock().expect("nodes lock");
                let victim = nodes.live[KILL_NODE].take().expect("the victim is killed once");
                nodes.killed = Some(victim.shutdown());
                Ok(None)
            }
            // A brand-new node announces itself *over the wire*, sits out
            // its probation, and only then starts absorbing traffic.
            (Action::Join, Self::Cluster { gateway, nodes, .. }) => {
                let server = start_node(args.service_config(), template)?;
                let ack = server.announce_to(gateway.local_addr()).map_err(|e| format!("announce: {e}"))?;
                println!(
                    "joined node {}: {:?} ({} members known)",
                    server.local_addr(),
                    ack.decision,
                    ack.members.len()
                );
                nodes.lock().expect("nodes lock").live.push(Some(server));
                Ok(None)
            }
            // The leaver's server keeps running: the gateway must stop
            // routing new work to it while in-flight tickets finish.
            (Action::Leave, Self::Cluster { nodes, .. }) => {
                let leaver =
                    nodes.lock().expect("nodes lock").live[LEAVE_NODE].as_ref().map(AnyServer::local_addr);
                let addr = leaver.expect("the leaver is never the victim").to_string();
                let ack = self
                    .control()?
                    .leave(&addr, u64::MAX, Duration::from_secs(5))
                    .map_err(|e| format!("leave: {e}"))?;
                println!("node {LEAVE_NODE} left: {:?}", ack.decision);
                Ok(None)
            }
            (membership, _) => unreachable!("validate() keeps {membership:?} off non-cluster tiers"),
        }
    }

    /// Drains front to back: the driven tier first, then whatever backend
    /// nodes are still alive, then the peer cluster the same way.
    fn shutdown(self) -> Ledgers {
        match self {
            Self::Service(service) => Ledgers { tier: service.drain(), peer: None, nodes: Vec::new() },
            Self::Net(server) => Ledgers { tier: server.shutdown(), peer: None, nodes: Vec::new() },
            Self::Cluster { gateway, nodes, peer } => {
                let tier = gateway.shutdown();
                let Nodes { live, mut killed } = nodes.into_inner().expect("nodes lock");
                let mut nodes: Vec<_> = live
                    .into_iter()
                    .enumerate()
                    .map(|(i, node)| match node {
                        Some(server) => (format!("node {i}"), server.shutdown()),
                        None => {
                            (format!("node {i} (killed)"), killed.take().expect("an empty slot was killed"))
                        }
                    })
                    .collect();
                let peer = peer.map(|(peer, peer_nodes)| {
                    let report = peer.shutdown();
                    let peer_nodes = peer_nodes.into_iter().enumerate();
                    nodes.extend(peer_nodes.map(|(i, n)| (format!("peer node {i}"), n.shutdown())));
                    report
                });
                Ledgers { tier, peer, nodes }
            }
        }
    }
}

/// One driver: the in-process service is shared as is; a wire tier gets
/// its own connection. A failed dial charges the driver's whole share as
/// transport errors (the submits were offered to a dead endpoint).
fn run_driver(
    stack: &Stack,
    cfg: &DriveConfig,
    template: &DotInstance,
    shapes: Option<&ShapePool>,
    offered: &AtomicU64,
) -> DriveReport {
    let addr = match stack {
        Stack::Service(service) => return drive(service, cfg, template, shapes, offered),
        wire => wire.addr().expect("wire tiers listen"),
    };
    match Client::connect(addr, ClientConfig::default()) {
        Ok(client) => {
            let report = drive(&client, cfg, template, shapes, offered);
            client.close();
            report
        }
        Err(_) => {
            offered.fetch_add(cfg.requests, Ordering::Relaxed);
            DriveReport { tally: WireTally { transport: cfg.requests, ..WireTally::default() }, departed: 0 }
        }
    }
}

/// The conservation contract of a finished run, over whatever ledgers
/// its tier produced; every violated rule yields one message.
fn check(args: &Args, total: &DriveReport, reshards: &[ReshardReport], ledgers: &Ledgers) -> Vec<String> {
    let (tally, tier) = (&total.tally, &ledgers.tier.metrics);
    // Every offered request resolves exactly once at the drivers, and —
    // on an error-free run — class by class as the tier counted it.
    let mut violations = if tally.errors() == 0 { tally.mismatches(tier) } else { Vec::new() };
    let mut expect = |holds: bool, violation: String| {
        if !holds {
            violations.push(violation);
        }
    };
    expect(
        tally.outcomes() + tally.errors() == args.requests,
        format!("offered {} != outcomes {} + errors {}", args.requests, tally.outcomes(), tally.errors()),
    );

    // Every ledger — the tier, each node (a killed one included), the
    // peer cluster — balances on its own. Budget partitions only bind a
    // fixed topology: a reshard adopts tasks that may transiently exceed
    // the new partition.
    let named = [("tier", &ledgers.tier)].into_iter().chain(ledgers.peer.iter().map(|p| ("peer gateway", p)));
    for (name, report) in named.chain(ledgers.nodes.iter().map(|(name, r)| (name.as_str(), r))) {
        let m = &report.metrics;
        expect(m.is_conserved(), format!("{name}: submitted {} != resolved {}", m.submitted, m.resolved()));
        expect(
            m.departed <= m.admitted,
            format!("{name}: departed {} > admitted {}", m.departed, m.admitted),
        );
        expect(
            !args.scale_script.is_empty() || report.within_budgets(),
            format!("{name}: a shard exceeded its budget partition"),
        );
    }
    // A submit that reached a node right as it died may be admitted
    // there with the verdict lost in the close; the gateway retries it
    // elsewhere, so nodes (across both clusters) can admit more — never
    // fewer — than the gateway acknowledged.
    let node_admitted: u64 = ledgers.nodes.iter().map(|(_, r)| r.metrics.admitted).sum();
    expect(
        ledgers.nodes.is_empty() || node_admitted >= tier.admitted,
        format!("nodes admitted {node_admitted} in total, gateway acknowledged {}", tier.admitted),
    );
    if let Some(peer) = &ledgers.peer {
        expect(peer.metrics.submitted > 0, "no overflow was forwarded to the peer cluster".into());
    }

    // The depart path carries traffic: a run that outgrew its active
    // set released capacity, and every release reached the tier (a
    // killed node takes its departures with it).
    expect(
        total.departed > 0 || tally.admitted <= args.clients.saturating_mul(args.max_active) as u64,
        format!("admitted {} but never departed (--max-active {})", tally.admitted, args.max_active),
    );
    expect(
        args.kill_node_at > 0 || tier.departed == total.departed,
        format!("drivers departed {}, tier counted {}", total.departed, tier.departed),
    );

    // Steps that targeted the current shard count are no-ops and don't
    // bump the tier's reshard counter.
    let effective = reshards.iter().filter(|r| r.from_shards != r.to_shards).count() as u64;
    expect(
        tier.reshards == effective,
        format!("tier counted {} reshards, the script changed topology {effective} times", tier.reshards),
    );
    // Only a positive plan is re-validated (a rejection is replayed from
    // its own shard's unmoved ledger or not at all), so a validation
    // failure always follows a positive hit; all zero without --plan-cache.
    let pc = ledgers.plan_cache();
    expect(
        pc.validation_failures <= pc.hits,
        format!("plan cache: {} validation failures from {} positive hits", pc.validation_failures, pc.hits),
    );
    if let Some(min) = args.min_hit_rate {
        let rate = pc.hit_rate();
        expect(rate >= min, format!("plan-cache hit rate {rate:.3} below the required {min:.3}"));
    }
    violations
}

fn run(argv: &[String]) -> u8 {
    let args = match parse(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", usage());
            return 0;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let scenario = if args.large { large_scenario(LoadLevel::Medium) } else { small_scenario(args.ues) };
    let template = &scenario.instance;
    let shapes = (args.shape_skew > 0.0)
        .then(|| ShapePool::new(args.shape_pool, args.shape_skew, template.tasks.len(), args.seed));
    let stack = match Stack::start(&args, template) {
        Ok(stack) => stack,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    // Tier, transport and seed in one greppable prefix; re-running with
    // the printed seed reproduces the stream.
    let mut header = format!(
        "loadgen[tier={} frontend={} seed={}] {} requests, {} driver(s) x window {}, max-active {}, {} shard(s)",
        args.tier,
        stack.addr().map_or("in-process".into(), |_| args.frontend.to_string()),
        args.seed,
        args.requests,
        args.clients,
        args.window,
        args.max_active,
        args.shards,
    );
    if args.tier.is_cluster() {
        header += &format!(" x {} node(s)", args.nodes);
    }
    if shapes.is_some() {
        header += &format!(", Zipf skew {:.2} over {} shapes", args.shape_skew, args.shape_pool);
    }
    println!("{header}");

    let events = args.events();
    let (offered, drivers_done) = (AtomicU64::new(0), AtomicBool::new(false));
    let mut total = DriveReport::default();
    let started = Instant::now();
    let (reshards, failures) = std::thread::scope(|scope| {
        // One watcher walks the disturbances: each fires once the global
        // offered count passes its threshold, or right after the last
        // submit (so trailing steps still meet a loaded tier).
        let watcher = scope.spawn(|| {
            let (mut reshards, mut failures) = (Vec::new(), Vec::new());
            for &(at, action) in &events {
                while offered.load(Ordering::Relaxed) < at && !drivers_done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                println!("{action:?} at {} offered", offered.load(Ordering::Relaxed));
                match stack.apply(action, &args, template) {
                    Ok(reshard) => reshards.extend(reshard),
                    Err(e) => failures.push(format!("{action:?} failed: {e}")),
                }
            }
            (reshards, failures)
        });
        let drivers: Vec<_> = (0..args.clients)
            .map(|driver| {
                let cfg = DriveConfig {
                    requests: args.requests / args.clients as u64
                        + u64::from((driver as u64) < args.requests % args.clients as u64),
                    driver,
                    drivers: args.clients,
                    seed: args.seed,
                    window: args.window,
                    max_active: args.max_active,
                    deadline: (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms)),
                };
                let (stack, shapes, offered) = (&stack, shapes.as_ref(), &offered);
                scope.spawn(move || run_driver(stack, &cfg, template, shapes, offered))
            })
            .collect();
        for driver in drivers {
            let report = driver.join().expect("driver thread");
            total.tally.merge(report.tally);
            total.departed += report.departed;
        }
        drivers_done.store(true, Ordering::Relaxed);
        watcher.join().expect("watcher thread")
    });
    let wall = started.elapsed();
    let ledgers = stack.shutdown();

    println!("\n— run —");
    println!(
        "wall {wall:.3?}   offered {}   {:.0} submits/s   departed {}",
        args.requests,
        args.requests as f64 / wall.as_secs_f64().max(1e-9),
        total.departed
    );
    println!("outcomes: {}", total.tally);
    for r in &reshards {
        println!(
            "reshard:  {} -> {} shards, {} in-flight tasks migrated (generation {})",
            r.from_shards, r.to_shards, r.migrated, r.generation
        );
    }
    println!("\n— {} (post-drain) —\n{}", args.tier, ledgers.tier.metrics);
    if args.plan_cache {
        let pc = ledgers.plan_cache();
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
    let peer = ledgers.peer.iter().map(|p| ("peer gateway", p));
    for (name, report) in peer.chain(ledgers.nodes.iter().map(|(name, r)| (name.as_str(), r))) {
        let m = &report.metrics;
        println!(
            "{name}: submitted {}  admitted {}  shed {}  departed {}  conserved {}",
            m.submitted,
            m.admitted,
            m.shed,
            m.departed,
            m.is_conserved()
        );
    }
    println!("\n— telemetry —\n{}", offloadnn_telemetry::global().snapshot());

    let mut violations = check(&args, &total, &reshards, &ledgers);
    violations.extend(failures);
    if violations.is_empty() {
        println!("\nconservation: OK");
        return 0;
    }
    for v in &violations {
        eprintln!("error: {v}");
    }
    1
}

fn main() -> ExitCode {
    ExitCode::from(run(&std::env::args().skip(1).collect::<Vec<_>>()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn help_and_parser_agree_on_the_flag_set() {
        let help = usage();
        let printed: BTreeSet<&str> = help.split_whitespace().filter(|w| w.starts_with("--")).collect();
        let table: BTreeSet<&str> = FLAGS.iter().map(|spec| spec.0).collect();
        assert_eq!(printed, table);
        assert!(table.len() <= 26, "{} flags", table.len());
        // Every flag of the table has a setter that takes some value.
        for (flag, placeholder, _) in FLAGS.iter().filter(|spec| spec.0 != "--help") {
            let samples: &[&str] =
                if placeholder.is_empty() { &[""] } else { &["1", "net", "reactor", "large", "1:2"] };
            let accepted = samples.iter().any(|text| Args::default().set(flag, text).is_ok());
            assert!(accepted, "{flag} accepts none of {samples:?}");
        }
        assert_eq!(parse(&argv(&["--help"])), Ok(None));
    }

    #[test]
    fn bad_command_lines_exit_2() {
        for bad in [
            &["--bogus", "1"][..],
            &["--requests"],
            &["--requests", "many"],
            &["--requests", "4294967296"],
            &["--tier", "edge"],
            &["--tier", "net", "--kill-node-at", "5"],
            &["--tier", "gateway", "--scale-script", "5:2"],
            &["--scale-script", "100:0"],
            &["--shards", "0"],
        ] {
            assert_eq!(run(&argv(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn scale_script_parsing_accepts_steps_and_rejects_garbage() {
        assert_eq!(parse_scale_script("100:8,250:2").unwrap(), vec![(100, 8), (250, 2)]);
        assert_eq!(parse_scale_script("").unwrap(), vec![]);
        assert!(parse_scale_script("100").is_err());
        assert!(parse_scale_script("x:2").is_err());
    }

    #[test]
    fn events_fire_in_offered_order() {
        let args = parse(&argv(&[
            "--tier",
            "gateway",
            "--kill-node-at",
            "900",
            "--join-node-at",
            "300",
            "--leave-node-at",
            "600",
        ]));
        let events = args.unwrap().unwrap().events();
        assert_eq!(events.iter().map(|e| e.0).collect::<Vec<_>>(), vec![300, 600, 900]);
    }
}
