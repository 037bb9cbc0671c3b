//! The six workloads and their frozen constants.
//!
//! Every number here is part of the benchmark's definition: a change to
//! one is its own no-gain PR, after which the baseline is measured
//! again (README, "Adding a workload or counter").

use offloadnn_core::instance::Budgets;
use offloadnn_core::scenario::{large_scenario, small_scenario, LoadLevel, Scenario};
use offloadnn_net::Frontend;

/// Which stack the driver's `&dyn Admitter` is the top of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// In-process `Service`.
    Service,
    /// `net::Client`s over loopback to an `AnyServer` of this frontend.
    Net(Frontend),
    /// In-process `Gateway` over two loopback nodes.
    Gateway,
    /// In-process `Gateway` with no routable node, forwarding every
    /// request to a peer cluster.
    Federated,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// `small_scenario(5)`: 5 prototypes, 15 options per request.
    Small5,
    /// `large_scenario(Medium)`: 20 prototypes, 1 000 options per request.
    LargeMedium,
}

impl ScenarioKind {
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Small5 => "small_scenario(5)",
            ScenarioKind::LargeMedium => "large_scenario(Medium)",
        }
    }

    /// Builds the scenario (dnn → profiler → radio → core) with its
    /// budgets multiplied by `budget_scale`.
    pub fn build(self, budget_scale: f64) -> Scenario {
        let mut scenario = match self {
            ScenarioKind::Small5 => small_scenario(5),
            ScenarioKind::LargeMedium => large_scenario(LoadLevel::Medium),
        };
        let b = scenario.instance.budgets;
        // `training_seconds` is the cost normaliser Ct, not a capacity.
        scenario.instance.budgets = Budgets {
            rbs: b.rbs * budget_scale,
            compute_seconds: b.compute_seconds * budget_scale,
            memory_bytes: b.memory_bytes * budget_scale,
            training_seconds: b.training_seconds,
        };
        scenario
    }
}

/// How request shapes are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shapes {
    /// Fresh jitter per request: no two shapes repeat.
    Fresh,
    /// Zipf ranks over a `ShapePool`. The pool itself is part of the
    /// workload (fixed `pool_seed`), the `--seed` picks the rank order:
    /// which shapes are popular must not change the admitted share from
    /// one seed to the next.
    Zipf { skew: f64, pool: usize, pool_seed: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub tier: Tier,
    pub scenario: ScenarioKind,
    pub shapes: Shapes,
    /// Mean of the logical hold `H ~ Exp(mean)`, in subsequent arrivals.
    pub mean_hold: f64,
    pub budget_scale: f64,
    /// Open-loop rate of the paced phase, ≈ 25 % of the seed commit's
    /// median `sat_vps` on the sizing box.
    pub paced_rate_hz: f64,
    /// Latency limit behind `slo_share`.
    pub slo_limit_ms: f64,
    /// Generator connections (clients) the driver spreads requests over.
    pub connections: usize,
    /// Closed-loop window of the saturation phase, per connection.
    pub sat_outstanding: usize,
    /// 0: one submitter sweeps `PendingVerdict::poll`. N > 0: verdicts
    /// only resolve on a blocking wait, which N helper threads hold
    /// while the submitter paces and departs.
    pub blocking_waiters: usize,
}

const FRESH_SMALL: Workload = Workload {
    name: "",
    tier: Tier::Service,
    scenario: ScenarioKind::Small5,
    shapes: Shapes::Fresh,
    mean_hold: 260.0,
    budget_scale: 8.0,
    paced_rate_hz: 0.0,
    slo_limit_ms: 10.0,
    connections: 1,
    sat_outstanding: 512,
    blocking_waiters: 0,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload { name: "svc-fresh", paced_rate_hz: 5_000.0, ..FRESH_SMALL },
    Workload {
        name: "svc-large-zipf",
        scenario: ScenarioKind::LargeMedium,
        shapes: Shapes::Zipf { skew: 1.2, pool: 32, pool_seed: 0x0ff1_0ad1 },
        mean_hold: 60.0,
        budget_scale: 1.0,
        paced_rate_hz: 300.0,
        slo_limit_ms: 50.0,
        ..FRESH_SMALL
    },
    Workload {
        name: "net-reactor",
        tier: Tier::Net(Frontend::Reactor),
        paced_rate_hz: 2_500.0,
        connections: 2,
        sat_outstanding: 192,
        ..FRESH_SMALL
    },
    Workload {
        name: "net-threads",
        tier: Tier::Net(Frontend::Threads),
        paced_rate_hz: 2_500.0,
        connections: 2,
        sat_outstanding: 192,
        ..FRESH_SMALL
    },
    Workload {
        name: "gw-churn",
        tier: Tier::Gateway,
        mean_hold: 700.0,
        paced_rate_hz: 2_000.0,
        slo_limit_ms: 20.0,
        sat_outstanding: 384,
        ..FRESH_SMALL
    },
    Workload {
        name: "fed-relay",
        tier: Tier::Federated,
        mean_hold: 260.0,
        paced_rate_hz: 200.0,
        slo_limit_ms: 20.0,
        sat_outstanding: 1,
        blocking_waiters: 2,
        ..FRESH_SMALL
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Slice length of the paced phases: 100 ms, or longer where the
    /// paced rate would leave a slice fewer than 30 requests.
    pub fn paced_slice_s(&self) -> f64 {
        (30.0 / self.paced_rate_hz).max(0.1)
    }

    /// Names of the spans a traced round records around this tier's
    /// `(submit, depart)` calls.
    pub fn call_spans(&self) -> (&'static str, &'static str) {
        match self.tier {
            Tier::Service => ("serve.submit_call", "serve.depart_call"),
            Tier::Net(_) => ("net.client_submit_call", "net.client_depart_call"),
            Tier::Gateway | Tier::Federated => ("gateway.submit_call", "gateway.depart_call"),
        }
    }

    /// One line of the frozen constants, echoed in every report.
    pub fn constants(&self) -> String {
        let shapes = match self.shapes {
            Shapes::Fresh => "fresh".to_owned(),
            Shapes::Zipf { skew, pool, pool_seed } => {
                format!("zipf {skew} over {pool} (pool seed {pool_seed:#x})")
            }
        };
        format!(
            "{} · {} · hold {} · budget x{} · paced {}/s · slo {} ms · {} conn x {} outstanding",
            self.scenario.label(),
            shapes,
            self.mean_hold,
            self.budget_scale,
            self.paced_rate_hz,
            self.slo_limit_ms,
            self.connections,
            self.sat_outstanding,
        )
    }
}
