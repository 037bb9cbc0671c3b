//! What a run reports: per workload, every end-to-end metric as the
//! median over its untraced rounds, and every per-layer metric from the
//! traced round — on the terminal, in the result file, and as the
//! driver's result line.

use crate::json::Json;
use crate::metrics::{MetricDef, OverRounds, END_TO_END, PER_LAYER};
use crate::round::RoundResult;
use crate::stats::{quantile_sorted, Rounds};
use crate::workloads::Workload;
use std::collections::BTreeMap;

pub struct WorkloadReport {
    pub workload: &'static Workload,
    /// Untraced rounds, in the order they ran.
    pub rounds: Vec<RoundResult>,
    /// `setup_s` of the set-ups made beside the rounds' own.
    pub extra_setups: Vec<f64>,
    /// Per-layer metrics of the traced round (empty when none ran).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The percentiles the traced round's `driver.verdict_p99_ms` and
    /// `driver.verdict_p999_ms` actually are.
    pub tail_percentiles: (f64, f64),
    pub traced_disturbed: bool,
    /// Requests and failures of the traced part of the run.
    pub traced_attempted: u64,
    pub traced_failed: u64,
    pub violations: Vec<String>,
}

impl WorkloadReport {
    pub fn new(workload: &'static Workload) -> Self {
        Self {
            workload,
            rounds: Vec::new(),
            extra_setups: Vec::new(),
            per_layer: BTreeMap::new(),
            tail_percentiles: (0.99, 0.999),
            traced_disturbed: false,
            traced_attempted: 0,
            traced_failed: 0,
            violations: Vec::new(),
        }
    }

    pub fn end_to_end(&self, metric: &str) -> Rounds {
        let mut values: Vec<f64> =
            self.rounds.iter().filter_map(|r| r.end_to_end.get(metric).copied()).collect();
        if metric == "setup_s" {
            values.extend(&self.extra_setups);
        }
        Rounds { values }
    }

    /// The value of an end-to-end metric this run reports.
    pub fn reported(&self, def: &MetricDef) -> f64 {
        let rounds = self.end_to_end(def.name);
        match def.over_rounds {
            OverRounds::Median => rounds.median(),
            OverRounds::Best => rounds.max(),
        }
    }

    /// How far the rounds disagree about that value, as a share of it:
    /// the distance between the quartiles of the rounds for a median,
    /// between the best two rounds for a best-of. Disturbed rounds sit
    /// outside both, as they sit outside the reported value.
    pub fn spread(&self, def: &MetricDef) -> f64 {
        let mut v = self.end_to_end(def.name).values;
        v.sort_by(f64::total_cmp);
        let distance = match def.over_rounds {
            OverRounds::Median => quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25),
            OverRounds::Best if v.len() >= 2 => v[v.len() - 1] - v[v.len() - 2],
            OverRounds::Best => 0.0,
        };
        (distance / self.reported(def)).abs()
    }

    /// A per-layer metric of the traced round; 0 where the workload's
    /// stack has no such layer.
    fn layer(&self, def: &MetricDef) -> f64 {
        self.per_layer.get(def.name).copied().unwrap_or(0.0)
    }

    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum::<u64>() + self.traced_attempted
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum::<u64>() + self.traced_failed
    }

    pub fn all_violations(&self) -> Vec<String> {
        let rounds = self.rounds.iter().enumerate().flat_map(|(i, r)| {
            r.violations.iter().map(move |v| format!("{} round {}: {v}", self.workload.name, i + 1))
        });
        rounds.chain(self.violations.iter().map(|v| format!("{} traced: {v}", self.workload.name))).collect()
    }

    pub fn print(&self) {
        println!("== {}  [{}]", self.workload.name, self.workload.constants());
        if !self.rounds.is_empty() {
            let samples: Vec<u64> = self.rounds.iter().map(|r| r.paced_verdicts).collect();
            let disturbed: Vec<usize> =
                self.rounds.iter().enumerate().filter(|(_, r)| r.disturbed).map(|(i, _)| i + 1).collect();
            println!(
                "  end-to-end: median (sat_vps: best) of {} untraced round(s) [min .. max]; paced verdicts per round {samples:?}{}",
                self.rounds.len(),
                if disturbed.is_empty() { String::new() } else { format!("; DISTURBED round(s) {disturbed:?}") },
            );
            for def in &END_TO_END {
                let r = self.end_to_end(def.name);
                println!(
                    "    {:<26} {:>14.4} {:<6} [{:.4} .. {:.4}]  n={}  ({} is better)",
                    def.name,
                    self.reported(def),
                    def.unit,
                    r.min(),
                    r.max(),
                    r.values.len(),
                    def.better.as_str(),
                );
            }
            println!("    attempted {}  failed {}", self.attempted(), self.failed());
        }
        if !self.per_layer.is_empty() {
            println!(
                "  per-layer: one traced round{} (tail percentiles reported: p{} / p{})",
                if self.traced_disturbed { ", DISTURBED" } else { "" },
                self.tail_percentiles.0 * 100.0,
                self.tail_percentiles.1 * 100.0,
            );
            for def in &PER_LAYER {
                println!("    {:<34} {:>16.4} {}", def.name, self.layer(def), def.unit);
            }
        }
    }

    /// The entry of this workload in the result file.
    pub fn to_json(&self) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .map(|def| {
                let r = self.end_to_end(def.name);
                let entry = Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("reported", Json::Num(self.reported(def))),
                    ("spread", Json::Num(self.spread(def))),
                    ("min", Json::Num(r.min())),
                    ("max", Json::Num(r.max())),
                    ("rounds", Json::nums(&r.values)),
                ]);
                (def.name.to_owned(), entry)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .filter(|_| !self.per_layer.is_empty())
            .map(|def| {
                let entry = Json::obj([("unit", Json::str(def.unit)), ("value", Json::Num(self.layer(def)))]);
                (def.name.to_owned(), entry)
            })
            .collect();
        let counts = |f: fn(&RoundResult) -> u64| {
            Json::Arr(self.rounds.iter().map(|r| Json::Num(f(r) as f64)).collect())
        };
        Json::obj([
            ("name", Json::str(self.workload.name)),
            ("constants", Json::str(self.workload.constants())),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("paced_verdicts", counts(|r| r.paced_verdicts)),
            ("disturbed_rounds", Json::Arr(self.rounds.iter().map(|r| Json::Bool(r.disturbed)).collect())),
            ("traced_round_disturbed", Json::Bool(self.traced_disturbed)),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
        ])
    }

    /// The last line of standard output the driver reads: end-to-end
    /// medians after untraced rounds, per-layer values after a traced one.
    pub fn driver_line(&self, traced: bool) -> Json {
        let line = |defs: &[MetricDef], value: fn(&Self, &MetricDef) -> f64| {
            let entry = |def: &MetricDef| {
                Json::obj([("value", Json::Num(value(self, def))), ("unit", Json::str(def.unit))])
            };
            defs.iter().map(|def| (def.name.to_owned(), entry(def))).collect()
        };
        let metrics = if traced { line(&PER_LAYER, Self::layer) } else { line(&END_TO_END, Self::reported) };
        Json::obj([
            ("correct", Json::Bool(self.all_violations().is_empty())),
            ("attempted", Json::Num(self.attempted().max(1) as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
