//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` repeats them (a unit test keeps the two
//! in step); the README glossary explains them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run turns its rounds' values of a metric into the one it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverRounds {
    Median,
    /// Saturation throughput tracks the host's CPU speed, which on the
    /// sizing box halves for seconds at a time and never doubles: the
    /// best round is the least disturbed one (README, "Noise").
    Best,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub over_rounds: OverRounds,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, over_rounds: OverRounds::Median }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, over_rounds: OverRounds::Median }
}

/// What a user of the system sees. Every workload reports all of them,
/// from untraced rounds only.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    MetricDef { over_rounds: OverRounds::Best, ..higher("sat_vps", "1/s") },
    lower("verdict_p50_ms", "ms"),
    lower("verdict_p90_ms", "ms"),
    higher("slo_share", "share"),
    higher("weighted_admit_share", "share"),
];

/// Single layers, from the traced round. A metric whose layer a
/// workload's stack does not contain reads 0 there.
pub const PER_LAYER: [MetricDef; 71] = [
    lower("driver.gen_lag_p99_ms", "ms"),
    lower("driver.gen_lag_max_ms", "ms"),
    lower("driver.verdict_p99_ms", "ms"),
    lower("driver.verdict_p999_ms", "ms"),
    higher("driver.paced_verdicts", "count"),
    higher("driver.attempted", "count"),
    lower("driver.failed", "count"),
    lower("driver.failed_share", "share"),
    higher("driver.admit_share", "share"),
    lower("driver.cpu_us_per_verdict", "us"),
    lower("driver.cpu_us_per_request", "us"),
    higher("driver.stream_fnv", "count"),
    lower("telemetry.overhead_share", "share"),
    lower("telemetry.span_ns", "ns"),
    lower("dnn.model_build_ms", "ms"),
    lower("profiler.cost_table_ms", "ms"),
    lower("core.scenario_build_ms", "ms"),
    lower("core.solve_us", "us"),
    lower("core.exact_gap", "share"),
    lower("core.controller_submit_us", "us"),
    lower("core.controller_release_us", "us"),
    lower("core.solver_round_us", "us"),
    lower("core.solver_clique_us", "us"),
    lower("core.solver_tree_us", "us"),
    lower("core.solver_alloc_us", "us"),
    lower("core.solver_rounds", "count"),
    lower("plancache.fingerprint_ns", "ns"),
    lower("plancache.lookup_ns", "ns"),
    lower("plancache.insert_ns", "ns"),
    higher("plancache.hit_share", "share"),
    higher("plancache.negative_hit_share", "share"),
    lower("plancache.validation_fail_share", "share"),
    lower("plancache.evictions", "count"),
    lower("plancache.invalidations", "count"),
    lower("serve.submit_call_us", "us"),
    lower("serve.depart_call_us", "us"),
    lower("serve.ingress_us", "us"),
    lower("serve.batch_us", "us"),
    lower("serve.ledger_latency_ms", "ms"),
    lower("serve.queue_wait_ms", "ms"),
    lower("serve.rounds", "count"),
    higher("serve.mean_batch", "count"),
    lower("serve.peak_queue", "count"),
    lower("serve.shed", "count"),
    lower("serve.expired", "count"),
    higher("serve.departed", "count"),
    lower("net.submit_frame_bytes", "bytes"),
    lower("net.encode_submit_ns", "ns"),
    lower("net.decode_submit_ns", "ns"),
    lower("net.encode_outcome_ns", "ns"),
    lower("net.decode_outcome_ns", "ns"),
    lower("net.client_submit_call_us", "us"),
    lower("net.rtt_mean_us", "us"),
    lower("net.frames_per_verdict", "count"),
    lower("net.wire_ms", "ms"),
    lower("reactor.wakeups_per_verdict", "count"),
    higher("reactor.reads_per_wakeup", "count"),
    lower("reactor.writes_per_verdict", "count"),
    lower("gateway.rank_ns", "ns"),
    lower("gateway.submit_call_us", "us"),
    lower("gateway.depart_call_us", "us"),
    lower("gateway.route_us", "us"),
    lower("gateway.failovers", "count"),
    lower("gateway.hedges", "count"),
    higher("gateway.forwards", "count"),
    higher("gateway.forward_share", "share"),
    higher("gateway.forward_win_share", "share"),
    lower("gateway.node_imbalance", "ratio"),
    lower("gateway.hop_ms", "ms"),
    higher("emu.events_per_s", "1/s"),
    higher("emu.deadline_met_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is written by hand to the driver's contract;
    /// this keeps it in step with what the binary prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap();
        let Json::Obj(fields) = &manifest else { panic!("BENCHMARK.json is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
        for (section, defs, bounded) in
            [("end_to_end", &END_TO_END[..], true), ("per_layer", &PER_LAYER[..], false)]
        {
            let listed = manifest.get(section).unwrap().as_arr();
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(field(entry, "name"), def.name);
                assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(entry, "better"), def.better.as_str(), "{}", def.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound.is_some(), bounded, "{}", def.name);
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
                let Json::Obj(keys) = entry else { panic!("{} is not an object", def.name) };
                assert_eq!(keys.len(), if bounded { 4 } else { 3 }, "{}", def.name);
            }
        }
        let listed: Vec<String> =
            manifest.get("workloads").unwrap().as_arr().iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        for w in manifest.get("workloads").unwrap().as_arr() {
            let why = field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
    }
}
