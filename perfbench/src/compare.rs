//! `perf compare <a.json> <b.json>`: the regression gate. Applies the
//! bounds of `BENCHMARK.json` to two result files, one row per
//! (workload, end-to-end metric).

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Better,
    Worse,
    WithinBound,
    /// The rounds of one side spread wider than the bound: the change,
    /// if any, cannot be told from noise.
    Unresolved,
}

impl Judgement {
    fn label(self) -> &'static str {
        match self {
            Judgement::Better => "better",
            Judgement::Worse => "WORSE",
            Judgement::WithinBound => "within bound",
            Judgement::Unresolved => "unresolved (spread wider than bound)",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// By how much of `a` the metric got worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub judgement: Judgement,
}

/// How far one side's rounds disagree about its reported value.
fn spread(entry: &Json) -> f64 {
    entry.get("spread").and_then(Json::as_f64).unwrap_or(f64::NAN)
}

pub fn judge(a: f64, b: f64, lower_is_better: bool, bound: f64, widest_spread: f64) -> (f64, Judgement) {
    let worse_by = if lower_is_better { (b - a) / a.abs() } else { (a - b) / a.abs() };
    let judgement = if !worse_by.is_finite() {
        Judgement::Unresolved
    } else if worse_by > bound {
        Judgement::Worse
    } else if widest_spread > bound {
        Judgement::Unresolved
    } else if worse_by < -bound {
        Judgement::Better
    } else {
        Judgement::WithinBound
    };
    (worse_by, judgement)
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?.as_arr().iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn failed_share(w: &Json) -> f64 {
    let f = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    f("failed") / f("attempted").max(1.0)
}

/// Every row, and the reasons the gate trips (empty: it passes).
pub fn compare(manifest: &Json, a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    let metrics = manifest.get("end_to_end").ok_or("the manifest lists no end_to_end metrics")?.as_arr();
    let workloads = manifest.get("workloads").ok_or("the manifest lists no workloads")?.as_arr();
    let mut rows = Vec::new();
    let mut trips = Vec::new();
    for name in workloads.iter().filter_map(|w| w.get("name").and_then(Json::as_str)) {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            return Err(format!("workload {name} is missing from one of the result files"));
        };
        for m in metrics {
            let metric = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("a metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let entry = |w: &'_ Json| w.get("end_to_end").and_then(|e| e.get(metric)).cloned();
            let (Some(ea), Some(eb)) = (entry(wa), entry(wb)) else {
                return Err(format!("{name} · {metric} is missing from one of the result files"));
            };
            let reported = |e: &Json| e.get("reported").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (worse_by, judgement) =
                judge(reported(&ea), reported(&eb), lower, bound, spread(&ea).max(spread(&eb)));
            if judgement == Judgement::Worse {
                trips.push(format!(
                    "{name} · {metric} is worse by {:.1} % (bound {:.0} %)",
                    worse_by * 100.0,
                    bound * 100.0
                ));
            }
            rows.push(Row {
                workload: name.to_owned(),
                metric: metric.to_owned(),
                a: reported(&ea),
                b: reported(&eb),
                worse_by,
                bound,
                judgement,
            });
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            trips.push(format!("{name} · failed share rose from {fa:.6} to {fb:.6}"));
        }
    }
    Ok((rows, trips))
}

pub fn print(rows: &[Row], trips: &[String]) {
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  judgement",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.judgement.label()
        );
    }
    for t in trips {
        println!("GATE: {t}");
    }
    println!("{}", if trips.is_empty() { "gate: pass" } else { "gate: FAIL" });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadReport;
    use crate::round::RoundResult;
    use crate::workloads::WORKLOADS;

    #[test]
    fn judgement_follows_direction_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(10.0, 10.5, true, 0.10, 0.02).1, Judgement::WithinBound);
        assert_eq!(judge(10.0, 11.5, true, 0.10, 0.02).1, Judgement::Worse);
        assert_eq!(judge(10.0, 8.0, true, 0.10, 0.02).1, Judgement::Better);
        assert_eq!(judge(10.0, 8.0, true, 0.10, 0.30).1, Judgement::Unresolved);
        assert_eq!(judge(10.0, 10.5, true, 0.10, 0.30).1, Judgement::Unresolved);
        // Noise never hides a regression past the bound.
        assert_eq!(judge(10.0, 11.5, true, 0.10, 0.30).1, Judgement::Worse);
        // Higher is better.
        assert_eq!(judge(100.0, 80.0, false, 0.10, 0.0).1, Judgement::Worse);
        assert_eq!(judge(100.0, 120.0, false, 0.10, 0.0).1, Judgement::Better);
        assert!((judge(100.0, 80.0, false, 0.10, 0.0).0 - 0.2).abs() < 1e-12);
        assert_eq!(judge(0.0, 1.0, true, 0.10, 0.0).1, Judgement::Unresolved);
    }

    fn manifest() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "svc-fresh", "why": "w"}],
                "end_to_end": [
                  {"name": "sat_vps", "unit": "1/s", "better": "higher", "bound": 0.1},
                  {"name": "verdict_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    /// A result file as the binary writes it, from synthetic rounds.
    fn result_file(sat: [f64; 3], p50: [f64; 3], failed: u64) -> Json {
        let mut report = WorkloadReport::new(&WORKLOADS[0]);
        for (s, p) in sat.into_iter().zip(p50) {
            let mut round = RoundResult { attempted: 1_000, failed, ..RoundResult::default() };
            round.end_to_end.insert("sat_vps", s);
            round.end_to_end.insert("verdict_p50_ms", p);
            report.rounds.push(round);
        }
        let text =
            Json::obj([("seed", Json::Num(7.0)), ("workloads", Json::Arr(vec![report.to_json()]))]).pretty();
        Json::parse(&text).expect("result files parse back")
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        let base = result_file([60_000.0, 61_000.0, 59_500.0], [2.1, 2.0, 2.2], 0);
        let (rows, trips) = compare(&manifest(), &base, &base).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(trips.is_empty());
        assert!(rows.iter().all(|r| r.judgement == Judgement::WithinBound && r.worse_by == 0.0));
        assert_eq!(rows[0].a, 61_000.0, "sat_vps reports the best round");
        assert_eq!(rows[1].a, 2.1, "the others the median round");

        let slower = result_file([50_000.0, 50_500.0, 49_800.0], [2.1, 2.0, 2.15], 0);
        // (61 000 - 50 500) / 61 000 = 17 % worse, past the 10 % bound.
        let (rows, trips) = compare(&manifest(), &base, &slower).unwrap();
        assert_eq!(rows[0].judgement, Judgement::Worse);
        assert_eq!(rows[1].judgement, Judgement::WithinBound);
        assert_eq!(trips.len(), 1);

        // The best two rounds of `noisy` are a third apart; its p50s agree.
        let noisy = result_file([60_000.0, 62_000.0, 40_000.0], [2.1, 2.0, 2.2], 0);
        assert_eq!(compare(&manifest(), &base, &noisy).unwrap().0[0].judgement, Judgement::WithinBound);
        let noisy = result_file([66_000.0, 45_000.0, 44_000.0], [2.1, 1.0, 3.5], 0);
        let rows = compare(&manifest(), &base, &noisy).unwrap().0;
        assert_eq!(rows[0].judgement, Judgement::Unresolved);
        assert_eq!(rows[1].judgement, Judgement::Unresolved);

        let failing = result_file([60_000.0, 61_000.0, 59_500.0], [2.1, 2.0, 2.2], 3);
        let (_, trips) = compare(&manifest(), &base, &failing).unwrap();
        assert_eq!(trips.len(), 1, "a higher failed share trips the gate: {trips:?}");
        assert!(compare(&manifest(), &failing, &base).unwrap().1.is_empty(), "a lower one does not");

        assert!(compare(&manifest(), &base, &Json::obj([("workloads", Json::Arr(vec![]))])).is_err());
    }
}
