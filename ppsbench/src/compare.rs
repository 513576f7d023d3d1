//! `ppsbench compare A.json B.json`: two *sets* of runs (each file is what
//! `run --out` appended over ≥ 3 runs), compared per workload × end-to-end
//! metric by set median against the benchmark's bounds.
//!
//! Verdicts follow choosing-metrics §6: a median worse than the base by
//! more than the bound is `regressed`; where either set's own spread
//! (interquartile distance ÷ median) exceeds the bound the pair is
//! `unresolved`, not `unchanged` — unless every run of B reads better than
//! every run of A, which no amount of spread can explain away.

use crate::metrics::{end_to_end, median, spread, MetricDef, SETUP_FLOOR_S};
use pps_telemetry::chrome::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest runs of a workload a set must hold.
pub const MIN_RUNS: usize = 3;

/// One set: per workload, per metric, the values of its runs; plus what
/// must repeat exactly.
#[derive(Default)]
struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Per `(workload, seed, quick)`: the distinct `simulated` objects seen.
    simulated: BTreeMap<String, Vec<String>>,
}

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let rec = parse_json(line).map_err(|e| bad(&e))?;
        if rec.get("trace") != Some(&Json::Bool(false)) {
            continue; // traced runs carry no end-to-end metrics
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no \"workload\""))?;
        let result = rec.get("result").ok_or_else(|| bad("no \"result\""))?;
        let num = |key: &str| result.get(key).and_then(Json::as_num);
        let (Some(attempted), Some(failed)) = (num("attempted"), num("failed")) else {
            return Err(bad("result without attempted/failed"));
        };
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("result without \"metrics\""));
        };
        let per_metric = set.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or_else(|| bad(&format!("metric {name:?} without a value")))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
        per_metric
            .entry("failed_share".into())
            .or_default()
            .push(failed / attempted.max(1.0));
        let key = format!(
            "{workload} seed {} quick {}",
            rec.get("seed").and_then(Json::as_num).unwrap_or(0.0),
            rec.get("quick") == Some(&Json::Bool(true))
        );
        let simulated = format!("{:?}", rec.get("simulated"));
        let seen = set.simulated.entry(key).or_default();
        if !seen.contains(&simulated) {
            seen.push(simulated);
        }
    }
    Ok(set)
}

/// Compare the two sets; returns the printed table and whether anything
/// regressed, stayed unresolved, or failed to repeat.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_set(path_a)?, read_set(path_b)?);
    let mut defs: Vec<MetricDef> = end_to_end();
    defs.push(MetricDef {
        name: "failed_share".into(),
        unit: "ratio",
        better: "lower",
        bound: Some(0.0),
    });
    let mut out = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base (A)", "value (B)", "B/A", "bound"
    );
    let mut bad = false;
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            return Err(format!("{path_b}: no runs of {workload}"));
        };
        for d in &defs {
            let (Some(va), Some(vb)) = (metrics_a.get(&d.name), metrics_b.get(&d.name)) else {
                return Err(format!("{workload}: {} missing from a set", d.name));
            };
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{workload}: a set needs ≥ {MIN_RUNS} runs (A has {}, B has {})",
                    va.len(),
                    vb.len()
                ));
            }
            let (ma, mb) = (median(va), median(vb));
            let lower = d.better == "lower";
            let worse_by = if lower { mb - ma } else { ma - mb };
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            // `setup_s` is milliseconds on `registry`: give it a floor.
            let allowed = match d.name.as_str() {
                "setup_s" => (bound * ma).max(SETUP_FLOOR_S),
                _ => bound * ma,
            };
            let noisy = ma > 0.0 && mb > 0.0 && (spread(va) > bound || spread(vb) > bound);
            let every_b_better = vb
                .iter()
                .all(|&y| va.iter().all(|&x| if lower { y < x } else { y > x }));
            let verdict = if noisy && every_b_better {
                "improved"
            } else if noisy {
                "unresolved"
            } else if worse_by > allowed {
                "regressed"
            } else if -worse_by > allowed {
                "improved"
            } else {
                "unchanged"
            };
            bad |= matches!(verdict, "regressed" | "unresolved");
            let ratio = if ma != 0.0 { mb / ma } else { 1.0 };
            let _ = writeln!(
                out,
                "{workload:<16} {:<14} {ma:>14.4} {mb:>14.4} {ratio:>8.4} {:>6.0}%  {verdict}",
                d.name,
                bound * 100.0
            );
        }
    }
    for (key, seen_a) in &a.simulated {
        let seen_b = b.simulated.get(key).map_or(&[][..], Vec::as_slice);
        let mut distinct = seen_a.clone();
        distinct.extend(seen_b.iter().filter(|s| !seen_a.contains(s)).cloned());
        let same = distinct.len() == 1;
        bad |= !same;
        let _ = writeln!(
            out,
            "{key}: simulated statistics {}",
            if same {
                "identical across all runs"
            } else {
                "DIFFER"
            }
        );
    }
    Ok((out, bad))
}
