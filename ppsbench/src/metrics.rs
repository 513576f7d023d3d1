//! Metric names, units, directions and bounds — the table `BENCHMARK.json`
//! mirrors (`tests/ppsbench_smoke.rs` holds the two to each other) — plus
//! the order statistics every report uses.
//!
//! All times are **host time** of the simulator. Simulated statistics
//! (digests, slots, cells, queue depths) are **simulated time** and must
//! repeat exactly from run to run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric of the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the base median by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Floor under `setup_s`'s bound in `compare`: `registry` sets up in
/// milliseconds, where 25 % is below timer noise.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// The end-to-end metrics, the same five on every workload.
///
/// The three host-time bounds are as wide as the contract allows because
/// the box is: on the 2-vCPU KVM guest the committed numbers came from, the
/// same binary on the same seed drifts ±10 % between back-to-back 10 s runs
/// (whole runs shift, their own quartiles stay tight), whatever statistic a
/// run reports. The bound says what one set of runs can resolve here, not
/// what a change is allowed to cost; README.md has the measured spreads.
///
/// The sixth
/// figure a user sees — failed ops ÷ ops attempted, bound 0 — travels as
/// the result line's `failed` and `attempted`, because a metric that is 0
/// on every healthy run cannot carry a relative bound.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        // Median wall time of one timed rep.
        def("wall_s", "s", "lower", Some(0.25)),
        // Cell arrivals ingested, summed over every engine run of a rep,
        // per second of `wall_s`.
        def("cells_per_s", "engine-cells/s", "higher", Some(0.25)),
        // `perf::slots_simulated()` delta per rep ÷ `wall_s` (processed
        // slots only; skipped slots are printed, not counted).
        def("slots_per_s", "slots/s", "higher", Some(0.25)),
        // `VmHWM` of a fresh process that runs one rep with glibc's mmap
        // threshold pinned (see `run::peak_rss_of_one_rep`).
        def("peak_rss_mb", "MiB", "lower", Some(0.05)),
        // Median of the run's set-ups: golden load, workload build,
        // warm-up reps.
        def("setup_s", "s", "lower", Some(0.25)),
    ]
}

/// The per-layer metrics of the traced run. Every workload prints every
/// one; a layer the workload never enters reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("workload.materialize_ns_per_cell", "ns/cell", "lower", None),
        def("core.trace_cells_ns_per_cell", "ns/cell", "lower", None),
        def("core.runlog_init_ns_per_cell", "ns/cell", "lower", None),
        def("pps.fabric_new_us", "us", "lower", None),
        def("pps.demux_ns_per_cell", "ns/cell", "lower", None),
        def("pps.dispatch_ns_per_cell", "ns/cell", "lower", None),
        def("pps.service_ns_per_cell", "ns/cell", "lower", None),
        def("pps.emit_ns_per_cell", "ns/cell", "lower", None),
        def("pps.slot_ns_per_slot", "ns/slot", "lower", None),
        def("pps.backlog_ns_per_slot", "ns/slot", "lower", None),
        def("pps.next_activity_ns_per_jump", "ns/jump", "lower", None),
        def("pps.skip_idle_ns_per_jump", "ns/jump", "lower", None),
        def("pps.slots_processed", "count", "lower", None),
        def("pps.slots_skipped", "count", "higher", None),
        def("pps.skip_jumps", "count", "lower", None),
        def("pps.engine_overhead_pct", "%", "lower", None),
        def("pps.bufferless_run_ns_per_cell", "ns/cell", "lower", None),
        def("pps.buffered_run_ns_per_cell", "ns/cell", "lower", None),
        def("pps.max_plane_queue", "count", "lower", None),
        def("pps.max_output_held", "count", "lower", None),
        def("pps.stalled_slots", "count", "lower", None),
        def("reference.oq_max_occupancy", "count", "lower", None),
        def("reference.oq_ns_per_cell", "ns/cell", "lower", None),
        def("analysis.join_ns_per_cell", "ns/cell", "lower", None),
        def("analysis.tails_ns_per_cell", "ns/cell", "lower", None),
        def("analysis.render_us", "us", "lower", None),
        def("crossbar.islip2_ns_per_cell", "ns/cell", "lower", None),
        def("crossbar.qps3_ns_per_cell", "ns/cell", "lower", None),
        def("crossbar.swqps8_ns_per_cell", "ns/cell", "lower", None),
        def(
            "crossbar.cioq_critical_ns_per_cell",
            "ns/cell",
            "lower",
            None,
        ),
        def(
            "crossbar.cioq_maximal_ns_per_cell",
            "ns/cell",
            "lower",
            None,
        ),
        def("traffic.attack_build_us", "us", "lower", None),
    ];
    for (id, _) in pps_experiments::registry() {
        v.push(def(
            &format!("experiments.{id}.wall_ms"),
            "ms",
            "lower",
            None,
        ));
    }
    v.extend([
        def("experiments.render_ms", "ms", "lower", None),
        def("experiments.jobs2_speedup", "ratio", "higher", None),
        def("pps.intra2_speedup", "ratio", "higher", None),
        def("telemetry.counters_overhead_pct", "%", "lower", None),
        def("telemetry.full_overhead_pct", "%", "lower", None),
        def("trace.overhead_pct", "%", "lower", None),
        def("trace.coverage_pct", "%", "higher", None),
    ]);
    v
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The result line the benchmark contract asks for: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`, every metric of
/// `defs` present, in `defs` order.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values.get(&d.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            d.name,
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the rule the benchmark's driver applies); a sample of one
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = end_to_end();
        let mut values = Values::new();
        values.insert("wall_s".into(), 0.25);
        let line = result_line(&defs, &values, 7, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
