//! E22 — QPS-r crossbar scheduling vs the maximal-matching envelope.
//!
//! Gong et al. (arXiv:1905.05392) propose QPS-r: each input samples ONE
//! output queue-proportionally and the outputs accept longest-VOQ-first,
//! for `r` rounds — `O(1)` work per port, no pointer state. Their theorem
//! is that QPS-r (any `r ≥ 1`) attains *exactly the delay guarantee of
//! maximal matchings*: under admissible i.i.d. traffic the expected extra
//! waiting over the ideal OQ switch obeys the Cogill–Lall conflict
//! envelope `λc / (1 − λc)` with `λc = 2ρ(N−1)/N` (arXiv cs/0605030) —
//! despite QPS-r *not* being maximal.
//!
//! This experiment measures mean/p99 delay of QPS-r at `r ∈ {1, 2, 3}`
//! under uniform Bernoulli load, side by side with iSLIP (2 iterations)
//! and the ideal OQ shadow, and charts the measured extra waiting against
//! the envelope. The envelope is only a theorem for `λc < 1` (here
//! `ρ < N / (2(N−1)) ≈ 0.53`); the high-load rows chart the unprovable
//! region — QPS-r keeps draining, the bound column just goes blank.

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{Table, TailQuantiles};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_crossbar_in, IslipArbiter, QpsRScheduler};
use pps_reference::oq::run_oq_in;
use pps_traffic::gen::BernoulliGen;

/// Ports.
pub(crate) const N: usize = 16;
/// Slots per load point.
pub(crate) const HORIZON: u64 = 10_000;

/// The Cogill–Lall conflict load `λc = 2ρ(N−1)/N` for uniform traffic.
pub(crate) fn conflict_load(load: f64) -> f64 {
    2.0 * load * (N as f64 - 1.0) / N as f64
}

/// The conflict envelope `λc / (1 − λc)`, or `None` where it is not a
/// theorem (`λc ≥ 1`).
pub(crate) fn envelope(load: f64) -> Option<f64> {
    let lc = conflict_load(load);
    (lc < 1.0).then(|| lc / (1.0 - lc))
}

/// One load point of a crossbar sweep: the ideal OQ mean delay, the delay
/// tails of each scheduler run in order, and the cells they left behind.
pub(crate) struct LoadPoint {
    pub(crate) load: f64,
    pub(crate) oq_mean: f64,
    pub(crate) runs: Vec<TailQuantiles>,
    pub(crate) undelivered: usize,
}

/// Run the shadow OQ, then every scheduler `runs` runs, on the `HORIZON`-slot
/// uniform Bernoulli trace at `load`.
pub(crate) fn measure(
    load: f64,
    seed: u64,
    sink: &Sink,
    runs: impl FnOnce(&Trace) -> Vec<RunLog>,
) -> LoadPoint {
    let trace = BernoulliGen::uniform(load, seed).trace(N, HORIZON);
    let oq_mean = run_oq_in(&trace, N, sink).mean_delay().unwrap_or(0.0);
    let logs = runs(&trace);
    let tails = |log: &RunLog| {
        let delays: Vec<i64> = log.delays().flatten().map(|d| d as i64).collect();
        TailQuantiles::from(&delays).expect("non-empty run")
    };
    LoadPoint {
        load,
        oq_mean,
        runs: logs.iter().map(tails).collect(),
        undelivered: logs.iter().map(RunLog::undelivered).sum(),
    }
}

/// iSLIP (2 iterations), then QPS-r for `r = 1, 2, 3`.
fn point(load: f64, seed: u64, sink: &Sink) -> LoadPoint {
    measure(load, seed, sink, |trace| {
        let islip = IslipArbiter::new(N, 2);
        let mut logs = vec![run_crossbar_in(trace, islip, sink).0];
        for r in 1..=3 {
            let qps = QpsRScheduler::new(N, r, seed ^ r as u64);
            logs.push(run_crossbar_in(trace, qps, sink).0);
        }
        logs
    })
}

/// `mean/p99`, flagging an unresolved small-sample p99 with `~` (see
/// `TailQuantiles` — for `count < den` the order statistic is the max by
/// definition).
pub(crate) fn mean_p99(q: &TailQuantiles) -> String {
    let unresolved = if q.resolvable(100) { "" } else { "~" };
    format!("{:.2}/{unresolved}{}", q.mean, q.p99)
}

/// A table row: load, `λc`, envelope, OQ mean, then each run's `mean/p99`.
pub(crate) fn row(p: &LoadPoint) -> Vec<String> {
    let mut row = vec![
        format!("{:.2}", p.load),
        format!("{:.2}", conflict_load(p.load)),
        envelope(p.load).map_or("—".into(), |e| format!("{e:.2}")),
        format!("{:.2}", p.oq_mean),
    ];
    row.extend(p.runs.iter().map(mean_p99));
    row
}

/// Run the sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let loads = [0.2, 0.35, 0.5, 0.7];
    let mut table = Table::new(
        format!(
            "QPS-r vs iSLIP vs ideal OQ, uniform Bernoulli (N={N}, {HORIZON} slots); \
             envelope = Cogill–Lall λc/(1−λc), blank where λc ≥ 1"
        ),
        &[
            "load",
            "λc",
            "envelope",
            "OQ mean",
            "iSLIP mean/p99",
            "qps-1 mean/p99",
            "qps-2 mean/p99",
            "qps-3 mean/p99",
        ],
    );
    let plan = SweepPlan::new_in("e22", loads.to_vec(), sink);
    let points = plan.run(|pt| point(*pt.params, 2200 + pt.index as u64, pt.sink));
    let mut claims = Claims::default();
    for p in &points {
        claims.at(format!("load = {:.2}", p.load));
        claims.check("undelivered = 0", p.undelivered, 0);
        if let Some(env) = envelope(p.load) {
            // The paper's guarantee: expected extra waiting over the ideal
            // OQ stays inside the conflict envelope, for every r.
            let extra = p.runs[1..]
                .iter()
                .map(|q| q.mean - p.oq_mean)
                .fold(f64::MIN, f64::max);
            claims.check("max over r of qps-r mean - OQ mean ≤ envelope", extra, env);
        }
        table.row_display(&row(p));
    }
    ExperimentOutput::new(
        "e22",
        "QPS-r — queue-proportional sampling meets the maximal-matching envelope",
        vec![table],
        &[
            "QPS-r's distinguishing claim is a maximal-matching delay guarantee at O(1) \
             per-port work: measured extra waiting over OQ sits far inside λc/(1−λc) \
             wherever that envelope is a theorem (λc < 1)",
            "more rounds help the constant, not the guarantee — r = 1 already carries \
             the full envelope",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }

    #[test]
    fn qps_extra_wait_sits_inside_the_envelope() {
        let p = point(0.35, 9, &Sink::default());
        let env = envelope(0.35).unwrap();
        for q in &p.runs[1..] {
            assert!(
                q.mean - p.oq_mean <= env,
                "extra wait {} vs envelope {env}",
                q.mean - p.oq_mean
            );
        }
        assert_eq!(p.undelivered, 0);
    }

    #[test]
    fn envelope_vanishes_past_the_provable_region() {
        assert!(envelope(0.5).is_some());
        assert!(envelope(0.54).is_none());
    }
}
