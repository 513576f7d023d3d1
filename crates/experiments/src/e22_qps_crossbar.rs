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

use crate::ExperimentOutput;
use pps_analysis::{Table, TailQuantiles};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_crossbar_with, QpsRScheduler};
use pps_reference::oq::run_oq;
use pps_traffic::gen::BernoulliGen;

/// Ports.
pub(crate) const N: usize = 16;
/// Slots per load point.
const HORIZON: u64 = 10_000;

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

/// Delay tails of one scheduler run.
pub(crate) fn tails(log: &RunLog) -> TailQuantiles {
    let delays: Vec<i64> = log.delays().flatten().map(|d| d as i64).collect();
    TailQuantiles::from(&delays).expect("non-empty run")
}

/// One load point's measurements.
#[derive(Clone, Debug)]
struct LoadPoint {
    /// Offered per-input load.
    pub load: f64,
    /// Ideal OQ mean delay.
    pub oq_mean: f64,
    /// iSLIP (2 iterations) delay tails.
    pub islip: TailQuantiles,
    /// QPS-r delay tails, indexed by `r - 1`.
    pub qps: [TailQuantiles; 3],
    /// Undelivered cells across all crossbar runs.
    pub undelivered: usize,
}

/// Measure one load level.
fn measure(load: f64, seed: u64) -> LoadPoint {
    let trace = BernoulliGen::uniform(load, seed).trace(N, HORIZON);
    let mode = pps_core::stepping::process_default();
    let oq = run_oq(&trace, N);
    let (islip_log, _) = run_crossbar_with(&trace, pps_crossbar::IslipArbiter::new(N, 2), mode);
    let qps: Vec<(RunLog, TailQuantiles)> = (1..=3)
        .map(|r| {
            let (log, _) =
                run_crossbar_with(&trace, QpsRScheduler::new(N, r, seed ^ r as u64), mode);
            let t = tails(&log);
            (log, t)
        })
        .collect();
    LoadPoint {
        load,
        oq_mean: oq.mean_delay().unwrap_or(0.0),
        islip: tails(&islip_log),
        qps: [qps[0].1.clone(), qps[1].1.clone(), qps[2].1.clone()],
        undelivered: islip_log.undelivered()
            + qps.iter().map(|(l, _)| l.undelivered()).sum::<usize>(),
    }
}

/// Format a tail quantile, flagging unresolved small samples with `~`
/// (see `TailQuantiles` — for `count < den` the order statistic is the
/// max by definition).
pub(crate) fn fmt_p99(q: &TailQuantiles) -> String {
    if q.resolvable(100) {
        q.p99.to_string()
    } else {
        format!("~{}", q.p99)
    }
}

/// Run the sweep.
pub(crate) fn run() -> ExperimentOutput {
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
    let plan = SweepPlan::new("e22", loads.to_vec());
    let points = plan.run(|pt| measure(*pt.params, 2200 + pt.index as u64));
    let mut pass = true;
    for p in &points {
        pass &= p.undelivered == 0;
        if let Some(env) = envelope(p.load) {
            // The paper's guarantee: expected extra waiting over the ideal
            // OQ stays inside the conflict envelope, for every r.
            for q in &p.qps {
                pass &= q.mean - p.oq_mean <= env;
            }
        }
        let fmt = |q: &TailQuantiles| format!("{:.2}/{}", q.mean, fmt_p99(q));
        table.row_display(&[
            format!("{:.2}", p.load),
            format!("{:.2}", conflict_load(p.load)),
            envelope(p.load).map_or("—".into(), |e| format!("{e:.2}")),
            format!("{:.2}", p.oq_mean),
            fmt(&p.islip),
            fmt(&p.qps[0]),
            fmt(&p.qps[1]),
            fmt(&p.qps[2]),
        ]);
    }
    ExperimentOutput {
        id: "e22",
        title: "QPS-r — queue-proportional sampling meets the maximal-matching envelope".into(),
        tables: vec![table],
        notes: vec![
            "QPS-r's distinguishing claim is a maximal-matching delay guarantee at O(1) \
             per-port work: measured extra waiting over OQ sits far inside λc/(1−λc) \
             wherever that envelope is a theorem (λc < 1)"
                .into(),
            "more rounds help the constant, not the guarantee — r = 1 already carries \
             the full envelope"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }

    #[test]
    fn qps_extra_wait_sits_inside_the_envelope() {
        let p = measure(0.35, 9);
        let env = envelope(0.35).unwrap();
        for q in &p.qps {
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
