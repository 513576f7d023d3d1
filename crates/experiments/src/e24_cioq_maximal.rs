//! E24 — maximal matching with speedup: the Cogill–Lall envelope, measured.
//!
//! Cogill & Lall (arXiv cs/0605030) analyze a CIOQ switch running *any*
//! maximal matching at speedup 2 and bound the expected waiting beyond
//! the ideal OQ switch by the conflict envelope `λc / (1 − λc)`, with
//! `λc = 2ρ(N−1)/N` under uniform load — no deadline bookkeeping, no
//! stable-marriage machinery, any maximal matching qualifies.
//!
//! This experiment drives the CIOQ engine's deadline-blind maximal
//! round-robin matching ([`CioqPolicy::MaximalRr`]) at speedup 1 and 2,
//! with the deadline-aware critical-cells-first policy (the Chuang et al.
//! mimicking flavour, cf. E17) and the ideal OQ shadow as references, and
//! charts measured mean/p99 delay against the envelope. Expected shape:
//! at `s = 2` the blind maximal matching sits inside the envelope wherever
//! the envelope is a theorem (`λc < 1`), and speedup 2 strictly improves
//! on speedup 1; critical-first tracks OQ tighter still — the price of
//! deadline bookkeeping is what the envelope saves you from paying.

use crate::e22_qps_crossbar::{conflict_load, envelope, fmt_p99, tails, N};
use crate::ExperimentOutput;
use pps_analysis::{Table, TailQuantiles};
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_cioq_policy, CioqPolicy};
use pps_reference::oq::run_oq;
use pps_traffic::gen::BernoulliGen;

/// Slots per load point.
const HORIZON: u64 = 10_000;

/// One load point's measurements.
#[derive(Clone, Debug)]
struct LoadPoint {
    /// Offered per-input load.
    pub load: f64,
    /// Ideal OQ mean delay.
    pub oq_mean: f64,
    /// Maximal round-robin at speedup 1.
    pub mm_s1: TailQuantiles,
    /// Maximal round-robin at speedup 2.
    pub mm_s2: TailQuantiles,
    /// Critical-cells-first at speedup 2.
    pub cf_s2: TailQuantiles,
    /// Undelivered cells across all runs.
    pub undelivered: usize,
}

/// Measure one load level.
fn measure(load: f64, seed: u64) -> LoadPoint {
    let trace = BernoulliGen::uniform(load, seed).trace(N, HORIZON);
    let mode = pps_core::stepping::process_default();
    let oq = run_oq(&trace, N);
    let mm1 = run_cioq_policy(&trace, N, 1, CioqPolicy::MaximalRr, mode);
    let mm2 = run_cioq_policy(&trace, N, 2, CioqPolicy::MaximalRr, mode);
    let cf2 = run_cioq_policy(&trace, N, 2, CioqPolicy::CriticalFirst, mode);
    LoadPoint {
        load,
        oq_mean: oq.mean_delay().unwrap_or(0.0),
        mm_s1: tails(&mm1),
        mm_s2: tails(&mm2),
        cf_s2: tails(&cf2),
        undelivered: mm1.undelivered() + mm2.undelivered() + cf2.undelivered(),
    }
}

/// Run the sweep.
pub(crate) fn run() -> ExperimentOutput {
    let loads = [0.2, 0.35, 0.5, 0.8];
    let mut table = Table::new(
        format!(
            "Maximal-matching CIOQ vs critical-first and ideal OQ, uniform Bernoulli \
             (N={N}, {HORIZON} slots); envelope = Cogill–Lall λc/(1−λc), blank where λc ≥ 1"
        ),
        &[
            "load",
            "λc",
            "envelope",
            "OQ mean",
            "mm s=1 mean/p99",
            "mm s=2 mean/p99",
            "cf s=2 mean/p99",
        ],
    );
    let plan = SweepPlan::new("e24", loads.to_vec());
    let points = plan.run(|pt| measure(*pt.params, 2400 + pt.index as u64));
    let mut pass = true;
    for p in &points {
        pass &= p.undelivered == 0;
        // Speedup 2 never loses to speedup 1 (same matching, twice the
        // phases), and the deadline-aware policy never loses to the blind
        // one at the same speedup.
        pass &= p.mm_s2.mean <= p.mm_s1.mean + 1e-9;
        pass &= p.cf_s2.mean <= p.mm_s2.mean + 0.05;
        if let Some(env) = envelope(p.load) {
            // The theorem under test: blind maximal matching at speedup 2
            // stays inside the conflict envelope of the ideal OQ delay.
            pass &= p.mm_s2.mean - p.oq_mean <= env;
        }
        let fmt = |q: &TailQuantiles| format!("{:.2}/{}", q.mean, fmt_p99(q));
        table.row_display(&[
            format!("{:.2}", p.load),
            format!("{:.2}", conflict_load(p.load)),
            envelope(p.load).map_or("—".into(), |e| format!("{e:.2}")),
            format!("{:.2}", p.oq_mean),
            fmt(&p.mm_s1),
            fmt(&p.mm_s2),
            fmt(&p.cf_s2),
        ]);
    }
    ExperimentOutput {
        id: "e24",
        title: "Maximal matching with speedup — the Cogill–Lall envelope, measured".into(),
        tables: vec![table],
        notes: vec![
            "any maximal matching at speedup 2 inherits the λc/(1−λc) waiting envelope; \
             the measured blind round-robin matching sits far inside it wherever λc < 1"
                .into(),
            "critical-first at the same speedup tracks OQ tighter — deadline bookkeeping \
             buys the constant, the envelope is free"
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
    fn speedup_two_is_inside_the_envelope() {
        let p = measure(0.35, 11);
        let env = envelope(0.35).unwrap();
        assert_eq!(p.undelivered, 0);
        assert!(
            p.mm_s2.mean - p.oq_mean <= env,
            "extra wait {} vs envelope {env}",
            p.mm_s2.mean - p.oq_mean
        );
        assert!(p.mm_s2.mean <= p.mm_s1.mean + 1e-9);
    }
}
