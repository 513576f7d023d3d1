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

use crate::claim::Claims;
use crate::e22_qps_crossbar::{envelope, measure, row, LoadPoint, HORIZON, N};
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::run::Sink;
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_cioq_in, CioqPolicy};

/// Maximal round-robin at speedup 1 and 2, then critical-cells-first at
/// speedup 2.
fn point(load: f64, seed: u64, sink: &Sink) -> LoadPoint {
    measure(load, seed, sink, |trace| {
        let runs = [
            (1, CioqPolicy::MaximalRr),
            (2, CioqPolicy::MaximalRr),
            (2, CioqPolicy::CriticalFirst),
        ];
        runs.map(|(s, policy)| run_cioq_in(trace, N, s, policy, sink))
            .into()
    })
}

/// Run the sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
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
    let plan = SweepPlan::new_in("e24", loads.to_vec(), sink);
    let points = plan.run(|pt| point(*pt.params, 2400 + pt.index as u64, pt.sink));
    let mut claims = Claims::default();
    for p in &points {
        claims.at(format!("load = {:.2}", p.load));
        claims.check("undelivered = 0", p.undelivered, 0);
        // Speedup 2 never loses to speedup 1 (same matching, twice the
        // phases; the same cells, so the means compare as their integer
        // sums do), and the deadline-aware policy never loses to the blind
        // one at the same speedup.
        let [mm_s1, mm_s2, cf_s2] = [0, 1, 2].map(|i| p.runs[i].mean);
        claims.check("mm s=2 mean ≤ mm s=1 mean", mm_s2, mm_s1);
        claims.check("cf s=2 mean ≤ mm s=2 mean + 0.05", cf_s2, mm_s2 + 0.05);
        if let Some(env) = envelope(p.load) {
            // The theorem under test: blind maximal matching at speedup 2
            // stays inside the conflict envelope of the ideal OQ delay.
            claims.check("mm s=2 mean - OQ mean ≤ envelope", mm_s2 - p.oq_mean, env);
        }
        table.row_display(&row(p));
    }
    ExperimentOutput::new(
        "e24",
        "Maximal matching with speedup — the Cogill–Lall envelope, measured",
        vec![table],
        &[
            "any maximal matching at speedup 2 inherits the λc/(1−λc) waiting envelope; \
             the measured blind round-robin matching sits far inside it wherever λc < 1",
            "critical-first at the same speedup tracks OQ tighter — deadline bookkeeping \
             buys the constant, the envelope is free",
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
    fn speedup_two_is_inside_the_envelope() {
        let p = point(0.35, 11, &Sink::default());
        let env = envelope(0.35).unwrap();
        let [mm_s1, mm_s2] = [0, 1].map(|i| p.runs[i].mean);
        assert_eq!(p.undelivered, 0);
        assert!(
            mm_s2 - p.oq_mean <= env,
            "extra wait {} vs envelope {env}",
            mm_s2 - p.oq_mean
        );
        assert!(mm_s2 <= mm_s1);
    }
}
