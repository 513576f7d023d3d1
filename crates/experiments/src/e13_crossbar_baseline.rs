//! E13 — architecture baseline: the PPS against the single-fabric
//! input-queued crossbar it displaces.
//!
//! The paper's related work anchors the PPS between two single-fabric
//! designs: the ideal output-queued switch (needs memory at rate `N·R` —
//! the reference) and the input-queued crossbar with a centralized arbiter
//! (runs at rate `R`; Tamir & Chi's arbitrated crossbars are the paper's
//! u-RT example). This experiment measures mean/max queuing delay of all
//! four under the same admissible uniform Bernoulli load:
//!
//! * OQ (ideal), * iSLIP crossbar (VOQ, 2 iterations), * PPS + CPA
//!   (centralized, S = 2), * PPS + round robin (fully distributed).
//!
//! Expected shape: OQ and PPS+CPA coincide; the crossbar tracks OQ closely
//! under uniform load (iSLIP's home turf) but cannot beat it; PPS+RR pays
//! a small typical-case penalty — its Θ(N) cost is a *worst-case* story
//! (E2), which is the paper's point.

use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_crossbar::run_crossbar;
use pps_reference::oq::run_oq;
use pps_switch::demux::{CpaDemux, RoundRobinDemux};
use pps_switch::engine::run_bufferless;
use pps_traffic::gen::BernoulliGen;

fn stats(log: &RunLog) -> (f64, u64, usize) {
    (
        log.mean_delay().unwrap_or(0.0),
        log.max_delay().unwrap_or(0),
        log.undelivered(),
    )
}

/// One load point: `(oq, crossbar, pps_cpa, pps_rr)` as
/// `(mean delay, max delay, undelivered)` triples.
#[allow(clippy::type_complexity)]
fn point(n: usize, k: usize, r_prime: usize, load: f64, seed: u64) -> [(f64, u64, usize); 4] {
    let trace = BernoulliGen::uniform(load, seed).trace(n, 3_000);
    let oq = run_oq(&trace, n);
    let xb = run_crossbar(&trace, n, 2);
    let cpa_cfg =
        PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    let cpa = run_bufferless(cpa_cfg, CpaDemux::new(n, k, r_prime), &trace)
        .expect("run")
        .log;
    let rr = run_bufferless(
        PpsConfig::bufferless(n, k, r_prime),
        RoundRobinDemux::new(n, k),
        &trace,
    )
    .expect("run")
    .log;
    [stats(&oq), stats(&xb), stats(&cpa), stats(&rr)]
}

/// Run the default load sweep.
pub(crate) fn run() -> ExperimentOutput {
    let (n, k, r_prime) = (16, 8, 4); // S = 2
    let mut table = Table::new(
        format!("Queuing delay by architecture at N={n} (PPS: K={k}, r'={r_prime}, S=2), uniform Bernoulli"),
        &[
            "load",
            "OQ mean/max",
            "iSLIP mean/max",
            "PPS+CPA mean/max",
            "PPS+RR mean/max",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new("e13", vec![0.5f64, 0.7, 0.9, 0.99]);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, 77));
    for (&load, [oq, xb, cpa, rr]) in plan.points().iter().zip(results) {
        // Sanity: everything drains; the ideal OQ is never beaten on mean.
        pass &= oq.2 == 0 && xb.2 == 0 && cpa.2 == 0 && rr.2 == 0;
        pass &= xb.0 + 1e-9 >= oq.0 && cpa.0 + 1e-9 >= oq.0 && rr.0 + 1e-9 >= oq.0;
        // CPA mimics FCFS-OQ: identical maxima.
        pass &= cpa.1 == oq.1;
        let fmt = |(mean, max, _): (f64, u64, usize)| format!("{mean:.2}/{max}");
        table.row_display(&[format!("{load}"), fmt(oq), fmt(xb), fmt(cpa), fmt(rr)]);
    }
    ExperimentOutput {
        id: "e13",
        title: "Baseline — PPS vs ideal OQ vs iSLIP input-queued crossbar".into(),
        tables: vec![table],
        notes: vec![
            "under benign uniform load all architectures are close — the paper's \
             bounds are about worst cases, not averages (contrast with E2)"
                .into(),
            "PPS+CPA's max delay equals OQ's at every load: mimicking, measured".into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_architectures_drain_and_respect_the_ideal() {
        let [oq, xb, cpa, rr] = point(8, 8, 4, 0.8, 3);
        for (mean, _max, undelivered) in [oq, xb, cpa, rr] {
            assert_eq!(undelivered, 0);
            assert!(mean >= 0.0);
        }
        assert!(xb.0 >= oq.0 - 1e-9);
        assert_eq!(cpa.1, oq.1, "CPA must mimic the OQ max delay");
    }

    #[test]
    fn crossbar_degrades_under_hotspot_where_pps_cpa_does_not() {
        use pps_traffic::gen::TrafficPattern;
        let n = 8;
        let trace = BernoulliGen {
            load: 0.6,
            pattern: TrafficPattern::Hotspot {
                target: 0,
                hot: 0.5,
            },
            seed: 5,
        }
        .trace(n, 2_000);
        let oq = run_oq(&trace, n);
        let xb = run_crossbar(&trace, n, 2);
        assert_eq!(xb.undelivered(), 0);
        // Input-queued matching cannot beat the ideal on the hot output.
        assert!(xb.mean_delay().unwrap() >= oq.mean_delay().unwrap() - 1e-9);
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
