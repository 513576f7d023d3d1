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

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_crossbar_in, IslipArbiter};
use pps_reference::oq::run_oq_in;
use pps_switch::demux::{CpaDemux, RoundRobinDemux};
use pps_switch::BufferlessPps;
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
fn point(
    n: usize,
    k: usize,
    r_prime: usize,
    load: f64,
    seed: u64,
    sink: &Sink,
) -> [(f64, u64, usize); 4] {
    let trace = BernoulliGen::uniform(load, seed).trace(n, 3_000);
    let oq = run_oq_in(&trace, n, sink);
    let xb = run_crossbar_in(&trace, IslipArbiter::new(n, 2), sink).0;
    let cpa_cfg =
        PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    let cpa = BufferlessPps::new_in(cpa_cfg, CpaDemux::new(n, k, r_prime), sink)
        .and_then(|mut pps| pps.run(&trace))
        .expect("run")
        .log;
    let rr_cfg = PpsConfig::bufferless(n, k, r_prime);
    let rr = BufferlessPps::new_in(rr_cfg, RoundRobinDemux::new(n, k), sink)
        .and_then(|mut pps| pps.run(&trace))
        .expect("run")
        .log;
    [stats(&oq), stats(&xb), stats(&cpa), stats(&rr)]
}

/// Run the default load sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
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
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e13", vec![0.5f64, 0.7, 0.9, 0.99], sink);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, 77, pt.sink));
    for (&load, [oq, xb, cpa, rr]) in plan.points().iter().zip(results) {
        // Sanity: everything drains; the ideal OQ is never beaten on mean
        // (the same cells, so the means compare as their integer sums do).
        claims.at(format!("load = {load}"));
        let undelivered = oq.2 + xb.2 + cpa.2 + rr.2;
        claims.check("cells undelivered = 0", undelivered, 0);
        claims.check("iSLIP mean ≥ OQ mean", xb.0, oq.0);
        claims.check("PPS+CPA mean ≥ OQ mean", cpa.0, oq.0);
        claims.check("PPS+RR mean ≥ OQ mean", rr.0, oq.0);
        // CPA mimics FCFS-OQ: identical maxima.
        claims.check("PPS+CPA max = OQ max", cpa.1, oq.1);
        let fmt = |(mean, max, _): (f64, u64, usize)| format!("{mean:.2}/{max}");
        table.row_display(&[format!("{load}"), fmt(oq), fmt(xb), fmt(cpa), fmt(rr)]);
    }
    ExperimentOutput::new(
        "e13",
        "Baseline — PPS vs ideal OQ vs iSLIP input-queued crossbar",
        vec![table],
        &[
            "under benign uniform load all architectures are close — the paper's \
             bounds are about worst cases, not averages (contrast with E2)",
            "PPS+CPA's max delay equals OQ's at every load: mimicking, measured",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_architectures_drain_and_respect_the_ideal() {
        let [oq, xb, cpa, rr] = point(8, 8, 4, 0.8, 3, &Sink::default());
        for (mean, _max, undelivered) in [oq, xb, cpa, rr] {
            assert_eq!(undelivered, 0);
            assert!(mean >= 0.0);
        }
        assert!(xb.0 >= oq.0 - 1e-9);
        assert_eq!(cpa.1, oq.1, "CPA must mimic the OQ max delay");
    }

    #[test]
    fn islip_waits_only_at_its_inputs_and_each_pps_run_has_a_block() {
        let ([_, xb, cpa, rr], summary) =
            crate::tests::traced(|sink| point(16, 8, 4, 0.5, 77, sink));
        let blocks = crate::tests::blocks(&summary);
        let engines: Vec<&str> = blocks.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(engines, ["crossbar", "pps", "pps"], "{summary}");
        // Each block's absolute delay is its run's: the stage waits summed
        // over the cells, divided by them, is the table's mean delay.
        for ((_, lines), (mean, ..)) in blocks.iter().zip([xb, cpa, rr]) {
            let (cells, all) = (lines[0].get("cells"), &lines[1]);
            let waits: i64 = ["input-wait", "plane-wait", "output-hold"]
                .iter()
                .map(|stage| all.get(stage))
                .sum();
            assert!((waits as f64 / cells as f64 - mean).abs() < 1e-9);
        }
        let islip = &blocks[0].1[1];
        assert_eq!((islip.get("plane-wait"), islip.get("output-hold")), (0, 0));
        // CPA mimics the reference; round robin does not.
        assert_eq!(blocks[1].1[0].get("max"), 0);
        assert!(blocks[2].1[0].get("max") > 0);
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
        let oq = run_oq_in(&trace, n, &Sink::default());
        let xb = run_crossbar_in(&trace, IslipArbiter::new(n, 2), &Sink::default()).0;
        assert_eq!(xb.undelivered(), 0);
        // Input-queued matching cannot beat the ideal on the hot output.
        assert!(xb.mean_delay().unwrap() >= oq.mean_delay().unwrap() - 1e-9);
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
