//! E19 — average and tail relative delay under stochastic heavy traffic.
//!
//! Every experiment before this one drove the switch with a scripted
//! adversary: the right tool for *lower* bounds, silent about the typical
//! case. Here three stochastic generator families from `pps-workload` —
//! Zipf-skewed flows, Markov-modulated (MMPP) bursts, and full-rate
//! on-off trains — run against one representative of each information
//! class of the paper's taxonomy:
//!
//! * fully distributed — round robin (Theorem 6 regime),
//! * `u`-RT distributed — stale least-loaded with `u = 2` (Theorem 10),
//! * centralized — CPA over global FCFS (the zero-relative-delay regime).
//!
//! For each `(family, class)` pair we report the mean, p99, p999 and max
//! relative delay against the shadow OQ switch. The sanity ceiling is the
//! chaos harness's envelope bound `r'·(N + K + B) + 64` with `B` the
//! *measured* burstiness of the materialized trace — sound for any
//! traffic — and the headline observation is the gulf between it and the
//! measured p999: worst-case inherent delay needs adversarial
//! coordination that stochastic load, even heavy and bursty, essentially
//! never produces (the paper's §6 closing point, here quantified in the
//! tail rather than the max).

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, relative_delays, Comparison, Table, TailQuantiles};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{CpaDemux, RoundRobinDemux, StaleLeastLoadedDemux};
use pps_traffic::min_burstiness;
use pps_workload::WorkloadSpec;

/// Switch geometry shared by every point: `S = K/r' = 2`, the paper's
/// canonical speedup-2 operating point.
const N: usize = 16;
/// Center-stage planes.
const K: usize = 8;
/// Internal slowdown `R/r`.
const R_PRIME: usize = 4;

/// The three generator families under study (name, `--workload` spec).
fn families() -> Vec<(&'static str, String)> {
    vec![
        (
            "zipf",
            format!("zipf:n={N},load=0.85,s=1.1,flows=1048576,seed=7,horizon=20000"),
        ),
        (
            "mmpp",
            format!("mmpp:n={N},calm=0.1,burst=0.95,calm_exit=0.02,burst_exit=0.08,seed=7,horizon=20000"),
        ),
        (
            "onoff",
            format!("onoff:n={N},on=0.03,off=0.15,seed=7,horizon=20000"),
        ),
    ]
}

/// A labeled comparison runner: builds its demux for the bufferless
/// geometry it is handed and runs `trace` against the shadow OQ.
type ClassRunner = (
    &'static str,
    fn(PpsConfig, &Trace, &Sink) -> Result<Comparison, ModelError>,
);

/// Information classes: one representative demux per class (also the rows
/// of the `ppslab --workload` report).
pub(crate) fn classes() -> [ClassRunner; 3] {
    [
        ("fully-dist (rr)", |cfg, t, sink| {
            compare_bufferless_in(cfg, RoundRobinDemux::new(cfg.n, cfg.k), t, sink)
        }),
        ("u-RT (stale:2)", |cfg, t, sink| {
            compare_bufferless_in(cfg, StaleLeastLoadedDemux::new(cfg.n, cfg.k, 2), t, sink)
        }),
        ("centralized (cpa)", |cfg, t, sink| {
            compare_bufferless_in(
                cfg.with_discipline(OutputDiscipline::GlobalFcfs),
                CpaDemux::new(cfg.n, cfg.k, cfg.r_prime),
                t,
                sink,
            )
        }),
    ]
}

/// One `(family, class)` point: the materialized trace's cells and minimal
/// burstiness, the relative-delay tails, and the cells the PPS left behind.
struct TailPoint {
    family: &'static str,
    class: &'static str,
    cells: usize,
    burstiness: u64,
    tails: TailQuantiles,
    undelivered: usize,
}

impl TailPoint {
    /// The chaos-harness envelope ceiling for this point's traffic.
    fn envelope(&self) -> i64 {
        bounds::traffic_envelope(&PpsConfig::bufferless(N, K, R_PRIME), self.burstiness) as i64
    }
}

/// Measure every `(family, class)` combination.
fn measure(sink: &Sink) -> Vec<TailPoint> {
    let fams = families();
    let cls = classes();
    let combos: Vec<(usize, usize)> = (0..fams.len())
        .flat_map(|f| (0..cls.len()).map(move |c| (f, c)))
        .collect();
    let plan = SweepPlan::new_in("e19", combos, sink);
    plan.run(|pt| {
        let (f, c) = *pt.params;
        let spec = WorkloadSpec::parse(&fams[f].1).expect("family spec");
        let trace = spec.trace().expect("materialize");
        let b = min_burstiness(&trace, N).overall();
        let cmp = (cls[c].1)(PpsConfig::bufferless(N, K, R_PRIME), &trace, pt.sink).expect("run");
        let rd = cmp.relative_delay();
        let tails =
            TailQuantiles::from(&relative_delays(&cmp.pps.log, &cmp.oq)).expect("nonempty trace");
        TailPoint {
            family: fams[f].0,
            class: cls[c].0,
            cells: trace.len(),
            burstiness: b,
            tails,
            undelivered: rd.pps_undelivered,
        }
    })
}

/// Run the study.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let mut table = Table::new(
        format!(
            "Relative-delay tails under stochastic load (N={N}, K={K}, r'={R_PRIME}, S=2; \
             mean/p99/p999/max vs shadow OQ)"
        ),
        &[
            "family", "class", "cells", "B_min", "mean", "p99", "p999", "max", "envelope",
        ],
    );
    let mut claims = Claims::default();
    let points = measure(sink);
    let worst = bounds::theorem6_exact(R_PRIME, N);
    for p in &points {
        // Soundness: everything delivered, tails ordered, and the whole
        // distribution under the traffic-measured envelope ceiling.
        claims.at(format!("family = {}, class = {}", p.family, p.class));
        claims.check("undelivered = 0", p.undelivered, 0);
        claims.check("p99 ≤ p999", p.tails.p99, p.tails.p999);
        claims.check("p999 ≤ max", p.tails.p999, p.tails.max);
        claims.check("max ≤ envelope", p.tails.max, p.envelope());
        // The stochastic tail sits far below the adversarial worst case:
        // the deterministic fully-distributed bound at this geometry is
        // (r'−1)(N−1) = 45; even p999 under heavy stochastic load must
        // not reach it for the distributed classes (the paper's point
        // that the worst case needs coordination).
        if p.class.starts_with("fully") {
            let what = "p999 < (r'-1)(N-1) for fully-distributed classes";
            claims.check(what, p.tails.p999, worst);
        }
        table.row_display(&[
            p.family.to_string(),
            p.class.to_string(),
            p.cells.to_string(),
            p.burstiness.to_string(),
            format!("{:.2}", p.tails.mean),
            p.tails.p99.to_string(),
            p.tails.p999.to_string(),
            p.tails.max.to_string(),
            p.envelope().to_string(),
        ]);
    }
    ExperimentOutput::new(
        "e19",
        "Stochastic heavy traffic — mean and tail relative delay across information classes",
        vec![table],
        &[
            "three generator families (Zipf flows, correlated MMPP bursts, full-rate \
             on-off trains), one representative per information class; every cell \
             delivered, every distribution under the measured-burstiness envelope",
            "the adversarial ceiling (r'-1)(N-1) = 45 for fully-distributed demuxes is \
             never approached by the stochastic p999 — the worst case needs \
             coordinated, demux-aware traffic (paper §6)",
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
    fn all_nine_combinations_are_measured() {
        let pts = measure(&Sink::default());
        assert_eq!(pts.len(), 9);
        let zipf_fd = pts
            .iter()
            .find(|p| p.family == "zipf" && p.class.starts_with("fully"))
            .unwrap();
        assert!(
            zipf_fd.cells > 100_000,
            "load 0.85 over 20k slots x 16 inputs"
        );
    }

    #[test]
    fn centralized_class_beats_fully_distributed_in_the_mean() {
        // CPA tracks the shadow OQ's global FCFS order; its mean relative
        // delay under stochastic load must not exceed round robin's.
        let pts = measure(&Sink::default());
        for fam in ["zipf", "mmpp", "onoff"] {
            let fd = pts
                .iter()
                .find(|p| p.family == fam && p.class.starts_with("fully"))
                .unwrap();
            let cent = pts
                .iter()
                .find(|p| p.family == fam && p.class.starts_with("centralized"))
                .unwrap();
            assert!(
                cent.tails.mean <= fd.tails.mean + 0.5,
                "{fam}: centralized mean {} vs fully-distributed {}",
                cent.tails.mean,
                fd.tails.mean
            );
        }
    }
}
