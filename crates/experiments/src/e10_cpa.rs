//! E10 — the centralized upper bound the paper contrasts against (Iyer,
//! Awadallah & McKeown \[14\]): a bufferless PPS running CPA with speedup
//! `S ≥ 2` mimics a FCFS output-queued switch with **zero relative queuing
//! delay**.
//!
//! This is the other side of every lower bound: full immediate information
//! dissolves the Ω(N) delays entirely — which is exactly why the paper's
//! taxonomy (centralized / u-RT / fully-distributed) is the story.

use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{CpaDemux, RoundRobinDemux};
use pps_traffic::adversary::{concentration_attack, urt_burst_attack};
use pps_traffic::gen::{BernoulliGen, OnOffGen, TrafficPattern};

fn workloads(n: usize, k: usize, r_prime: usize) -> Vec<(&'static str, Trace)> {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    vec![
        (
            "bernoulli-0.95",
            BernoulliGen::uniform(0.95, 21).trace(n, 3_000),
        ),
        (
            "onoff-bursty",
            OnOffGen::uniform(16.0, 0.8, 22).trace(n, 3_000),
        ),
        (
            "hotspot-0.6",
            BernoulliGen {
                load: 0.5,
                pattern: TrafficPattern::Hotspot {
                    target: 3,
                    hot: 0.6,
                },
                seed: 23,
            }
            .trace(n, 2_000),
        ),
        (
            "rr-attack-trace",
            concentration_attack(
                &RoundRobinDemux::new(n, k),
                &cfg,
                &(0..n as u32).collect::<Vec<_>>(),
                4 * k,
            )
            .trace,
        ),
        ("urt-attack-trace", urt_burst_attack(&cfg, 2).trace),
    ]
}

/// One workload: `(max relative delay, undelivered, deadline misses)`.
fn point(n: usize, k: usize, r_prime: usize, trace: &Trace) -> (i64, usize, u64) {
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    cfg.validate().expect("valid point");
    let pps =
        pps_switch::engine::BufferlessPps::new(cfg, CpaDemux::new(n, k, r_prime)).expect("engine");
    // Run manually to read the demux statistic afterwards.
    let mut pps = pps;
    let run = pps.run(trace).expect("model-legal run");
    let misses = pps.demux().deadline_misses();
    let oq = pps_reference::oq::run_oq(trace, n);
    let cmp = pps_analysis::lockstep::Comparison { pps: run, oq, n };
    let rd = cmp.relative_delay();
    (rd.max, rd.pps_undelivered, misses)
}

/// Run the default battery.
pub(crate) fn run() -> ExperimentOutput {
    let (n, k, r_prime) = (16, 8, 4); // S = 2
    let mut table = Table::new(
        format!("CPA at N={n}, K={k}, r'={r_prime}, S=2 (claim: zero relative delay)"),
        &[
            "workload",
            "max rel delay",
            "undelivered",
            "deadline misses",
        ],
    );
    let mut pass = true;
    let loads = workloads(n, k, r_prime);
    let plan = SweepPlan::new("e10", (0..loads.len()).collect());
    let results = plan.run(|pt| point(n, k, r_prime, &loads[*pt.params].1));
    for (&w, (max_rd, undelivered, misses)) in plan.points().iter().zip(results) {
        pass &= max_rd <= 0 && undelivered == 0 && misses == 0;
        table.row_display(&[
            loads[w].0.to_string(),
            max_rd.to_string(),
            undelivered.to_string(),
            misses.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e10",
        title: "CPA (Iyer et al. [14]) — centralized, S >= 2: zero relative queuing delay".into(),
        tables: vec![table],
        notes: vec![
            "the attack traffics that force Omega(N) on distributed algorithms leave \
             CPA untouched: with immediate global knowledge no concentration can form"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_relative_delay_under_attack() {
        let cfg = PpsConfig::bufferless(8, 8, 4);
        let attack = concentration_attack(
            &RoundRobinDemux::new(8, 8),
            &cfg,
            &(0..8).collect::<Vec<_>>(),
            32,
        )
        .trace;
        let (max_rd, undelivered, misses) = point(8, 8, 4, &attack);
        assert_eq!(undelivered, 0);
        assert_eq!(misses, 0, "S = 2 must never miss a deadline");
        assert!(max_rd <= 0, "CPA must mimic the OQ switch: {max_rd}");
    }

    #[test]
    fn zero_relative_delay_under_saturation() {
        let t = BernoulliGen::uniform(1.0, 5).trace(8, 500);
        let (max_rd, undelivered, misses) = point(8, 8, 4, &t);
        assert_eq!((undelivered, misses), (0, 0));
        assert!(max_rd <= 0, "{max_rd}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
