//! E10 — the centralized upper bound the paper contrasts against (Iyer,
//! Awadallah & McKeown \[14\]): a bufferless PPS running CPA with speedup
//! `S ≥ 2` mimics a FCFS output-queued switch with **zero relative queuing
//! delay**.
//!
//! This is the other side of every lower bound: full immediate information
//! dissolves the Ω(N) delays entirely — which is exactly why the paper's
//! taxonomy (centralized / u-RT / fully-distributed) is the story.

use crate::attack::round_robin_attack;
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{metrics, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_reference::oq::run_oq_in;
use pps_switch::demux::CpaDemux;
use pps_switch::engine::BufferlessPps;
use pps_traffic::adversary::urt_burst_attack;
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
        ("rr-attack-trace", round_robin_attack(n, k, r_prime).trace),
        ("urt-attack-trace", urt_burst_attack(&cfg, 2).trace),
    ]
}

/// One CPA run of the bufferless `cfg` over `trace`, under global FCFS:
/// `(max relative delay, undelivered, deadline misses)`.
pub(crate) fn point(cfg: PpsConfig, trace: &Trace, sink: &Sink) -> (i64, usize, u64) {
    let PpsConfig { n, k, r_prime, .. } = cfg;
    let cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
    let mut pps = BufferlessPps::new_in(cfg, CpaDemux::new(n, k, r_prime), sink).expect("engine");
    // Run by hand to read the demux's statistic afterwards.
    let run = pps.run(trace).expect("model-legal run");
    let rd = metrics::relative_delay(&run.log, &run_oq_in(trace, n, sink));
    (rd.max, rd.pps_undelivered, pps.demux().deadline_misses())
}

/// Run the default battery.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
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
    let mut claims = Claims::default();
    let loads = workloads(n, k, r_prime);
    let plan = SweepPlan::new_in("e10", (0..loads.len()).collect(), sink);
    let results = plan.run(|pt| {
        point(
            PpsConfig::bufferless(n, k, r_prime),
            &loads[*pt.params].1,
            pt.sink,
        )
    });
    for (&w, (max_rd, undelivered, misses)) in plan.points().iter().zip(results) {
        claims.at(format!("workload = {}", loads[w].0));
        claims.check("max rel delay ≤ 0", max_rd, 0);
        claims.check("undelivered = 0", undelivered, 0);
        claims.check("deadline misses = 0", misses, 0);
        table.row_display(&[
            loads[w].0.to_string(),
            max_rd.to_string(),
            undelivered.to_string(),
            misses.to_string(),
        ]);
    }
    ExperimentOutput::new(
        "e10",
        "CPA (Iyer et al. [14]) — centralized, S >= 2: zero relative queuing delay",
        vec![table],
        &[
            "the attack traffics that force Omega(N) on distributed algorithms leave \
             CPA untouched: with immediate global knowledge no concentration can form",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_relative_delay_under_attack() {
        let cfg = PpsConfig::bufferless(8, 8, 4);
        let attack = round_robin_attack(8, 8, 4).trace;
        let (max_rd, undelivered, misses) = point(cfg, &attack, &Sink::default());
        assert_eq!(undelivered, 0);
        assert_eq!(misses, 0, "S = 2 must never miss a deadline");
        assert!(max_rd <= 0, "CPA must mimic the OQ switch: {max_rd}");
    }

    #[test]
    fn zero_relative_delay_under_saturation() {
        let t = BernoulliGen::uniform(1.0, 5).trace(8, 500);
        let (max_rd, undelivered, misses) =
            point(PpsConfig::bufferless(8, 8, 4), &t, &Sink::default());
        assert_eq!((undelivered, misses), (0, 0));
        assert!(max_rd <= 0, "{max_rd}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
