//! E6 — Theorem 12: an input-buffered PPS with buffers of size `u` and
//! speedup `S ≥ 2` supports a `u`-RT demultiplexing algorithm (delayed
//! CPA) whose relative queuing delay is at most `u` — the constructive
//! counterpart showing the `Ω(N/S)` lower bounds evaporate once buffers
//! reach the information delay.
//!
//! Victim-turned-hero: [`DelayedCpaDemux`] under a battery of workloads,
//! including the very attack traffics that defeat the distributed
//! algorithms. Sweep: `u` (buffer = `u`).

use crate::ExperimentOutput;
use pps_analysis::{compare_buffered_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{DelayedCpaDemux, RoundRobinDemux};
use pps_traffic::adversary::concentration_attack;
use pps_traffic::gen::{BernoulliGen, OnOffGen, TrafficPattern};

fn workloads(n: usize, k: usize, r_prime: usize) -> Vec<(&'static str, Trace)> {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let attack = concentration_attack(
        &RoundRobinDemux::new(n, k),
        &cfg,
        &(0..n as u32).collect::<Vec<_>>(),
        4 * k,
    )
    .trace;
    vec![
        (
            "bernoulli-0.85",
            BernoulliGen::uniform(0.85, 42).trace(n, 2_000),
        ),
        (
            "onoff-bursty",
            OnOffGen::uniform(12.0, 0.7, 43).trace(n, 2_000),
        ),
        (
            "hotspot-0.5",
            BernoulliGen {
                load: 0.6,
                pattern: TrafficPattern::Hotspot {
                    target: 0,
                    hot: 0.5,
                },
                seed: 44,
            }
            .trace(n, 1_500),
        ),
        ("rr-attack-trace", attack),
    ]
}

/// One sweep point: max relative delay of delayed CPA at information delay
/// `u` over the given trace.
fn point(
    n: usize,
    k: usize,
    r_prime: usize,
    u: Slot,
    trace: &Trace,
    sink: &Sink,
) -> (i64, usize, u64) {
    let cfg = PpsConfig::buffered(n, k, r_prime, u as usize)
        .with_discipline(OutputDiscipline::GlobalFcfs);
    cfg.validate().expect("valid sweep point");
    let demux = DelayedCpaDemux::new(n, k, r_prime, u);
    let cmp = compare_buffered_in(cfg, demux, trace, sink).expect("run");
    let rd = cmp.relative_delay();
    (rd.max, rd.pps_undelivered, cmp.pps_stats().dropped)
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (16, 8, 4); // S = 2, the theorem's premise
    let mut table = Table::new(
        format!("Theorem 12 sweep: N={n}, K={k}, r'={r_prime}, S=2, buffer=u (claim: delay <= u)"),
        &["u", "workload", "measured max rel delay", "claim"],
    );
    let mut pass = true;
    let loads = workloads(n, k, r_prime);
    let plan = SweepPlan::new_in(
        "e6",
        [1u64, 2, 4, 8]
            .into_iter()
            .flat_map(|u| (0..loads.len()).map(move |w| (u, w)))
            .collect(),
        sink,
    );
    let results = plan.run(|pt| {
        let (u, w) = *pt.params;
        point(n, k, r_prime, u, &loads[w].1, pt.sink)
    });
    for (&(u, w), (max_rd, undelivered, dropped)) in plan.points().iter().zip(results) {
        let ok = max_rd <= u as i64 && undelivered == 0 && dropped == 0;
        pass &= ok;
        table.row_display(&[
            u.to_string(),
            loads[w].0.to_string(),
            max_rd.to_string(),
            format!("<= {u}: {}", if ok { "holds" } else { "VIOLATED" }),
        ]);
    }
    ExperimentOutput {
        id: "e6",
        title: "Theorem 12 — buffered u-RT upper bound: relative delay <= u at S >= 2".into(),
        tables: vec![table],
        notes: vec![
            "delayed CPA holds each cell exactly u slots, by which time the global \
             information a u-RT algorithm may use covers the cell's arrival; it then \
             emulates CPA with deadlines shifted by u (paper's reduction)"
                .into(),
            "the Omega(N/S) bufferless bounds do not apply: buffers >= u break them".into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_bounded_by_u_under_attack_traffic() {
        let (n, k, r) = (8, 8, 4);
        let cfg = PpsConfig::bufferless(n, k, r);
        let attack = concentration_attack(
            &RoundRobinDemux::new(n, k),
            &cfg,
            &(0..n as u32).collect::<Vec<_>>(),
            32,
        )
        .trace;
        for u in [1u64, 3] {
            let (max_rd, undelivered, _) = point(n, k, r, u, &attack, &Sink::default());
            assert_eq!(undelivered, 0);
            assert!(max_rd <= u as i64, "u={u}: {max_rd}");
        }
    }

    #[test]
    fn delay_bounded_under_stochastic_load() {
        let t = BernoulliGen::uniform(0.9, 7).trace(8, 800);
        let (max_rd, undelivered, _) = point(8, 8, 4, 2, &t, &Sink::default());
        assert_eq!(undelivered, 0);
        assert!(max_rd <= 2, "{max_rd}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
