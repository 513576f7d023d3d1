//! Relative delay jitter across algorithms and loads.
//!
//! QoS traffic (voice, video) cares about *cell delay variation* at least
//! as much as delay; every lower bound in the paper binds the jitter too.
//! This example measures per-flow jitter distributions for three
//! demultiplexing algorithms under bursty admissible traffic and under
//! the adversarial concentration traffic.
//!
//! ```text
//! cargo run --release --example jitter_analysis
//! ```

use pps_analysis::{compare_bufferless_in, metrics::flow_jitters, Table};
use pps_core::prelude::*;
use pps_switch::demux::{CpaDemux, PerFlowRoundRobinDemux, RoundRobinDemux};
use pps_traffic::adversary::concentration_attack;
use pps_traffic::gen::OnOffGen;

fn jitter_stats(cmp: &pps_analysis::lockstep::Comparison) -> (u64, f64, i64) {
    let j = flow_jitters(&cmp.pps.log);
    let max = j.values().copied().max().unwrap_or(0);
    let mean = if j.is_empty() {
        0.0
    } else {
        j.values().sum::<u64>() as f64 / j.len() as f64
    };
    (max, mean, cmp.relative_jitter())
}

fn main() {
    let (n, k, r_prime) = (16, 8, 4); // S = 2
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let bursty = OnOffGen::uniform(12.0, 0.8, 99).trace(n, 5_000);
    let attack = concentration_attack(
        &RoundRobinDemux::new(n, k),
        &cfg,
        &(0..n as u32).collect::<Vec<_>>(),
        4 * k,
    )
    .trace;

    let mut table = Table::new(
        format!("per-flow jitter at N={n}, K={k}, r'={r_prime}, S=2"),
        &[
            "algorithm",
            "workload",
            "max flow jitter",
            "mean flow jitter",
            "relative jitter",
        ],
    );
    for (wname, trace) in [("onoff-0.8", &bursty), ("rr-attack", &attack)] {
        let rr = compare_bufferless_in(cfg, RoundRobinDemux::new(n, k), trace, &Sink::default())
            .expect("run");
        let (mx, mn, rel) = jitter_stats(&rr);
        table.row_display(&[
            "round-robin".into(),
            wname.to_string(),
            mx.to_string(),
            format!("{mn:.2}"),
            rel.to_string(),
        ]);
        let pf = compare_bufferless_in(
            cfg,
            PerFlowRoundRobinDemux::new(n, k),
            trace,
            &Sink::default(),
        )
        .expect("run");
        let (mx, mn, rel) = jitter_stats(&pf);
        table.row_display(&[
            "per-flow-rr".into(),
            wname.to_string(),
            mx.to_string(),
            format!("{mn:.2}"),
            rel.to_string(),
        ]);
        let cpa = compare_bufferless_in(
            cfg.with_discipline(OutputDiscipline::GlobalFcfs),
            CpaDemux::new(n, k, r_prime),
            trace,
            &Sink::default(),
        )
        .expect("run");
        let (mx, mn, rel) = jitter_stats(&cpa);
        table.row_display(&[
            "cpa".into(),
            wname.to_string(),
            mx.to_string(),
            format!("{mn:.2}"),
            rel.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "distributed algorithms pay Theta(N) jitter in the worst case; CPA's jitter \
         never exceeds the reference switch's (relative jitter <= 0)."
    );
}
