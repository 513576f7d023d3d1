//! Architecture shootout: the PPS against the designs it competes with —
//! the ideal output-queued switch and the single-fabric input-queued
//! crossbar (VOQ + iSLIP) — under escalating load, plus the hotspot
//! stress where the differences between them open up.
//!
//! ```text
//! cargo run --release --example architecture_shootout
//! ```

use pps_analysis::Table;
use pps_core::prelude::*;
use pps_crossbar::{run_crossbar_in, IslipArbiter};
use pps_reference::oq::run_oq_in;
use pps_switch::demux::{CpaDemux, RoundRobinDemux};
use pps_switch::BufferlessPps;
use pps_traffic::gen::{BernoulliGen, TrafficPattern};

fn row(trace: &Trace, n: usize, k: usize, r_prime: usize) -> [String; 4] {
    let fmt = |log: &RunLog| {
        format!(
            "{:.2}/{}",
            log.mean_delay().unwrap_or(0.0),
            log.max_delay().unwrap_or(0)
        )
    };
    let oq = run_oq_in(trace, n, &Sink::default());
    let xb = run_crossbar_in(trace, IslipArbiter::new(n, 2), &Sink::default()).0;
    let cpa = BufferlessPps::new(
        PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs),
        CpaDemux::new(n, k, r_prime),
    )
    .and_then(|mut pps| pps.run(trace))
    .expect("run")
    .log;
    let rr = BufferlessPps::new(
        PpsConfig::bufferless(n, k, r_prime),
        RoundRobinDemux::new(n, k),
    )
    .and_then(|mut pps| pps.run(trace))
    .expect("run")
    .log;
    [fmt(&oq), fmt(&xb), fmt(&cpa), fmt(&rr)]
}

fn main() {
    let (n, k, r_prime) = (16, 8, 4); // PPS at S = 2
    let mut table = Table::new(
        format!("mean/max queuing delay, N={n} (PPS: K={k}, r'={r_prime}, S=2)"),
        &[
            "workload",
            "ideal OQ",
            "iSLIP crossbar",
            "PPS + CPA",
            "PPS + RR",
        ],
    );
    for load in [0.5f64, 0.8, 0.95] {
        let t = BernoulliGen::uniform(load, 7).trace(n, 4_000);
        let [oq, xb, cpa, rr] = row(&t, n, k, r_prime);
        table.row_display(&[format!("uniform {load}"), oq, xb, cpa, rr]);
    }
    for hot in [0.3f64, 0.6] {
        let t = BernoulliGen {
            load: 0.6,
            pattern: TrafficPattern::Hotspot { target: 0, hot },
            seed: 9,
        }
        .trace(n, 4_000);
        let [oq, xb, cpa, rr] = row(&t, n, k, r_prime);
        table.row_display(&[format!("hotspot {hot}"), oq, xb, cpa, rr]);
    }
    println!("{}", table.render());
    println!(
        "PPS+CPA tracks the ideal OQ exactly (it mimics it) while running its \
         internals at r = R/{r_prime}; the crossbar needs its whole fabric at rate R — \
         the engineering trade the paper's bounds price out: without central \
         coordination (PPS+RR) the worst case costs Theta(N), see the \
         adversarial_concentration example."
    );
}
