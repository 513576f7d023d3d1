//! Quickstart: build a PPS (the paper's Figure 1 architecture), offer it
//! admissible traffic, and measure its relative queuing delay against the
//! optimal work-conserving shadow switch.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pps_analysis::{compare_bufferless_in, distribution};
use pps_core::prelude::*;
use pps_core::topology;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::gen::BernoulliGen;
use pps_traffic::min_burstiness;

fn main() {
    // An 8x8 PPS with 8 half-rate planes: speedup S = K/r' = 4.
    let cfg = PpsConfig::bufferless(8, 8, 2);
    println!("{}", topology::render(&cfg));

    // Admissible i.i.d. traffic at 85% load, uniform destinations.
    let trace = BernoulliGen::uniform(0.85, 7).trace(cfg.n, 5_000);
    let report = min_burstiness(&trace, cfg.n);
    println!(
        "offered {} cells over 5000 slots (minimal leaky-bucket burstiness B = {})\n",
        trace.len(),
        report.overall()
    );

    // Run the PPS (round-robin demultiplexing) and the shadow OQ switch on
    // the identical trace.
    let demux = RoundRobinDemux::new(cfg.n, cfg.k);
    let cmp = compare_bufferless_in(cfg, demux, &trace, &Sink::default()).expect("admissible run");

    let rd = cmp.relative_delay();
    println!(
        "PPS max queuing delay      : {:?} slots",
        cmp.pps.log.max_delay().unwrap()
    );
    println!(
        "shadow OQ max queuing delay: {:?} slots",
        cmp.oq.max_delay().unwrap()
    );
    println!(
        "relative queuing delay     : {} slots (max over cells)",
        rd.max
    );
    println!("relative delay (mean)      : {:.3} slots", rd.mean);
    println!(
        "relative delay jitter      : {} slots (max over flows)",
        cmp.relative_jitter()
    );
    println!(
        "plane concentration        : {} cells via one (plane, output) pair",
        cmp.max_concentration()
    );
    println!(
        "plane buffer high-water    : {} cells",
        cmp.pps_stats().max_plane_queue
    );
    let delays = distribution::relative_delays(&cmp.pps.log, &cmp.oq);
    if let Some(p) = distribution::Percentiles::from(&delays) {
        println!("\nper-cell relative delay distribution: {}", p.summary());
    }
    if let Some(h) = distribution::Histogram::build(&delays, 6) {
        println!("{}", h.render(30));
    }
    println!(
        "Typical loads are gentle; run the adversarial_concentration example \
         to see the paper's Omega((R/r - 1) * N) worst case."
    );
}
