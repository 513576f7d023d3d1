//! The paper's scaling message: relative queuing delay of a bufferless
//! fully-distributed PPS grows linearly in the port count, measured up to
//! the N = 512 / N = 1024 sizes the paper's introduction calls out.
//!
//! Also contrasts the three information classes at each size: the
//! fully-distributed round robin (Theta(N) delay), the 1-RT stale
//! least-loaded algorithm (Theta(N/S)), and centralized CPA (zero).
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use pps_analysis::{compare_bufferless_in, AsciiChart, Table};
use pps_core::prelude::*;
use pps_switch::demux::StaleLeastLoadedDemux;
use pps_switch::demux::{CpaDemux, RoundRobinDemux};
use pps_traffic::adversary::{concentration_attack, urt_burst_attack};

fn main() {
    let (k, r_prime) = (8, 4); // S = 2
    let mut chart = AsciiChart::new(
        "relative delay vs N (fully distributed, worst case)",
        56,
        12,
    );
    let mut table = Table::new(
        "worst-case relative queuing delay by information class (K=8, r'=4, S=2)",
        &[
            "N",
            "fully-distributed (RR)",
            "1-RT (stale least-loaded)",
            "centralized (CPA)",
        ],
    );
    for n in [64usize, 128, 256, 512, 1024] {
        let cfg = PpsConfig::bufferless(n, k, r_prime);

        // Fully distributed under its concentration attack.
        let rr = RoundRobinDemux::new(n, k);
        let atk = concentration_attack(&rr, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
        let fd = compare_bufferless_in(cfg, rr, &atk.trace, &Sink::default())
            .expect("run")
            .relative_delay()
            .max;

        // 1-RT under its hidden-window burst.
        let urt_atk = urt_burst_attack(&cfg, 1);
        let urt = compare_bufferless_in(
            cfg,
            StaleLeastLoadedDemux::new(n, k, 1),
            &urt_atk.trace,
            &Sink::default(),
        )
        .expect("run")
        .relative_delay()
        .max;

        // Centralized CPA under the *fully-distributed* attack traffic
        // (the worst we have): zero.
        let cpa_cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
        let cpa = compare_bufferless_in(
            cpa_cfg,
            CpaDemux::new(n, k, r_prime),
            &atk.trace,
            &Sink::default(),
        )
        .expect("run")
        .relative_delay()
        .max;

        chart.point(n as f64, fd as f64);
        table.row_display(&[
            n.to_string(),
            fd.to_string(),
            urt.to_string(),
            cpa.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("{}", chart.render());
    println!(
        "fully-distributed grows with slope R/r - 1 = {}; 1-RT with ~(1 - r/R)/K per \
         port; centralized stays flat at zero — the paper's information hierarchy, measured.",
        r_prime - 1
    );
}
