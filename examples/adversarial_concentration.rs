//! The Corollary 7 lower bound, step by step: the adversary probes the
//! round-robin demultiplexor's state machines, aligns them, lets the
//! switch drain, and fires N back-to-back cells at one output — all of
//! which land on the same plane (Figure 2 of the paper).
//!
//! ```text
//! cargo run --release --example adversarial_concentration
//! ```

use pps_analysis::compare_bufferless_in;
use pps_core::prelude::*;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack;
use pps_traffic::min_burstiness;

fn main() {
    let (n, k, r_prime) = (32, 8, 4); // S = 2
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);

    // The adversary works on a clone of the real automaton.
    let inputs: Vec<u32> = (0..n as u32).collect();
    let atk = concentration_attack(&demux, &cfg, &inputs, 4 * k);

    println!("-- the Figure 2 storyboard --");
    for line in &atk.phase_log {
        println!("  {line}");
    }
    let b = min_burstiness(&atk.trace, n);
    println!(
        "\ntraffic: {} cells, minimal burstiness B = {} (Theorem 6 premise: burst-free)",
        atk.trace.len(),
        b.overall()
    );
    println!(
        "paper bound (R/r - 1)*N   = {} slots; model-exact (R/r - 1)*(N - 1) = {}",
        atk.predicted_bound, atk.model_exact_bound
    );

    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, &Sink::default()).expect("run");
    let rd = cmp.relative_delay();
    println!("\n-- measured --");
    println!(
        "concentration            : {} cells on plane {}",
        cmp.max_concentration(),
        atk.plan.plane
    );
    println!("relative queuing delay   : {} slots", rd.max);
    println!("relative delay jitter    : {} slots", cmp.relative_jitter());
    assert!(rd.max as u64 >= atk.model_exact_bound);
    println!(
        "\nthe same switch under the same *rate* of benign traffic shows near-zero \
         relative delay — worst case and typical case differ by Theta(N)."
    );
}
