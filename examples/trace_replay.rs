//! Reproducibility workflow: build an adversarial trace, archive it as
//! CSV, reload it, and verify the replayed run is bit-identical — the
//! property every golden number in this repository rests on.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use pps_analysis::compare_bufferless_in;
use pps_core::prelude::*;
use pps_core::trace_io;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack;
use pps_traffic::TraceStats;

fn main() {
    let (n, k, r_prime) = (16, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);

    // 1. Build the Corollary 7 attack and archive it.
    let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
    let dir = std::env::temp_dir().join("pps_trace_replay_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corollary7_attack.csv");
    trace_io::save(&atk.trace, &path).expect("archive trace");
    println!(
        "archived {} -> {}",
        TraceStats::of(&atk.trace, n).summary(),
        path.display()
    );

    // 2. Reload and verify the round trip is exact.
    let reloaded = trace_io::load(&path, n).expect("reload trace");
    assert_eq!(reloaded, atk.trace, "CSV round trip must be lossless");
    println!("round trip: lossless");

    // 3. Replay: two fresh runs over the reloaded trace must agree on
    //    every per-cell record.
    let run_a = compare_bufferless_in(cfg, RoundRobinDemux::new(n, k), &reloaded, &Sink::default())
        .expect("run A");
    let run_b = compare_bufferless_in(cfg, RoundRobinDemux::new(n, k), &reloaded, &Sink::default())
        .expect("run B");
    assert_eq!(
        run_a.pps.log.records(),
        run_b.pps.log.records(),
        "replay must be deterministic"
    );
    println!(
        "replay: deterministic ({} cells, relative delay {} slots = the Corollary 7 bound)",
        run_a.pps.log.len(),
        run_a.relative_delay().max
    );
    assert_eq!(run_a.relative_delay().max as u64, atk.model_exact_bound);

    let _ = std::fs::remove_file(&path);
    println!(
        "\nany trace in this workspace — adversarial or stochastic — can be shipped \
         as a three-column CSV and replayed anywhere to the same slot-exact numbers."
    );
}
