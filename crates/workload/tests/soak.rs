//! 10⁸-slot stochastic soak — the acceptance check that the workload
//! engine plus skip-ahead stepping make horizon effectively free.
//!
//! A sparse on-off stream (mean silence 40 000 slots per input) is
//! materialized over a hundred million slots — O(cells), not O(horizon) —
//! and run through the full bufferless-PPS-vs-shadow-OQ lockstep with
//! skip-ahead stepping. Dense, the same run would execute 10⁸ slot loops
//! per engine; event-driven, it finishes in seconds. The relative-delay
//! envelope is checked at the end, so this is a real experiment at a
//! horizon no dense walk could reach, not just a throughput stunt.

use pps_analysis::{compare_bufferless_in, relative_delays, TailQuantiles};
use pps_core::prelude::*;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::min_burstiness;
use pps_workload::{materialize, OnOffBurstGen};

#[test]
fn hundred_million_slot_soak_stays_inside_the_envelope() {
    const N: usize = 4;
    const K: usize = 8;
    const R_PRIME: usize = 2;
    const HORIZON: Slot = 100_000_000;

    let start = std::time::Instant::now();
    let mut gen = OnOffBurstGen::new(20_240_607, N, 2.5e-5, 0.2);
    let trace = materialize(&mut gen, HORIZON);
    assert!(
        trace.len() > 10_000,
        "soak trace too thin to mean anything: {} cells",
        trace.len()
    );
    assert!(
        trace.horizon() > HORIZON / 2,
        "arrivals never reached the far half of the horizon"
    );

    let cfg = PpsConfig::bufferless(N, K, R_PRIME);
    let cmp = compare_bufferless_in(cfg, RoundRobinDemux::new(N, K), &trace, &Sink::default())
        .expect("soak run failed");
    let rel = cmp.relative_delay();
    assert_eq!(rel.pps_undelivered, 0, "cells lost in a fault-free run");

    let b = min_burstiness(&trace, N).overall();
    let envelope = ((R_PRIME as u64) * (N as u64 + K as u64 + b) + 64) as i64;
    let tails = TailQuantiles::from(&relative_delays(&cmp.pps.log, &cmp.oq)).unwrap();
    assert!(
        tails.max <= envelope,
        "relative delay {} above the envelope {envelope}",
        tails.max
    );

    // The elapsed budget is deliberately loose (dense would need hours):
    // the assertion documents the complexity class, not a benchmark.
    let secs = start.elapsed().as_secs();
    assert!(secs < 120, "soak took {secs}s — skip-ahead regressed?");
}
