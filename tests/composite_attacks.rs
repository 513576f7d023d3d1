//! Composition of lower-bound attacks: the paper's bounds are per-output,
//! so the adversary can attack several outputs *simultaneously* from
//! disjoint input sets — the concentrations live in different
//! `(plane, output)` queues and do not interfere. These tests check the
//! superposition, and that the merged traffic is still burst-free.

use pps_analysis::{compare_bufferless_in, metrics};
use pps_core::prelude::*;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack_on;
use pps_traffic::min_burstiness;

#[test]
fn two_simultaneous_concentrations_both_meet_their_bounds() {
    let (n, k, r_prime) = (16, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);
    // Inputs 0..8 attack output 0; inputs 8..16 attack output 1.
    let half_a: Vec<u32> = (0..8).collect();
    let half_b: Vec<u32> = (8..16).collect();
    let atk_a = concentration_attack_on(&demux, &cfg, &half_a, 0, 4 * k);
    let atk_b = concentration_attack_on(&demux, &cfg, &half_b, 1, 4 * k);
    assert_eq!(atk_a.d, 8);
    assert_eq!(atk_b.d, 8);
    let merged = atk_a.trace.clone().merge(atk_b.trace.clone(), n).unwrap();
    // Disjoint inputs, distinct outputs: the merge stays burst-free.
    assert_eq!(min_burstiness(&merged, n), 0);

    let cmp = compare_bufferless_in(cfg, demux, &merged, &Sink::default()).unwrap();
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    // Per-output relative delay: reconstruct per output from the joined
    // logs and check each meets its own bound.
    for output in [0u32, 1] {
        let bound = (r_prime as i64 - 1) * (8 - 1);
        let worst = metrics::relative_delay_for_output(&cmp.pps.log, &cmp.oq, PortId(output)).max;
        assert!(
            worst >= bound,
            "output {output}: {worst} < per-output bound {bound}"
        );
    }
}

#[test]
fn concentrations_on_distinct_outputs_do_not_interfere() {
    // The delay of the output-0 attack alone equals its delay inside the
    // composite run: separate (plane, output) queues are independent.
    let (n, k, r_prime) = (16, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);
    let half_a: Vec<u32> = (0..8).collect();
    let half_b: Vec<u32> = (8..16).collect();
    let atk_a = concentration_attack_on(&demux, &cfg, &half_a, 0, 4 * k);
    let atk_b = concentration_attack_on(&demux, &cfg, &half_b, 1, 4 * k);

    let solo = compare_bufferless_in(cfg, demux.clone(), &atk_a.trace, &Sink::default()).unwrap();
    let solo_delay = solo.relative_delay().max;

    let merged = atk_a.trace.clone().merge(atk_b.trace, n).unwrap();
    let both = compare_bufferless_in(cfg, demux, &merged, &Sink::default()).unwrap();
    let merged_delay_out0 =
        metrics::relative_delay_for_output(&both.pps.log, &both.oq, PortId(0)).max;
    assert_eq!(
        solo_delay, merged_delay_out0,
        "the second attack must not perturb the first"
    );
}

#[test]
fn composite_jitter_matches_the_worse_output() {
    let (n, k, r_prime) = (12, 6, 3);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);
    let a: Vec<u32> = (0..6).collect();
    let b: Vec<u32> = (6..12).collect();
    let atk_a = concentration_attack_on(&demux, &cfg, &a, 2, 4 * k);
    let atk_b = concentration_attack_on(&demux, &cfg, &b, 5, 4 * k);
    let merged = atk_a.trace.clone().merge(atk_b.trace, n).unwrap();
    let cmp = compare_bufferless_in(cfg, demux, &merged, &Sink::default()).unwrap();
    let jit = metrics::relative_jitter(&cmp.pps.log, cmp.oq.departures());
    assert!(
        jit as u64 >= atk_a.model_exact_bound.max(atk_b.model_exact_bound),
        "jitter {jit} below the per-output bounds"
    );
}
