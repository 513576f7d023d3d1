//! Integration tests: one assertion per paper result, at configurations
//! independent from the experiment suite's defaults (different N, K, r'),
//! so the bounds are checked at more than one point in parameter space.
//! The experiment modules themselves carry their own `full_run_passes`
//! tests at the default scales.

use pps_analysis::{compare_buffered_in, compare_bufferless_in};
use pps_core::prelude::*;
use pps_switch::demux::{
    ArbitratedCrossbarDemux, BufferedRoundRobinDemux, BufferedStaleDemux, CpaDemux,
    DelayedCpaDemux, PerFlowRoundRobinDemux, RandomDemux, RoundRobinDemux, StaleLeastLoadedDemux,
    StaticPartitionDemux,
};
use pps_traffic::adversary::{concentration_attack, urt_burst_attack};
use pps_traffic::gen::BernoulliGen;
use pps_traffic::min_burstiness;

// --------------------------------------------------------------------
// Theorem 6 family (concentration) at off-default geometry
// --------------------------------------------------------------------

#[test]
fn theorem6_bound_at_r_prime_8() {
    let (n, k, r_prime, d) = (24, 16, 8, 12);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    // Two groups of 12 sharing 8 planes each.
    let partition: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let g = (i / d) as u32;
            (g * 8..(g + 1) * 8).collect()
        })
        .collect();
    let demux = StaticPartitionDemux::new(partition);
    let atk = concentration_attack(&demux, &cfg, &(0..d as u32).collect::<Vec<_>>(), 4 * k);
    assert_eq!(atk.d, d);
    assert!(min_burstiness(&atk.trace, n).burst_free());
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, &Sink::default()).unwrap();
    let exact = (r_prime as u64 - 1) * (d as u64 - 1);
    assert!(cmp.relative_delay().max as u64 >= exact);
    assert!(cmp.relative_jitter() as u64 >= exact);
}

#[test]
fn corollary7_holds_for_every_unpartitioned_algorithm_we_ship() {
    let (n, k, r_prime) = (12, 6, 3);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let inputs: Vec<u32> = (0..n as u32).collect();
    // Round robin and per-flow round robin align fully; the randomized one
    // aligns a large subset within the probe budget.
    let rr_atk = concentration_attack(&RoundRobinDemux::new(n, k), &cfg, &inputs, 8 * k);
    assert_eq!(rr_atk.d, n);
    let cmp = compare_bufferless_in(
        cfg,
        RoundRobinDemux::new(n, k),
        &rr_atk.trace,
        &Sink::default(),
    )
    .unwrap();
    assert!(cmp.relative_delay().max as u64 >= rr_atk.model_exact_bound);

    let pf_atk = concentration_attack(&PerFlowRoundRobinDemux::new(n, k), &cfg, &inputs, 8 * k);
    assert_eq!(pf_atk.d, n);
    let cmp = compare_bufferless_in(
        cfg,
        PerFlowRoundRobinDemux::new(n, k),
        &pf_atk.trace,
        &Sink::default(),
    )
    .unwrap();
    assert!(cmp.relative_delay().max as u64 >= pf_atk.model_exact_bound);
}

#[test]
fn randomized_demux_still_concentrates_in_expectation() {
    // Section 6: the worst-case traffics also stress randomized
    // algorithms. The adversary aligns the seeded RNG automaton exactly
    // (it is deterministic given the seed), so concentration is full.
    let (n, k, r_prime) = (12, 6, 3);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RandomDemux::new(n, 1234);
    let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 16 * k);
    assert!(
        atk.d >= n - 1,
        "alignment search should steer the seeded RNG: {}",
        atk.d
    );
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, &Sink::default()).unwrap();
    assert!(cmp.relative_delay().max as u64 >= atk.model_exact_bound);
}

// --------------------------------------------------------------------
// Theorem 10 / Corollary 11 at off-default geometry
// --------------------------------------------------------------------

#[test]
fn theorem10_bound_at_minimal_plane_count() {
    // K = r' = 4 (S = 1, the fewest planes a bufferless PPS can have);
    // u = 3 caps at u' = r'/2 = 2; m = 2*16/4 = 8.
    let (n, k, r_prime, u) = (16, 4, 4, 3);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let atk = urt_burst_attack(&cfg, u);
    assert_eq!(atk.u_eff, 2);
    assert_eq!(atk.m, 8);
    let cmp = compare_bufferless_in(
        cfg,
        StaleLeastLoadedDemux::new(n, k, u),
        &atk.trace,
        &Sink::default(),
    )
    .unwrap();
    assert!(cmp.relative_delay().max as u64 >= atk.model_exact_bound);
    assert!(cmp.relative_jitter() as u64 >= atk.model_exact_bound);
    assert!(min_burstiness(&atk.trace, n).overall() <= atk.predicted_burstiness);
}

// --------------------------------------------------------------------
// Theorem 12 / buffered upper bounds
// --------------------------------------------------------------------

#[test]
fn theorem12_upper_bound_with_odd_u() {
    let (n, k, r_prime, u) = (12, 8, 4, 5u64);
    let cfg = PpsConfig::buffered(n, k, r_prime, u as usize)
        .with_discipline(OutputDiscipline::GlobalFcfs);
    let trace = BernoulliGen::uniform(0.9, 17).trace(n, 1_200);
    let cmp = compare_buffered_in(
        cfg,
        DelayedCpaDemux::new(n, k, r_prime, u),
        &trace,
        &Sink::default(),
    )
    .unwrap();
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    assert!(rd.max <= u as i64, "relative delay {} > u = {u}", rd.max);
}

#[test]
fn theorem12_is_an_identity_delayed_cpa_is_cpa_shifted_by_u() {
    // Fault-free, S >= 2, global FCFS: holding every cell u slots and then
    // running CPA on what is by then legal information reproduces the CPA
    // run cell for cell — same plane, departure exactly u slots later.
    let (n, k, r_prime) = (8, 8, 4);
    let fcfs = |cfg: PpsConfig| cfg.with_discipline(OutputDiscipline::GlobalFcfs);
    for seed in [3, 17, 41] {
        let trace = BernoulliGen::uniform(0.9, seed).trace(n, 400);
        let cpa = compare_bufferless_in(
            fcfs(PpsConfig::bufferless(n, k, r_prime)),
            CpaDemux::new(n, k, r_prime),
            &trace,
            &Sink::default(),
        )
        .unwrap();
        for u in [1u64, 3, 8] {
            let held = compare_buffered_in(
                fcfs(PpsConfig::buffered(n, k, r_prime, u as usize)),
                DelayedCpaDemux::new(n, k, r_prime, u),
                &trace,
                &Sink::default(),
            )
            .unwrap();
            for ((id, c), h) in cpa.pps.log.iter().zip(held.pps.log.records()) {
                let at = (h.plane(), h.departure());
                let want = (c.plane(), c.departure().map(|d| d + u));
                assert_eq!(at, want, "seed {seed} u {u} {id:?}");
            }
        }
    }
}

#[test]
fn zero_hold_buffered_stale_is_bufferless_stale_least_loaded() {
    // The hold rule at hold = 0 dispatches every arrival directly: the
    // buffered engine then runs the bufferless u-RT policy log for log.
    let (n, k, r_prime) = (8, 8, 4);
    for seed in [3, 17, 41] {
        let trace = BernoulliGen::uniform(0.9, seed).trace(n, 400);
        for u in [1u64, 3, 8] {
            let bufferless = compare_bufferless_in(
                PpsConfig::bufferless(n, k, r_prime),
                StaleLeastLoadedDemux::new(n, k, u),
                &trace,
                &Sink::default(),
            )
            .unwrap();
            let buffered = compare_buffered_in(
                PpsConfig::buffered(n, k, r_prime, 1),
                BufferedStaleDemux::new(n, k, u, 0),
                &trace,
                &Sink::default(),
            )
            .unwrap();
            assert_eq!(
                buffered.pps.log.records(),
                bufferless.pps.log.records(),
                "seed {seed} u {u}"
            );
        }
    }
}

#[test]
fn arbitrated_crossbar_is_a_working_u_rt_switch() {
    let (n, k, r_prime, u) = (8, 8, 2, 3u64);
    let cfg = PpsConfig::buffered(n, k, r_prime, 8);
    let trace = BernoulliGen::uniform(0.8, 23).trace(n, 600);
    let cmp = compare_buffered_in(
        cfg,
        ArbitratedCrossbarDemux::new(k, u),
        &trace,
        &Sink::default(),
    )
    .unwrap();
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    // No exact bound claimed for the arbiter, but the grant latency shows
    // up: every cell waits at least... nothing guaranteed below u, yet the
    // switch must stay functional and within a loose envelope.
    assert!(
        rd.max >= u as i64 - (r_prime as i64),
        "grant latency vanished? {}",
        rd.max
    );
    assert!(rd.max <= (u + (n * r_prime) as u64) as i64);
}

// --------------------------------------------------------------------
// Theorem 13: buffers do not help distributed algorithms
// --------------------------------------------------------------------

#[test]
fn theorem13_bound_with_huge_buffers() {
    let (n, k, r_prime) = (16, 4, 2); // S = 2
    let atk = concentration_attack(
        &RoundRobinDemux::new(n, k),
        &PpsConfig::bufferless(n, k, r_prime),
        &(0..n as u32).collect::<Vec<_>>(),
        8 * k,
    );
    let cfg = PpsConfig::buffered(n, k, r_prime, 4096);
    let cmp = compare_buffered_in(
        cfg,
        BufferedRoundRobinDemux::new(n, k),
        &atk.trace,
        &Sink::default(),
    )
    .unwrap();
    let paper = (r_prime as u64 - 1) * cfg.n_over_s() / r_prime as u64; // (1 - r/R) N/S
    assert!(cmp.relative_delay().max as u64 >= paper);
}

// --------------------------------------------------------------------
// CPA mimicking at off-default geometry, including S > 2
// --------------------------------------------------------------------

#[test]
fn cpa_zero_relative_delay_at_higher_speedups() {
    for (n, k, r_prime) in [(10, 6, 3), (10, 12, 3), (6, 16, 2)] {
        let cfg =
            PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
        let trace = BernoulliGen::uniform(1.0, 29).trace(n, 800);
        let cmp =
            compare_bufferless_in(cfg, CpaDemux::new(n, k, r_prime), &trace, &Sink::default())
                .unwrap();
        let rd = cmp.relative_delay();
        assert_eq!(rd.pps_undelivered, 0, "K={k}");
        assert!(rd.max <= 0, "K={k}: relative delay {}", rd.max);
        assert!(cmp.relative_jitter() <= 0, "K={k}");
    }
}

#[test]
fn cpa_mimics_under_its_victims_attack_traffic() {
    let (n, k, r_prime) = (20, 10, 5);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let atk = concentration_attack(
        &RoundRobinDemux::new(n, k),
        &cfg,
        &(0..n as u32).collect::<Vec<_>>(),
        8 * k,
    );
    let cpa_cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
    let cmp = compare_bufferless_in(
        cpa_cfg,
        CpaDemux::new(n, k, r_prime),
        &atk.trace,
        &Sink::default(),
    )
    .unwrap();
    assert!(cmp.relative_delay().max <= 0);
}
