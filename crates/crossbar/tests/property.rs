//! Property tests for the crossbar substrates.

use pps_core::oracle::check_flow_order;
use pps_core::run::Sink;
use proptest::prelude::*;

use pps_crossbar::{
    run_cioq_in, run_crossbar_in, CioqPolicy, CrossbarScheduler, IslipArbiter, Occupancy,
};
use pps_reference::oq::run_oq_in;
use pps_traffic::gen::BernoulliGen;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn islip_matchings_are_conflict_free_and_maximal(
        n in 2usize..8,
        seed in 0u64..500,
        iterations in 1usize..4,
    ) {
        // Random occupancy pattern.
        let mut occ = vec![false; n * n];
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for cell in occ.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *cell = (x >> 62) & 1 == 1;
        }
        let lens: Vec<usize> = occ.iter().map(|&o| o as usize).collect();
        let index = Occupancy::from_lens(n, &lens);
        let mut m = vec![None; n];
        IslipArbiter::new(n, iterations).schedule(0, &index, &mut m);
        // Conflict-free in both directions.
        let mut outs = std::collections::BTreeSet::new();
        for (i, mj) in m.iter().enumerate() {
            if let Some(j) = mj {
                prop_assert!(occ[i * n + j], "matched an empty VOQ");
                prop_assert!(outs.insert(*j), "output matched twice");
            }
        }
        // With n iterations the matching is maximal: no (i, j) with both
        // endpoints unmatched and a cell between them.
        let mut m = vec![None; n];
        IslipArbiter::new(n, n).schedule(0, &index, &mut m);
        let matched_outs: std::collections::BTreeSet<usize> =
            m.iter().flatten().copied().collect();
        for i in 0..n {
            if m[i].is_some() {
                continue;
            }
            for j in 0..n {
                if occ[i * n + j] {
                    prop_assert!(
                        matched_outs.contains(&j),
                        "augmenting pair ({i}, {j}) left unmatched"
                    );
                }
            }
        }
    }

    #[test]
    fn crossbar_obligations(n in 2usize..8, seed in 0u64..200) {
        let trace = BernoulliGen::uniform(0.8, seed).trace(n, 60);
        let log = run_crossbar_in(&trace, IslipArbiter::new(n, 2), &Sink::default()).0;
        prop_assert_eq!(log.undelivered(), 0);
        prop_assert!(check_flow_order(&log).is_empty());
        // One departure per output per slot.
        let mut seen = std::collections::BTreeSet::new();
        for r in log.records() {
            if let Some(d) = r.departure() {
                prop_assert!(seen.insert((r.output, d)), "double departure");
                prop_assert!(d >= r.arrival);
            }
        }
    }

    #[test]
    fn cioq_obligations_and_monotone_speedup(n in 2usize..7, seed in 0u64..200) {
        let trace = BernoulliGen::uniform(0.9, seed).trace(n, 60);
        let oq = run_oq_in(&trace, n, &Sink::default());
        let mut prev_worst = i64::MAX;
        for s in [1usize, 2, 3] {
            let log = run_cioq_in(&trace, n, s, CioqPolicy::CriticalFirst, &Sink::default());
            prop_assert_eq!(log.undelivered(), 0, "speedup {}", s);
            prop_assert!(check_flow_order(&log).is_empty());
            let worst = log
                .records()
                .zip(oq.records())
                .map(|(a, b)| a.departure().unwrap() as i64 - b.departure().unwrap() as i64)
                .max()
                .unwrap_or(0);
            prop_assert!(worst <= prev_worst, "speedup {} worsened: {} > {}", s, worst, prev_worst);
            prev_worst = worst;
            // CIOQ can never beat the ideal reference switch per cell
            // minimum: its relative delay is >= 0 in the worst cell.
            prop_assert!(worst >= 0);
        }
    }
}
