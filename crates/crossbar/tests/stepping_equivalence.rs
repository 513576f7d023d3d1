//! Dense vs skip-ahead byte-identity for every crossbar scheduler.
//!
//! Skip-ahead stepping elides slots with no arrivals and zero backlog. For
//! that to be sound the elided slots must be *pure no-ops* for the
//! scheduler: iSLIP pointers must not move (a grant requires an occupied
//! VOQ), and the sampling schedulers must not consume RNG draws (draws
//! happen only for backlogged inputs). These properties are easy to break
//! silently — a "fairness" tweak that rotates a pointer every slot, or a
//! sampler that draws before checking occupancy, produces identical logs
//! on gap-free traces and diverges only once a gap is skipped. So the
//! property here pins, on gap-heavy traces, both the **visible log** and
//! the **hidden scheduler state** ([`CrossbarScheduler::state_digest`],
//! plus the raw iSLIP pointers) across the two stepping modes, and the
//! CIOQ switch under both matching policies for good measure.

use pps_core::rng::SplitMix64;
use pps_core::stepping::drive;
use pps_core::trace::{Arrival, Trace};
use pps_core::{Slot, Stepping};
use pps_crossbar::{
    run_cioq_policy, run_crossbar_with, CioqPolicy, CioqSwitch, CrossbarScheduler, CrossbarSwitch,
    IslipArbiter, QpsRScheduler, SwQpsScheduler,
};
use proptest::prelude::*;

/// A bursty trace with long idle gaps — the shape that exercises the
/// skip-ahead path (backlog drains, then nothing arrives for a while).
fn gappy_trace(n: usize, seed: u64, bursts: usize) -> Trace {
    let mut rng = SplitMix64::new(seed).derive(0xB0);
    let mut v: Vec<Arrival> = Vec::new();
    let mut slot: Slot = 0;
    for _ in 0..bursts {
        let burst_len = 1 + rng.below(4);
        for _ in 0..burst_len {
            for i in 0..n as u32 {
                // Dense-ish bursts so VOQs contend and schedulers mutate.
                if rng.chance(0.8) {
                    v.push(Arrival::new(slot, i, rng.below(n as u64) as u32));
                }
            }
            slot += 1;
        }
        // An idle gap long enough that dense stepping walks many empty
        // slots while skip-ahead jumps them in one hop.
        slot += 3 + rng.below(197);
    }
    // Ensure at least one cell so the run is non-trivial.
    if v.is_empty() {
        v.push(Arrival::new(0, 0, 0));
    }
    Trace::build(v, n).unwrap()
}

/// Run `make()`'s scheduler under both modes; require identical departures
/// and identical final hidden state.
fn assert_equivalent<S: CrossbarScheduler, F: Fn() -> S>(
    label: &str,
    t: &Trace,
    make: F,
) -> (u64, u64) {
    let (dense_log, dense_sw) = run_crossbar_with(t, make(), Stepping::Dense);
    let (skip_log, skip_sw) = run_crossbar_with(t, make(), Stepping::SkipAhead);
    let dense: Vec<_> = dense_log
        .iter()
        .map(|(id, r)| (id, r.arrival, r.departure()))
        .collect();
    let skip: Vec<_> = skip_log
        .iter()
        .map(|(id, r)| (id, r.arrival, r.departure()))
        .collect();
    assert_eq!(dense, skip, "{label}: logs diverged across stepping");
    assert_eq!(dense_log.undelivered(), 0, "{label}: run did not drain");
    let (d, s) = (
        dense_sw.scheduler().state_digest(),
        skip_sw.scheduler().state_digest(),
    );
    assert_eq!(d, s, "{label}: hidden scheduler state diverged");
    (d, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn islip_pointers_survive_skipped_gaps(
        n in 2usize..6,
        iterations in 1usize..4,
        seed in 0u64..100_000,
        bursts in 1usize..6,
    ) {
        let t = gappy_trace(n, seed, bursts);
        let (_, dense_sw) = run_crossbar_with(&t, IslipArbiter::new(n, iterations), Stepping::Dense);
        let (_, skip_sw) = run_crossbar_with(&t, IslipArbiter::new(n, iterations), Stepping::SkipAhead);
        // Byte-identical pointer vectors, not just equal digests.
        prop_assert_eq!(dense_sw.scheduler().pointers(), skip_sw.scheduler().pointers());
        prop_assert_eq!(
            dense_sw.scheduler().state_digest(),
            skip_sw.scheduler().state_digest()
        );
        assert_equivalent("islip", &t, || IslipArbiter::new(n, iterations));
    }

    #[test]
    fn qps_r_is_stepping_invariant(
        n in 2usize..6,
        r in 1usize..4,
        seed in 0u64..100_000,
        bursts in 1usize..6,
    ) {
        let t = gappy_trace(n, seed, bursts);
        assert_equivalent("qps-r", &t, || QpsRScheduler::new(n, r, seed ^ 0xA5));
    }

    #[test]
    fn sw_qps_is_stepping_invariant(
        n in 2usize..6,
        window in 1usize..8,
        seed in 0u64..100_000,
        bursts in 1usize..6,
    ) {
        let t = gappy_trace(n, seed, bursts);
        assert_equivalent("sw-qps", &t, || SwQpsScheduler::new(n, window, seed ^ 0x51));
    }

    #[test]
    fn cioq_policies_are_stepping_invariant(
        n in 2usize..6,
        speedup in 1usize..3,
        seed in 0u64..100_000,
        bursts in 1usize..5,
    ) {
        let t = gappy_trace(n, seed, bursts);
        for policy in [CioqPolicy::CriticalFirst, CioqPolicy::MaximalRr] {
            let dense = run_cioq_policy(&t, n, speedup, policy, Stepping::Dense);
            let skip = run_cioq_policy(&t, n, speedup, policy, Stepping::SkipAhead);
            let d: Vec<_> = dense.iter().map(|(id, r)| (id, r.departure())).collect();
            let s: Vec<_> = skip.iter().map(|(id, r)| (id, r.departure())).collect();
            prop_assert_eq!(d, s, "policy {} diverged", policy.name());
            prop_assert_eq!(dense.undelivered(), 0);
        }
    }
}

/// Deterministic regression: a hand-built trace whose gap once exposed a
/// pointer that moved on empty matrices would fail here with a stable
/// counterexample (no proptest shrinking needed to see it).
#[test]
fn islip_pointer_freeze_regression() {
    let n = 4;
    let mut v = Vec::new();
    // Burst: full contention on output 0 for 4 slots, then a 1000-slot
    // gap, then one probe cell per input.
    for s in 0..4u64 {
        for i in 0..n as u32 {
            v.push(Arrival::new(s, i, 0));
        }
    }
    for i in 0..n as u32 {
        v.push(Arrival::new(1100 + i as u64, i, (i + 1) % n as u32));
    }
    let t = Trace::build(v, n).unwrap();
    let (dense_log, dense_sw) = run_crossbar_with(&t, IslipArbiter::new(n, 1), Stepping::Dense);
    let (skip_log, skip_sw) = run_crossbar_with(&t, IslipArbiter::new(n, 1), Stepping::SkipAhead);
    assert_eq!(
        dense_sw.scheduler().pointers(),
        skip_sw.scheduler().pointers()
    );
    let d: Vec<_> = dense_log.records().map(|r| r.departure()).collect();
    let s: Vec<_> = skip_log.records().map(|r| r.departure()).collect();
    assert_eq!(d, s);
}

/// Contended bursts — every input to output 0 for four slots, which takes
/// `4n` slots to serve — separated by idle gaps a thousand slots long and
/// of no particular residue modulo any window length.
fn long_gap_trace(n: usize) -> Trace {
    let mut v = Vec::new();
    for start in [0u64, 1_003, 2_411, 9_999] {
        for s in 0..4 {
            for i in 0..n as u32 {
                v.push(Arrival::new(start + s, i, 0));
            }
        }
    }
    Trace::build(v, n).unwrap()
}

/// SW-QPS keeps its window in a ring. Dense stepping calls `schedule` on
/// every slot of a long gap and skip-ahead on none, so if an idle call
/// moved the ring head — or the digest read the ring from slot 0 instead
/// of from the head — the two runs would part here. One window shorter
/// than the bursts' drain, one longer than a bitmap word.
#[test]
fn sw_qps_window_survives_long_idle_gaps() {
    let n = 5;
    let t = long_gap_trace(n);
    for window in [8, 65] {
        assert_equivalent("sw-qps", &t, || SwQpsScheduler::new(n, window, 77));
    }
}

/// The idle-slot contract, asked of each discipline directly: after a
/// contended burst has drained (pointers moved, draws made, the SW-QPS
/// ring head somewhere inside the ring), a hundred `slot` calls with no
/// arrivals and no backlog draw nothing and leave `state_digest` alone.
#[test]
fn idle_slots_are_pure_noops_for_every_discipline() {
    let n = 5;
    let burst = &Trace::build(long_gap_trace(n).arrivals().take(4 * n).collect(), n).unwrap();

    fn check<S: CrossbarScheduler>(name: &str, burst: &Trace, scheduler: S) {
        let mut sw = CrossbarSwitch::with_scheduler(scheduler);
        let n = sw.scheduler().n();
        let (mut log, end) = drive(&mut sw, burst, n, Slot::MAX, Stepping::Dense).unwrap();
        let drained = sw.scheduler().state_digest();
        for now in end..end + 100 {
            sw.slot(now, &[], &mut log);
            assert_eq!(sw.scheduler().state_digest(), drained, "{name}: slot {now}");
        }
        assert_eq!(sw.next_activity(end + 100), None, "{name}");
    }
    check("islip", burst, IslipArbiter::new(n, 2));
    check("qps-r", burst, QpsRScheduler::new(n, 3, 21));
    check("sw-qps T=8", burst, SwQpsScheduler::new(n, 8, 22));
    check("sw-qps T=65", burst, SwQpsScheduler::new(n, 65, 23));

    // The CIOQ policies hold no pointer or RNG state; their hidden state
    // is the output-queue high-water mark and the backlog.
    for policy in [CioqPolicy::CriticalFirst, CioqPolicy::MaximalRr] {
        let mut sw = CioqSwitch::with_policy(n, 2, policy);
        let (mut log, end) = drive(&mut sw, burst, n, Slot::MAX, Stepping::Dense).unwrap();
        let (high_water, delivered) = (sw.max_output_queue(), log.clone());
        for now in end..end + 100 {
            sw.slot(now, &[], &mut log);
        }
        assert_eq!(sw.backlog(), 0, "{}", policy.name());
        assert_eq!(sw.max_output_queue(), high_water, "{}", policy.name());
        assert_eq!(log.records(), delivered.records(), "{}", policy.name());
    }
}
