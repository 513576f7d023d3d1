//! Property tests of the fault-injection subsystem:
//!
//! * a scripted [`FaultPlan`] run is bit-for-bit deterministic — same
//!   seed, same plan, same log and statistics, whatever the geometry,
//!   watchdog timeout or information class;
//! * the resequencer watchdog never reorders *delivered* cells within a
//!   flow, no matter which lost cells it skips past (skipping may leave
//!   gaps, never inversions).

use proptest::prelude::*;

use pps_core::prelude::*;
use pps_reference::checker::{check_flow_order, Violation};
use pps_switch::demux::{BufferedRoundRobinDemux, FaultAwareRoundRobinDemux, RoundRobinDemux};
use pps_switch::engine::{BufferedPps, BufferlessPps, InputStage, Pps, PpsRun};
use pps_traffic::gen::BernoulliGen;

/// Random geometry: (n, k, r') with K >= r' (bufferless-legal).
fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..=8, 2usize..=3)
        .prop_flat_map(|(n, r_prime)| (r_prime..=r_prime * 3).prop_map(move |k| (n, k, r_prime)))
}

/// A random legal fault plan: one PlaneDown/PlaneUp cycle and, half the
/// time, one degraded input line, all within `slots`.
fn plan_strategy(n: usize, k: usize, slots: Slot) -> impl Strategy<Value = FaultPlan> {
    (
        0..k as u32,
        1..slots / 2,
        1..slots / 3,
        0..n as u32,
        0..k as u32,
        1..slots / 2,
        1..slots / 4,
        0..=1u8,
    )
        .prop_map(
            move |(plane, down_at, outage, d_input, d_plane, d_from, d_len, degrade)| {
                let degrade = degrade == 1;
                let plan = FaultPlan::new()
                    .plane_down(plane, down_at)
                    .plane_up(plane, down_at + outage);
                if degrade {
                    plan.link_degraded(d_input, d_plane, d_from, d_from + d_len)
                } else {
                    plan
                }
            },
        )
}

/// Run `trace` through `pps` while it replays the scripted `plan`.
fn run_faulted<S: InputStage>(mut pps: Pps<S>, trace: &Trace, plan: &FaultPlan) -> PpsRun {
    pps.set_fault_plan(plan).unwrap();
    pps.run(trace).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn faulted_runs_are_deterministic(
        ((n, k, r_prime), plan) in geometry()
            .prop_flat_map(|g| plan_strategy(g.0, g.1, 300).prop_map(move |p| (g, p))),
        watchdog in 1u64..40,
        u in 1u64..8,
        seed in 0u64..500,
    ) {
        let trace = BernoulliGen::uniform(0.7, seed).trace(n, 300);
        let cfg = PpsConfig::bufferless(n, k, r_prime).with_watchdog(watchdog);
        prop_assume!(cfg.validate().is_ok());
        let urt = || BufferlessPps::new(cfg, FaultAwareRoundRobinDemux::urt(n, k, u)).unwrap();
        let once = run_faulted(urt(), &trace, &plan);
        let again = run_faulted(urt(), &trace, &plan);
        prop_assert_eq!(once.log.records(), again.log.records());
        prop_assert_eq!(format!("{:?}", once.stats), format!("{:?}", again.stats));
        prop_assert_eq!(once.end_slot, again.end_slot);

        let bcfg = PpsConfig::buffered(n, k, r_prime, 64).with_watchdog(watchdog);
        let buffered = || BufferedPps::new(bcfg, BufferedRoundRobinDemux::new(n, k)).unwrap();
        let b_once = run_faulted(buffered(), &trace, &plan);
        let b_again = run_faulted(buffered(), &trace, &plan);
        prop_assert_eq!(b_once.log.records(), b_again.log.records());
        prop_assert_eq!(format!("{:?}", b_once.stats), format!("{:?}", b_again.stats));
    }

    #[test]
    fn watchdog_skips_never_reorder_a_flow(
        ((n, k, r_prime), plan) in geometry()
            .prop_flat_map(|g| plan_strategy(g.0, g.1, 300).prop_map(move |p| (g, p))),
        watchdog in 1u64..30,
        seed in 0u64..500,
    ) {
        // A fault-blind round robin keeps feeding the dead plane, so the
        // watchdog genuinely has gaps to skip; delivered cells must still
        // leave each flow in sequence order.
        let trace = BernoulliGen::uniform(0.8, seed).trace(n, 300);
        let cfg = PpsConfig::bufferless(n, k, r_prime).with_watchdog(watchdog);
        prop_assume!(cfg.validate().is_ok());
        let pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).unwrap();
        let run = run_faulted(pps, &trace, &plan);
        let reorders: Vec<_> = check_flow_order(&run.log)
            .into_iter()
            .filter(|v| matches!(v, Violation::FlowReorder { .. }))
            .collect();
        prop_assert!(reorders.is_empty(), "flow reordered: {reorders:?}");

        let bcfg = PpsConfig::buffered(n, k, r_prime, 64).with_watchdog(watchdog);
        let bpps = BufferedPps::new(bcfg, BufferedRoundRobinDemux::new(n, k)).unwrap();
        let brun = run_faulted(bpps, &trace, &plan);
        let reorders: Vec<_> = check_flow_order(&brun.log)
            .into_iter()
            .filter(|v| matches!(v, Violation::FlowReorder { .. }))
            .collect();
        prop_assert!(reorders.is_empty(), "buffered flow reordered: {reorders:?}");
    }
}
