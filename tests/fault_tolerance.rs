//! Fault-injection integration tests for the paper's §3 fault-tolerance
//! motivation: unpartitioned algorithms degrade gracefully under plane
//! failure, statically partitioned ones concentrate the damage (and with
//! minimal `r'`-plane subsets, footnote 4: one failure immediately drops
//! cells).

use pps_core::prelude::*;
use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux, StaticPartitionDemux};
use pps_switch::engine::{BufferedPps, BufferlessPps};
use pps_traffic::gen::BernoulliGen;

fn run_with_failed_plane<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    failed: usize,
) -> pps_switch::engine::PpsRun {
    let mut pps = BufferlessPps::new(cfg, demux).unwrap();
    pps.fail_plane(failed).unwrap();
    pps.run(trace).unwrap()
}

#[test]
fn no_failure_means_no_loss() {
    let (n, k, r_prime) = (8, 4, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = BernoulliGen::uniform(0.8, 3).trace(n, 500);
    let run = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k))
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_eq!(run.stats.dropped, 0);
    assert_eq!(run.log.undelivered(), 0);
}

#[test]
fn unpartitioned_loss_is_about_one_over_k() {
    let (n, k, r_prime) = (8, 8, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = BernoulliGen::uniform(0.9, 5).trace(n, 2_000);
    let run = run_with_failed_plane(cfg, RoundRobinDemux::new(n, k), &trace, 0);
    let frac = run.stats.dropped as f64 / trace.len() as f64;
    assert!(
        (0.06..0.20).contains(&frac),
        "round robin should lose ~1/K = 12.5%: lost {frac:.3}"
    );
}

#[test]
fn minimal_partition_halves_its_victims_traffic() {
    // Footnote 4 configuration: each input uses exactly r' = 2 planes.
    let (n, k, r_prime) = (8, 4, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = BernoulliGen::uniform(0.9, 7).trace(n, 2_000);
    let run = run_with_failed_plane(cfg, StaticPartitionDemux::minimal(n, k, r_prime), &trace, 0);
    // Inputs in group 0 (subset {0, 1}) lose every cell routed to plane 0,
    // i.e. about half of what they send.
    let mut sent = vec![0u64; n];
    let mut lost = vec![0u64; n];
    for rec in run.log.records() {
        sent[rec.input.idx()] += 1;
        if rec.plane() == Some(PlaneId(0)) && rec.departure().is_none() {
            lost[rec.input.idx()] += 1;
        }
    }
    let demux = StaticPartitionDemux::minimal(n, k, r_prime);
    for i in 0..n {
        let frac = lost[i] as f64 / sent[i].max(1) as f64;
        if demux.planes_of(i).contains(&0) {
            assert!(frac > 0.35, "victim input {i} lost only {frac:.2}");
        } else {
            assert_eq!(lost[i], 0, "input {i} does not use plane 0");
        }
    }
}

#[test]
fn failure_does_not_wedge_unaffected_flows() {
    // Flows that never route through the dead plane still complete, in
    // order.
    let (n, k, r_prime) = (4, 4, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    // Partition input 0 onto planes {2, 3}; others onto {0, 1}.
    let demux = StaticPartitionDemux::new(vec![vec![2, 3], vec![0, 1], vec![0, 1], vec![0, 1]]);
    let trace = BernoulliGen::uniform(0.7, 9).trace(n, 400);
    let run = run_with_failed_plane(cfg, demux, &trace, 0);
    for rec in run.log.records() {
        if rec.input == PortId(0) {
            assert!(
                rec.departure().is_some(),
                "flow avoiding the failed plane must complete: {rec:?}"
            );
        }
    }
    let order = pps_reference::checker::check_flow_order(&run.log);
    // Only flows that actually lost a cell may show gaps; input 0 must not.
    assert!(order.iter().all(|v| !matches!(
        v,
        pps_reference::checker::Violation::FlowReorder { flow, .. } if flow.input == PortId(0)
    )));
}

#[test]
fn buffered_switch_loses_about_one_over_k_too() {
    // The input-buffered engine shares the fabric, so a fault-blind
    // buffered round robin keeps feeding a dead plane just like the
    // bufferless one.
    let (n, k, r_prime) = (8, 8, 2);
    let cfg = PpsConfig::buffered(n, k, r_prime, 64);
    let trace = BernoulliGen::uniform(0.8, 13).trace(n, 1_500);
    let mut pps = BufferedPps::new(cfg, BufferedRoundRobinDemux::new(n, k)).unwrap();
    pps.fail_plane(0).unwrap();
    let run = pps.run(&trace).unwrap();
    let frac = run.stats.dropped as f64 / trace.len() as f64;
    assert!(
        (0.06..0.20).contains(&frac),
        "buffered round robin should lose ~1/K = 12.5%: lost {frac:.3}"
    );
    assert!(pps.fail_plane(k).is_err(), "out-of-range plane is rejected");
}

#[test]
fn buffered_switch_survives_a_fail_recover_cycle() {
    // Mid-run PlaneDown/PlaneUp against the buffered engine: cells are
    // lost only while the plane is down, the watchdog unwedges the
    // resequencer, and the plane carries traffic again after PlaneUp.
    let (n, k, r_prime) = (8, 4, 2);
    let cfg = PpsConfig::buffered(n, k, r_prime, 64).with_watchdog(16);
    let trace = BernoulliGen::uniform(0.6, 17).trace(n, 1_200);
    let plan = FaultPlan::new().plane_down(0, 300).plane_up(0, 700);
    let mut pps = BufferedPps::new(cfg, BufferedRoundRobinDemux::new(n, k)).unwrap();
    pps.set_fault_plan(&plan).unwrap();
    let run = pps.run(&trace).unwrap();
    assert!(run.stats.dropped > 0, "the outage must cost something");
    for rec in run.log.records() {
        if rec.departure().is_none() {
            // Only the dead plane loses cells, and only cells dispatched
            // during the outage (dispatch happens at or after arrival, so
            // every victim arrived before the PlaneUp slot).
            assert_eq!(
                rec.plane(),
                Some(PlaneId(0)),
                "loss off the dead plane: {rec:?}"
            );
            assert!(rec.arrival < 700, "loss after recovery: {rec:?}");
        }
    }
    // The plane carries traffic again after recovery.
    let after_recovery = run
        .log
        .records()
        .filter(|r| r.plane() == Some(PlaneId(0)) && r.departure().is_some() && r.arrival >= 700)
        .count();
    assert!(after_recovery > 0, "plane 0 must carry cells after PlaneUp");
    // The watchdog skipped the gaps the lost cells left behind.
    assert!(run.stats.skipped > 0, "watchdog must have fired");
}

#[test]
fn global_fcfs_mux_does_not_deadlock_on_lost_cells() {
    // A lost cell must not make the GlobalFcfs resequencer wait forever
    // for it (the engine un-registers drops).
    let (n, k, r_prime) = (4, 4, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    let trace = BernoulliGen::uniform(0.9, 11).trace(n, 600);
    let run = run_with_failed_plane(cfg, RoundRobinDemux::new(n, k), &trace, 1);
    assert!(run.stats.dropped > 0, "the test needs actual losses");
    // Every cell that reached a healthy plane departed.
    let alive = run
        .log
        .records()
        .filter(|r| r.plane().is_some() && r.plane() != Some(PlaneId(1)))
        .count();
    let delivered = run
        .log
        .records()
        .filter(|r| r.departure().is_some())
        .count();
    assert_eq!(alive, delivered, "healthy-plane cells must all depart");
}

#[test]
fn a_watchdog_limit_of_slot_max_behaves_like_no_watchdog() {
    // `PpsConfig::with_watchdog(Slot::MAX)` passes `validate()`, and the
    // gap deadline `since + limit - 1` then used to overflow the moment a
    // flow gap-blocked: a panic in debug builds, a wrapped deadline that
    // woke the switch every slot in release. One PlaneDown/PlaneUp pulse
    // loses cells in plane 0; their flows' later cells block behind the
    // gaps until the drain cap, and a watchdog that cannot fire before the
    // end of time must leave exactly the run no watchdog leaves.
    let (n, k, r_prime) = (4, 4, 2);
    let trace = BernoulliGen::uniform(0.7, 21).trace(n, 300);
    let plan = FaultPlan::new().plane_down(0, 50).plane_up(0, 60);
    let run = |cfg: PpsConfig| {
        let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).unwrap();
        pps.set_fault_plan(&plan).unwrap();
        pps.run(&trace).unwrap()
    };
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let never = run(cfg);
    let at_max = run(cfg.with_watchdog(Slot::MAX));
    assert!(
        never.log.undelivered() as u64 > never.stats.dropped,
        "cells must block behind a lost one"
    );
    assert_eq!(at_max.log.records(), never.log.records());
    assert_eq!(at_max.stats, never.stats);
    assert_eq!(at_max.end_slot, never.end_slot);
}
