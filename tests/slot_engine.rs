//! The one run loop (`pps_core::stepping::drive`) over the real engines:
//!
//! * the three comparison engines — shadow OQ, crossbar, CIOQ — give equal
//!   logs and equal end slots under dense and skip-ahead stepping when
//!   driven directly through the [`SlotEngine`] contract;
//! * a trace parked 40 slots short of `Slot::MAX` runs through all four
//!   engines with every cell delivered, at the same offsets from its
//!   arrival slot as the same trace at slot 0. This pins the livelock caps
//!   as saturating: an unchecked cap overflows there — a panic in dev
//!   builds, and in release builds a cap wrapped to a small number that
//!   ends the run with the cells silently undelivered.

use pps_core::prelude::*;
use pps_core::stepping::{drive, SlotEngine};
use pps_crossbar::{
    run_cioq_policy, run_crossbar_with, CioqPolicy, CioqSwitch, CrossbarSwitch, IslipArbiter,
    QpsRScheduler,
};
use pps_reference::oq::{run_oq, ShadowOq};
use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};
use pps_switch::engine::{BufferedPps, BufferlessPps};
use pps_traffic::gen::OnOffGen;

/// Drive two fresh copies of an engine over `cells`, one per stepping
/// mode, and assert the runs are indistinguishable.
fn assert_modes_agree<E: SlotEngine>(name: &str, make: impl Fn() -> E, cells: &[Cell], cap: Slot) {
    let (dense, dense_end) = drive(&mut make(), cells, cap, Stepping::Dense).unwrap();
    let (skip, skip_end) = drive(&mut make(), cells, cap, Stepping::SkipAhead).unwrap();
    assert_eq!(dense.records(), skip.records(), "{name}: logs differ");
    assert_eq!(dense_end, skip_end, "{name}: end slots differ");
    assert_eq!(skip.undelivered(), 0, "{name}: cells left behind");
}

#[test]
fn comparison_engines_agree_across_stepping_modes() {
    // Bursty on-off traffic at a light load: long idle gaps for skip-ahead
    // to jump, bursts for the engines to queue.
    let n = 8;
    let trace = OnOffGen::uniform(6.0, 0.15, 11).trace(n, 4_000);
    let cells = trace.cells(n);
    assert!(cells.len() > 100, "the trace must exercise the engines");
    let cap = trace.horizon() + (cells.len() as Slot + 2) * n as Slot + 64;

    assert_modes_agree("shadow-oq", || ShadowOq::new(n), &cells, Slot::MAX);
    assert_modes_agree("islip", || CrossbarSwitch::new(n, 2), &cells, cap);
    assert_modes_agree(
        "qps-3",
        || CrossbarSwitch::with_scheduler(QpsRScheduler::new(n, 3, 5)),
        &cells,
        cap,
    );
    for policy in [CioqPolicy::CriticalFirst, CioqPolicy::MaximalRr] {
        assert_modes_agree(
            policy.name(),
            || CioqSwitch::with_policy(n, 2, policy),
            &cells,
            cap,
        );
    }
}

/// Departure offsets from `base` for every cell of a log, which must have
/// delivered everything.
fn offsets(name: &str, log: &RunLog, base: Slot) -> Vec<Slot> {
    assert_eq!(log.undelivered(), 0, "{name}: undelivered cells at {base}");
    log.records()
        .iter()
        .map(|r| r.departure.unwrap() - base)
        .collect()
}

#[test]
fn a_trace_near_the_end_of_time_runs_like_the_same_trace_at_slot_zero() {
    // Two inputs contend for one output in the same slot.
    let n = 4;
    let at = |base: Slot| {
        Trace::build(vec![Arrival::new(base, 0, 1), Arrival::new(base, 2, 1)], n).unwrap()
    };
    let skip = Stepping::SkipAhead;
    type Run<'a> = &'a dyn Fn(&Trace) -> RunLog;
    let engines: [(&str, Run); 5] = [
        ("bufferless-pps", &|t| {
            let cfg = PpsConfig::bufferless(n, 4, 2);
            let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, 4)).unwrap();
            pps.set_stepping(skip);
            pps.run(t).unwrap().log
        }),
        ("buffered-pps", &|t| {
            let cfg = PpsConfig::buffered(n, 4, 2, 8);
            let mut pps = BufferedPps::new(cfg, BufferedRoundRobinDemux::new(n, 4)).unwrap();
            pps.set_stepping(skip);
            pps.run(t).unwrap().log
        }),
        // The process default is skip-ahead; nothing in this binary
        // changes it.
        ("shadow-oq", &|t| run_oq(t, n)),
        ("crossbar", &|t| {
            run_crossbar_with(t, IslipArbiter::new(n, 1), skip).0
        }),
        ("cioq", &|t| {
            run_cioq_policy(t, n, 2, CioqPolicy::CriticalFirst, skip)
        }),
    ];
    let late = Slot::MAX - 40;
    for (name, run) in engines {
        let at_zero = offsets(name, &run(&at(0)), 0);
        let at_late = offsets(name, &run(&at(late)), late);
        assert_eq!(at_zero, at_late, "{name}: offsets moved with the base slot");
    }
}
