//! The hand loops the per-layer numbers are timed on must be the engines
//! they imitate: same records, same `FabricStats`, same `end_slot` as
//! `BufferlessPps::run` on a dense, a gap-heavy and a faulted trace — with
//! and without the stopwatch running.

use pps_core::prelude::*;
use pps_reference::oq::run_oq;
use pps_switch::demux::{FaultAwareRoundRobinDemux, RoundRobinDemux};
use pps_switch::engine::{BufferlessPps, PpsRun};
use pps_switch::fabric::Fabric;
use pps_workload::WorkloadSpec;
use ppsbench::loops::{engine_loop, fabric_loop, oq_loop, Laps, LoopCounts, NoLaps, SampledLaps};

const N: usize = 8;
const K: usize = 4;
const R_PRIME: usize = 2;

fn spec(s: &str) -> Trace {
    WorkloadSpec::parse(s)
        .expect("spec")
        .trace()
        .expect("trace")
}

fn dense() -> Trace {
    spec("uniform:n=8,load=0.9,seed=11,horizon=600")
}

/// Bursts a few cells long, thousands of slots apart.
fn gap_heavy() -> Trace {
    spec("onoff:n=8,on=0.0005,off=0.3,seed=12,horizon=400000")
}

/// Plane outages, one of them overlapping a degraded line, on busy traffic.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .plane_down(1, 40)
        .plane_up(1, 140)
        .link_degraded(3, 2, 100, 220)
        .plane_down(3, 300)
        .plane_up(3, 310)
}

fn reference<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    plan: Option<&FaultPlan>,
    trace: &Trace,
) -> PpsRun {
    let mut pps = BufferlessPps::new(cfg, demux).expect("engine");
    if let Some(plan) = plan {
        pps.set_fault_plan(plan).expect("plan");
    }
    pps.run(trace).expect("run")
}

fn assert_same(
    what: &str,
    log: &RunLog,
    stats: pps_switch::fabric::FabricStats,
    counts: LoopCounts,
    run: &PpsRun,
) {
    assert_eq!(log.records(), run.log.records(), "{what}: records");
    assert_eq!(stats, run.stats, "{what}: FabricStats");
    assert_eq!(counts.end_slot, run.end_slot, "{what}: end_slot");
    assert_eq!(
        counts.slots + counts.skipped,
        counts.end_slot,
        "{what}: every slot is processed or skipped"
    );
}

fn engine_level<D: Demultiplexor, L: Laps>(
    cfg: PpsConfig,
    demux: D,
    plan: Option<&FaultPlan>,
    trace: &Trace,
    laps: &mut L,
) -> (RunLog, pps_switch::fabric::FabricStats, LoopCounts) {
    let mut pps = BufferlessPps::new(cfg, demux).expect("engine");
    if let Some(plan) = plan {
        pps.set_fault_plan(plan).expect("plan");
    }
    let cells = trace.cells(cfg.n);
    let mut log = RunLog::with_cells(&cells);
    let counts = engine_loop(&mut pps, trace, &cells, &mut log, laps).expect("loop");
    (log, pps.fabric().stats(), counts)
}

fn fabric_level<L: Laps>(
    cfg: PpsConfig,
    plan: Option<&FaultPlan>,
    trace: &Trace,
    laps: &mut L,
) -> (RunLog, pps_switch::fabric::FabricStats, LoopCounts) {
    let mut fabric = Fabric::new(cfg);
    let mut demux = RoundRobinDemux::new(cfg.n, cfg.k);
    let cells = trace.cells(cfg.n);
    fabric.reserve_cells(cells.len());
    let mut log = RunLog::with_cells(&cells);
    let counts =
        fabric_loop(&mut fabric, &mut demux, plan, trace, &cells, &mut log, laps).expect("loop");
    (log, fabric.stats(), counts)
}

fn both_loops_match(cfg: PpsConfig, plan: Option<&FaultPlan>, trace: &Trace) -> LoopCounts {
    let run = reference(cfg, RoundRobinDemux::new(cfg.n, cfg.k), plan, trace);
    let demux = || RoundRobinDemux::new(cfg.n, cfg.k);
    let (log, stats, counts) = engine_level(cfg, demux(), plan, trace, &mut NoLaps);
    assert_same("engine loop", &log, stats, counts, &run);
    let (log, stats, timed) = engine_level(cfg, demux(), plan, trace, &mut SampledLaps::new(3));
    assert_same("timed engine loop", &log, stats, timed, &run);
    assert_eq!(counts, timed, "the stopwatch must not steer the loop");
    let (log, stats, fabric) = fabric_level(cfg, plan, trace, &mut NoLaps);
    assert_same("fabric loop", &log, stats, fabric, &run);
    let (log, stats, timed) = fabric_level(cfg, plan, trace, &mut SampledLaps::new(1));
    assert_same("timed fabric loop", &log, stats, timed, &run);
    assert_eq!(counts, fabric, "both loops walk the same slots");
    counts
}

#[test]
fn dense_trace() {
    let counts = both_loops_match(PpsConfig::bufferless(N, K, R_PRIME), None, &dense());
    assert!(counts.slots >= 600 && counts.jumps <= 2, "{counts:?}");
}

#[test]
fn gap_heavy_trace() {
    let counts = both_loops_match(PpsConfig::bufferless(N, K, R_PRIME), None, &gap_heavy());
    assert!(
        counts.jumps > 50 && counts.skipped > 10 * counts.slots,
        "{counts:?}"
    );
}

#[test]
fn faulted_trace() {
    let cfg = PpsConfig::bufferless(N, K, R_PRIME).with_watchdog(16);
    for trace in [dense(), gap_heavy()] {
        both_loops_match(cfg, Some(&plan()), &trace);
    }
    // The run really lost cells, so the loss paths were compared too.
    let run = reference(cfg, RoundRobinDemux::new(N, K), Some(&plan()), &dense());
    assert!(
        run.stats.dropped > 0 && run.stats.skipped > 0,
        "{:?}",
        run.stats
    );
}

/// `sparse_skip`'s engine: a u-RT demultiplexor reads the information bus,
/// which only the engine-level loop can drive.
#[test]
fn faulted_urt_engine_loop() {
    let cfg = PpsConfig::bufferless(N, K, R_PRIME).with_watchdog(16);
    let demux = || FaultAwareRoundRobinDemux::urt(N, K, 3);
    for trace in [dense(), gap_heavy()] {
        let run = reference(cfg, demux(), Some(&plan()), &trace);
        let (log, stats, counts) = engine_level(cfg, demux(), Some(&plan()), &trace, &mut NoLaps);
        assert_same("u-RT engine loop", &log, stats, counts, &run);
    }
}

#[test]
fn oq_loop_is_run_oq() {
    for trace in [dense(), gap_heavy()] {
        let cells = trace.cells(N);
        let mut log = RunLog::with_cells(&cells);
        let oq = oq_loop(&cells, N, &mut log);
        assert_eq!(log.records(), run_oq(&trace, N).records());
        assert!(oq.max_occupancy() >= 1);
    }
}
