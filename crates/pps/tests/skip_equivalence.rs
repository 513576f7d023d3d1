//! Dense-vs-skip-ahead equivalence harness (DESIGN.md §10).
//!
//! Skip-ahead stepping must be an *unobservable* optimization: for any
//! trace, fault plan, watchdog and discipline, the run log, fabric
//! statistics, end slot and full telemetry trace must be byte-identical to
//! the dense lockstep loop. The only permitted difference is wall clock
//! and the `slots_simulated` / `slots_skipped` split in the perf meters.
//!
//! `engine_model.rs` runs both engines under both modes against the naive
//! model of DESIGN.md §2, over random traces, faults, watchdogs and
//! disciplines. What it cannot see is checked here:
//! * a full-telemetry golden check on a gap-heavy fault run;
//! * a wall-clock check on a ≤1%-occupied 10⁷-slot workload (≥20× — in
//!   practice far more) and a 10⁹-slot sparse soak that is only feasible
//!   because skip-ahead makes it O(events).

use pps_core::fault::FaultPlan;
use pps_core::prelude::*;
use pps_core::Stepping;
use pps_switch::demux::RoundRobinDemux;
use pps_switch::engine::{BufferlessPps, PpsRun};

/// Assert two runs are observably identical (log, stats, end slot).
fn assert_same(dense: &PpsRun, skip: &PpsRun, what: &str) {
    assert_eq!(
        dense.log.records(),
        skip.log.records(),
        "{what}: run logs diverge"
    );
    assert_eq!(dense.stats, skip.stats, "{what}: fabric stats diverge");
    assert_eq!(dense.end_slot, skip.end_slot, "{what}: end slots diverge");
}

/// A sink whose runs step in `mode`.
fn stepped(mode: Stepping) -> Sink {
    Sink::new(RunSpec {
        stepping: mode,
        ..RunSpec::default()
    })
}

/// A sparse arrival pattern: bursts separated by long idle gaps, exactly
/// the shape the skip loop must fast-forward through without observable
/// effect. Slots stretch into the tens of thousands while only a handful
/// are occupied.
fn sparse_trace(n: usize, bursts: &[(u64, u8)]) -> Trace {
    let mut v = Vec::new();
    for &(start, len) in bursts {
        for d in 0..len as u64 {
            for i in 0..n as u32 {
                // Concentrate on one output half the time to exercise the
                // resequencer/watchdog paths, spread otherwise.
                let j = if (start + d) % 2 == 0 {
                    0
                } else {
                    (i + d as u32) % n as u32
                };
                v.push(Arrival::new(start + d, i, j));
            }
        }
    }
    Trace::build(v, n).expect("trace")
}

/// A fault plan of down/up pulses `(plane, down_at, up_after)`, placed
/// inside or between the bursts so skip jumps must stop at
/// activation slots that dense merely walks past.
fn pulse_plan(pulses: &[(u32, u64, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(plane, down_at, up_after) in pulses {
        plan = plan
            .plane_down(plane, down_at)
            .plane_up(plane, down_at + up_after);
    }
    plan
}

/// Full-telemetry golden check: a gap-heavy faulted run records exactly
/// the same event stream under both modes — skipped slots emit nothing in
/// dense stepping, so eliding them must be invisible.
#[test]
fn full_telemetry_trace_is_identical() {
    use pps_core::run::{self, RunSpec};
    use pps_core::telemetry::Level;
    let (n, k, r_prime) = (4usize, 4usize, 2usize);
    let cfg = PpsConfig::bufferless(n, k, r_prime)
        .with_discipline(OutputDiscipline::GlobalFcfs)
        .with_watchdog(6);
    let trace = sparse_trace(n, &[(0, 3), (5_000, 2), (40_000, 1)]);
    let plan = pulse_plan(&[(0, 2, 10_000), (1, 41_000, 500)]);

    let collect = |stepping: Stepping| {
        let spec = RunSpec {
            stepping,
            telemetry: Level::Full,
            ..RunSpec::default()
        };
        let report = run::run(&spec, &format!("equiv-{}", stepping.name()), |sink| {
            let mut pps =
                BufferlessPps::new_in(cfg, RoundRobinDemux::new(n, k), sink).expect("engine");
            pps.set_fault_plan(&plan).expect("plan");
            pps.run(&trace).expect("run")
        });
        (report.output, report.log)
    };
    let (dense, dense_log) = collect(Stepping::Dense);
    let (skip, skip_log) = collect(Stepping::SkipAhead);

    assert_same(&dense, &skip, "telemetry run");
    assert!(dense_log.total_events() > 0, "trace recorded nothing");
    // Labels differ by construction; events must not.
    let d: Vec<_> = dense_log.flatten().into_iter().map(|(_, e)| e).collect();
    let s: Vec<_> = skip_log.flatten().into_iter().map(|(_, e)| e).collect();
    assert_eq!(d, s, "telemetry event streams diverge");
}

/// Acceptance: a ≤1%-occupied workload over ≥10⁷ slots runs at least 20×
/// faster under skip-ahead, with identical results. The margin in practice
/// is orders of magnitude — 20× keeps the assert robust on loaded CI.
#[test]
fn sparse_workload_speedup_at_least_20x() {
    let (n, k, r_prime) = (4usize, 4usize, 2usize);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    // 100 single-slot bursts spread over 10⁷ slots: occupancy ≪ 1%.
    let bursts: Vec<(u64, u8)> = (0..100).map(|i| (i * 100_000, 1)).collect();
    let trace = sparse_trace(n, &bursts);
    assert!(trace.horizon() >= 9_900_000);

    let timed = |mode: Stepping| {
        let demux = RoundRobinDemux::new(n, k);
        let mut pps = BufferlessPps::new_in(cfg, demux, &stepped(mode)).expect("engine");
        let start = std::time::Instant::now();
        let run = pps.run(&trace).expect("run");
        (run, start.elapsed())
    };
    let (dense, t_dense) = timed(Stepping::Dense);
    let (skip, t_skip) = timed(Stepping::SkipAhead);
    assert_same(&dense, &skip, "sparse 10^7");
    assert_eq!(dense.log.undelivered(), 0);
    let ratio = t_dense.as_secs_f64() / t_skip.as_secs_f64().max(1e-9);
    assert!(
        ratio >= 20.0,
        "skip-ahead only {ratio:.1}x faster (dense {t_dense:?}, skip {t_skip:?})"
    );
}

/// A 10⁹-slot sparse horizon is CI-feasible under skip-ahead: the loop
/// touches O(events) slots, not O(horizon). Dense would take hours; this
/// must finish in seconds.
#[test]
fn soak_billion_slot_horizon_is_events_bound() {
    let (n, k, r_prime) = (4usize, 4usize, 2usize);
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_watchdog(8);
    let bursts: Vec<(u64, u8)> = (0..200).map(|i| (i * 5_000_000, 1)).collect();
    let trace = sparse_trace(n, &bursts);
    assert!(
        trace.horizon() >= 995_000_000,
        "horizon {}",
        trace.horizon()
    );

    let start = std::time::Instant::now();
    let report = pps_core::run::run(&Default::default(), "soak", |sink| {
        let mut pps = BufferlessPps::new_in(cfg, RoundRobinDemux::new(n, k), sink).expect("engine");
        pps.run(&trace).expect("run")
    });
    let (run, elapsed) = (report.output, start.elapsed());
    assert_eq!(run.log.undelivered(), 0);
    assert!(run.end_slot >= trace.horizon());
    // The elided interval is metered, not silently lost.
    assert!(report.meters.slots_skipped >= 900_000_000);
    assert!(
        elapsed.as_secs_f64() < 30.0,
        "soak took {elapsed:?} — skip-ahead is not events-bound"
    );
}
