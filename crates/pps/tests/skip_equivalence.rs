//! Dense-vs-skip-ahead equivalence harness (DESIGN.md §15).
//!
//! Skip-ahead stepping must be an *unobservable* optimization: for any
//! trace, fault plan, watchdog and discipline, the run log, fabric
//! statistics, end slot and full telemetry trace must be byte-identical to
//! the dense lockstep loop. The only permitted difference is wall clock
//! and the `slots_simulated` / `slots_skipped` split in the perf meters.
//!
//! Three layers:
//! * a proptest that pits the two modes against random sparse traces,
//!   fault plans and resequencer configurations, for both engines;
//! * a full-telemetry golden check on a gap-heavy fault run;
//! * a wall-clock check on a ≤1%-occupied 10⁷-slot workload (≥20× — in
//!   practice far more) and a 10⁹-slot sparse soak that is only feasible
//!   because skip-ahead makes it O(events).

use proptest::prelude::*;
use std::sync::Mutex;

use pps_core::fault::FaultPlan;
use pps_core::prelude::*;
use pps_core::Stepping;
use pps_switch::demux::{
    ArbitratedCrossbarDemux, BufferedRoundRobinDemux, BufferedStaleDemux, CpaDemux,
    DelayedCpaDemux, RoundRobinDemux,
};
use pps_switch::engine::{BufferedPps, BufferlessPps, PpsRun};

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

/// Run one bufferless configuration under both modes.
fn bufferless_pair<D: pps_core::demux::Demultiplexor>(
    cfg: PpsConfig,
    mut mk: impl FnMut() -> D,
    trace: &Trace,
    plan: Option<&FaultPlan>,
) -> (PpsRun, PpsRun) {
    let run = |mode: Stepping, demux: D| {
        let mut pps = BufferlessPps::new(cfg, demux).expect("engine");
        if let Some(p) = plan {
            pps.set_fault_plan(p).expect("plan");
        }
        pps.set_stepping(mode);
        pps.run(trace).expect("run")
    };
    (run(Stepping::Dense, mk()), run(Stepping::SkipAhead, mk()))
}

/// Run one buffered configuration under both modes.
fn buffered_pair<D: pps_core::demux::BufferedDemultiplexor>(
    cfg: PpsConfig,
    mk: impl Fn() -> D,
    trace: &Trace,
    plan: Option<&FaultPlan>,
) -> (PpsRun, PpsRun) {
    let run = |mode: Stepping| {
        let mut pps = BufferedPps::new(cfg, mk()).expect("engine");
        if let Some(p) = plan {
            pps.set_fault_plan(p).expect("plan");
        }
        pps.set_stepping(mode);
        pps.run(trace).expect("run")
    };
    (run(Stepping::Dense), run(Stepping::SkipAhead))
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

/// Random fault plan over `k` planes: a down/up pulse per drawn plane,
/// placed inside or between the bursts so skip jumps must stop at
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bufferless engine, FlowFifo + watchdog sweep, sparse bursty traffic
    /// with plane-fault pulses: dense and skip must agree exactly.
    #[test]
    fn bufferless_dense_equals_skip(
        bursts in proptest::collection::vec((0u64..20_000, 1u8..4), 1..5),
        watchdog in (0u64..13).prop_map(|w| (w > 0).then_some(w)),
        fcfs in 0u8..2,
        pulses in proptest::collection::vec((0u32..4, 0u64..20_000, 1u64..6_000), 0..3),
    ) {
        let (n, k, r_prime) = (4usize, 4usize, 2usize);
        let mut cfg = PpsConfig::bufferless(n, k, r_prime);
        if fcfs == 1 {
            cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
        }
        if let Some(w) = watchdog {
            cfg = cfg.with_watchdog(w);
        }
        let trace = sparse_trace(n, &bursts);
        let plan = pulse_plan(&pulses);
        prop_assume!(plan.validate(&cfg).is_ok());

        let (d, s) = bufferless_pair(cfg, || RoundRobinDemux::new(n, k), &trace, Some(&plan));
        assert_same(&d, &s, "bufferless/rr");

        let (d, s) = bufferless_pair(
            cfg.with_discipline(OutputDiscipline::GlobalFcfs),
            || CpaDemux::new(n, k, r_prime),
            &trace,
            Some(&plan),
        );
        assert_same(&d, &s, "bufferless/cpa");
    }

    /// Buffered engine: input buffers force the loop dense while occupied;
    /// the skip logic must only engage across truly idle stretches.
    #[test]
    fn buffered_dense_equals_skip(
        bursts in proptest::collection::vec((0u64..20_000, 1u8..4), 1..5),
        size in 1usize..6,
        watchdog in (0u64..13).prop_map(|w| (w > 0).then_some(w)),
        pulses in proptest::collection::vec((0u32..4, 0u64..20_000, 1u64..6_000), 0..3),
        blackout in (0u32..4, 0u64..4, 1u64..40),
        u in 1u64..5,
    ) {
        let (n, k, r_prime) = (4usize, 4usize, 2usize);
        let mut cfg = PpsConfig::buffered(n, k, r_prime, size);
        if let Some(w) = watchdog {
            cfg = cfg.with_watchdog(w);
        }
        let trace = sparse_trace(n, &bursts);
        let plan = pulse_plan(&pulses);
        prop_assume!(plan.validate(&cfg).is_ok());

        let (d, s) = buffered_pair(cfg, || BufferedRoundRobinDemux::new(n, k), &trace, Some(&plan));
        assert_same(&d, &s, "buffered/rr");

        // The hold-then-dispatch demuxes: besides the plane pulses, black
        // out every line of one input around the first burst, so heads
        // ripen with no line free and are released late. They keep up to
        // `u` cells per input (more across the blackout): give them room,
        // whatever `size` drew.
        let (input, lead, len) = blackout;
        let from = bursts[0].0 + lead;
        let plan = (0..k as u32).fold(plan, |plan, p| {
            plan.link_degraded(input, p, from, from + len)
        });
        let roomy = PpsConfig { buffer: BufferSpec::Buffered { size: 64 }, ..cfg };
        let (d, s) = buffered_pair(roomy, || ArbitratedCrossbarDemux::new(k, u), &trace, Some(&plan));
        assert_same(&d, &s, "buffered/arbitrated");
        let (d, s) =
            buffered_pair(roomy, || BufferedStaleDemux::new(n, k, u, u / 2), &trace, Some(&plan));
        assert_same(&d, &s, "buffered/stale");
        let (d, s) = buffered_pair(
            roomy.with_discipline(OutputDiscipline::GlobalFcfs),
            || DelayedCpaDemux::new(n, k, r_prime, u),
            &trace,
            Some(&plan),
        );
        assert_same(&d, &s, "buffered/delayed-cpa");
    }
}

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Full-telemetry golden check: a gap-heavy faulted run records exactly
/// the same event stream under both modes — skipped slots emit nothing in
/// dense stepping, so eliding them must be invisible.
#[test]
fn full_telemetry_trace_is_identical() {
    use pps_core::telemetry::{self, Level};
    let _lock = TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    telemetry::set_level(Level::Full);
    let (n, k, r_prime) = (4usize, 4usize, 2usize);
    let cfg = PpsConfig::bufferless(n, k, r_prime)
        .with_discipline(OutputDiscipline::GlobalFcfs)
        .with_watchdog(6);
    let trace = sparse_trace(n, &[(0, 3), (5_000, 2), (40_000, 1)]);
    let plan = pulse_plan(&[(0, 2, 10_000), (1, 41_000, 500)]);

    let collect = |mode: Stepping| {
        telemetry::collect(format!("equiv-{}", mode.name()), || {
            let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).expect("engine");
            pps.set_fault_plan(&plan).expect("plan");
            pps.set_stepping(mode);
            pps.run(&trace).expect("run")
        })
    };
    let (dense, dense_log) = collect(Stepping::Dense);
    let (skip, skip_log) = collect(Stepping::SkipAhead);
    telemetry::set_level(Level::Off);

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
        let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).expect("engine");
        pps.set_stepping(mode);
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

    let skipped0 = pps_core::perf::slots_skipped();
    let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).expect("engine");
    pps.set_stepping(Stepping::SkipAhead);
    let start = std::time::Instant::now();
    let run = pps.run(&trace).expect("run");
    let elapsed = start.elapsed();
    assert_eq!(run.log.undelivered(), 0);
    assert!(run.end_slot >= trace.horizon());
    // The elided interval is metered, not silently lost.
    assert!(pps_core::perf::slots_skipped() - skipped0 >= 900_000_000);
    assert!(
        elapsed.as_secs_f64() < 30.0,
        "soak took {elapsed:?} — skip-ahead is not events-bound"
    );
}
