//! The one run loop (`pps_core::stepping::drive`) over the real engines:
//!
//! * the three comparison engines — shadow OQ, crossbar, CIOQ — give equal
//!   logs and equal end slots under dense and skip-ahead stepping when
//!   driven directly through the [`SlotEngine`] contract;
//! * the same three, driven by `drive`, match the driver it replaced (whole
//!   trace materialised, whole log pre-filled; kept here as the oracle) on
//!   random dense, gap-heavy, cap-cut and end-of-time traces;
//! * a trace parked 40 slots short of `Slot::MAX` runs through all four
//!   engines with every cell delivered, at the same offsets from its
//!   arrival slot as the same trace at slot 0. This pins the livelock caps
//!   as saturating: an unchecked cap overflows there — a panic in dev
//!   builds, and in release builds a cap wrapped to a small number that
//!   ends the run with the cells silently undelivered.

use pps_core::prelude::*;
use pps_core::rng::SplitMix64;
use pps_core::stepping::{drive, SlotEngine};
use pps_crossbar::{
    run_cioq_policy, run_crossbar_with, CioqPolicy, CioqSwitch, CrossbarSwitch, IslipArbiter,
    QpsRScheduler,
};
use pps_reference::oq::{run_oq, ShadowOq};
use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};
use pps_switch::engine::{BufferedPps, BufferlessPps};
use pps_traffic::gen::OnOffGen;

/// Drive two fresh copies of an engine over `trace`, one per stepping
/// mode, and assert the runs are indistinguishable.
fn assert_modes_agree<E: SlotEngine>(
    name: &str,
    make: impl Fn() -> E,
    trace: &Trace,
    n: usize,
    cap: Slot,
) {
    let (dense, dense_end) = drive(&mut make(), trace, n, cap, Stepping::Dense).unwrap();
    let (skip, skip_end) = drive(&mut make(), trace, n, cap, Stepping::SkipAhead).unwrap();
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
    assert!(trace.len() > 100, "the trace must exercise the engines");
    let cap = trace.horizon() + (trace.len() as Slot + 2) * n as Slot + 64;

    assert_modes_agree("shadow-oq", || ShadowOq::new(n), &trace, n, Slot::MAX);
    assert_modes_agree("islip", || CrossbarSwitch::new(n, 2), &trace, n, cap);
    assert_modes_agree(
        "qps-3",
        || CrossbarSwitch::with_scheduler(QpsRScheduler::new(n, 3, 5)),
        &trace,
        n,
        cap,
    );
    for policy in [CioqPolicy::CriticalFirst, CioqPolicy::MaximalRr] {
        assert_modes_agree(
            policy.name(),
            || CioqSwitch::with_policy(n, 2, policy),
            &trace,
            n,
            cap,
        );
    }
}

/// The driver `drive` replaced, kept as the oracle: materialise the whole
/// trace, pre-fill the whole log, slice the sorted cell list.
fn materialised_drive<E: SlotEngine>(
    engine: &mut E,
    trace: &Trace,
    n: usize,
    cap: Slot,
    mode: Stepping,
) -> (RunLog, Slot) {
    let cells = trace.cells(n);
    let cap = cap.min(Slot::MAX - 1);
    let mut log = RunLog::with_cells(&cells);
    let mut next = 0usize;
    let mut now: Slot = 0;
    let mut more = next < cells.len() || engine.backlog() > 0;
    while more && now <= cap {
        let first = next;
        while next < cells.len() && cells[next].arrival == now {
            next += 1;
        }
        engine.slot(now, &cells[first..next], &mut log).unwrap();
        now += 1;
        more = next < cells.len() || engine.backlog() > 0;
        let next_arrival = cells.get(next).map_or(Slot::MAX, |c| c.arrival);
        if more && mode == Stepping::SkipAhead && now <= cap && next_arrival != now {
            let wake = engine.next_activity(now - 1).unwrap_or(Slot::MAX);
            let stop = next_arrival.min(wake).min(cap + 1);
            if stop > now {
                engine.skip_idle(now, stop - 1);
                now = stop;
            }
        }
    }
    (log, now)
}

/// A random trace on `n` ports: `bursts` runs of busy slots (each input
/// sends with probability `load`, to a random output) up to `gap` slots
/// apart, starting at `base`.
fn random_trace(n: usize, seed: u64, bursts: u64, load: f64, gap: u64, base: Slot) -> Trace {
    let mut rng = SplitMix64::new(seed).derive(0xD21E);
    let mut arrivals = Vec::new();
    let mut slot = base;
    for _ in 0..bursts {
        for _ in 0..1 + rng.below(6) {
            for input in 0..n as u32 {
                if rng.chance(load) {
                    arrivals.push(Arrival::new(slot, input, rng.below(n as u64) as u32));
                }
            }
            slot += 1;
        }
        slot += rng.below(gap + 1);
    }
    Trace::build(arrivals, n).unwrap()
}

#[test]
fn drive_matches_the_materialising_driver_on_the_real_engines() {
    fn check<E: SlotEngine>(name: &str, make: &dyn Fn(usize) -> E, seed: u64) {
        let n = 2 + (seed % 5) as usize;
        let both = [Stepping::Dense, Stepping::SkipAhead];
        let same = |trace: &Trace, cap: Slot, mode: Stepping| {
            let (log, end) = drive(&mut make(n), trace, n, cap, mode).unwrap();
            let (model_log, model_end) = materialised_drive(&mut make(n), trace, n, cap, mode);
            let what = format!("{name}, seed {seed}, cap {cap}, {mode:?}");
            assert_eq!(log.len(), trace.len(), "{what}: the log covers the trace");
            assert_eq!(log.records(), model_log.records(), "{what}: records");
            assert_eq!(end, model_end, "{what}: end slot");
        };
        let dense = random_trace(n, seed, 8, 0.9, 0, 0);
        let gappy = random_trace(n, seed, 5, 0.5, 400, 0);
        for trace in [&dense, &gappy] {
            // Uncapped, then a cap inside the trace: the cut cells must
            // still be logged, undelivered, with full-run seqs.
            let inside = trace.horizon() * (seed % 7) / 7;
            for cap in [Slot::MAX, inside] {
                for mode in both {
                    same(trace, cap, mode);
                }
            }
        }
        // Parked at the end of time: only skip-ahead can get there.
        let parked = random_trace(n, seed, 2, 0.7, 4, Slot::MAX - 40);
        for cap in [Slot::MAX, Slot::MAX - 30] {
            same(&parked, cap, Stepping::SkipAhead);
        }
    }
    for seed in 0..40 {
        check("shadow-oq", &ShadowOq::new, seed);
        check("islip-2", &|n| CrossbarSwitch::new(n, 2), seed);
        check(
            "cioq-maximal",
            &|n| CioqSwitch::with_policy(n, 2, CioqPolicy::MaximalRr),
            seed,
        );
    }
}

/// Departure offsets from `base` for every cell of a log, which must have
/// delivered everything.
fn offsets(name: &str, log: &RunLog, base: Slot) -> Vec<Slot> {
    assert_eq!(log.undelivered(), 0, "{name}: undelivered cells at {base}");
    log.records()
        .map(|r| r.departure().unwrap() - base)
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
