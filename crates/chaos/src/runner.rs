//! Lockstep four-engine execution of one chaos case.
//!
//! Every case drives the PPS under test, the shadow output-queued switch,
//! the crossbar (scheduler drawn per case from the zoo — iSLIP, QPS-r or
//! SW-QPS) and the CIOQ switch (policy drawn per case) through the *same*
//! arrival stream slot by slot. The PPS-side conservation ledger and the cell-pool
//! reconciliation run every slot (so a violation is caught at the slot it
//! happens, not at the end); the event-stream, flow-order, causality and
//! relative-delay oracles fold over the run once it finishes.
//!
//! Record at [`telemetry::Level::Full`] when running cases — the stream
//! oracles fold over the telemetry event log and see nothing otherwise
//! (the chaos CLI forces the level; library callers must do the same).

use crate::case::{ChaosCase, CrossbarChoice};
use pps_core::oracle::{self, ConservationLedger, OracleKind, OracleViolation};
use pps_core::stepping::{earliest_of, SlotEngine};
use pps_core::telemetry::{self, Event};
use pps_core::{Cell, ModelError, RunLog, Slot, Stepping};
use pps_crossbar::{
    CioqSwitch, CrossbarScheduler, CrossbarSwitch, IslipArbiter, QpsRScheduler, SwQpsScheduler,
};
use pps_reference::ShadowOq;
use pps_switch::{BufferedPps, BufferlessPps, InputStage, Pps};
use pps_telemetry::{check_stream, StreamOracleConfig};
use pps_traffic::min_burstiness;
use std::sync::Arc;

/// iSLIP iteration count / CIOQ speedup for the comparison engines (the
/// scheduler and matching policy themselves are per-case draws).
const CROSSBAR_ITERATIONS: usize = 2;
const CIOQ_SPEEDUP: usize = 2;

/// Break the drain loop after this many slots without a single departure
/// or pending arrival anywhere — the signature of a watchdog-less PPS
/// stalled on a cell lost to a failed plane (a legal outcome, not a
/// violation: the backlog stays accounted for).
const STALL_WINDOW: Slot = 1024;

/// Knobs of one [`run_case`] invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// Keep the telemetry event stream in the outcome even when no oracle
    /// fires (the repro writer wants it; bulk fuzzing does not).
    pub keep_events: bool,
    /// Arm the test-only conservation-leak hook this many times before
    /// the run (each armed leak swallows one cell of a plane-failure
    /// flush without accounting for it). Used to prove the harness
    /// catches and shrinks a real conservation bug; 0 in normal runs.
    pub inject_leak: u32,
    /// Pin the lockstep loop's stepping mode instead of letting the case
    /// draw it from its seed ([`ChaosCase::stepping`]). Used by the
    /// dense/skip equivalence tests; `None` in normal campaigns.
    pub force_stepping: Option<Stepping>,
    /// Pin the comparison CIOQ switch's speedup instead of the default
    /// (2). Used by the speedup × fault interaction tests; `None` in
    /// normal campaigns.
    pub force_cioq_speedup: Option<usize>,
}

/// How a failed case failed — the signature the shrinker preserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// An invariant oracle fired.
    Oracle(OracleKind),
    /// The engine itself rejected the run (constraint violation, overflow).
    EngineError,
}

/// Everything one case run produces.
#[derive(Debug, Default)]
pub struct CaseOutcome {
    /// Cells offered by the trace.
    pub cells: usize,
    /// Cells the PPS delivered.
    pub delivered: u64,
    /// Cells dropped at dispatch or flushed by plane failures.
    pub dropped: u64,
    /// Cells the resequencer watchdog skipped past.
    pub skipped: u64,
    /// Cells arriving after the watchdog gave up on them.
    pub late_dropped: u64,
    /// Last executed slot.
    pub end_slot: Slot,
    /// All oracle violations, sorted by (slot, kind, detail).
    pub violations: Vec<OracleViolation>,
    /// Fatal engine error, if the PPS rejected the run mid-flight.
    pub engine_error: Option<(Slot, String)>,
    /// The recorded event stream (kept on failure or on request).
    pub events: Option<Vec<Event>>,
}

impl CaseOutcome {
    /// Did any oracle or the engine itself object?
    pub fn failed(&self) -> bool {
        self.engine_error.is_some() || !self.violations.is_empty()
    }

    /// The failure signature: the earliest violation's kind, or
    /// [`FailureKind::EngineError`] if the engine died first.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match (&self.engine_error, self.violations.first()) {
            (Some((err_slot, _)), Some(v)) if v.slot <= *err_slot => {
                Some(FailureKind::Oracle(v.kind))
            }
            (Some(_), _) => Some(FailureKind::EngineError),
            (None, Some(v)) => Some(FailureKind::Oracle(v.kind)),
            (None, None) => None,
        }
    }

    /// Slot of the first failure (violation or engine error).
    pub fn failure_slot(&self) -> Option<Slot> {
        let v = self.violations.first().map(|v| v.slot);
        let e = self.engine_error.as_ref().map(|(s, _)| *s);
        match (v, e) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The comparison crossbar's scheduler, drawn per case from its seed
/// ([`ChaosCase::crossbar_sched`]) so the campaign exercises the whole
/// scheduler zoo in lockstep, not just iSLIP.
fn comparison_scheduler(case: &ChaosCase) -> Box<dyn CrossbarScheduler> {
    match case.crossbar_sched() {
        CrossbarChoice::Islip => Box::new(IslipArbiter::new(case.n, CROSSBAR_ITERATIONS)),
        CrossbarChoice::QpsR(r) => Box::new(QpsRScheduler::new(case.n, r, case.seed ^ 0x9B5)),
        CrossbarChoice::SwQps(w) => Box::new(SwQpsScheduler::new(case.n, w, case.seed ^ 0x5109)),
    }
}

/// A PPS built for `case`, or the engine error that refused it.
type EngineUnderTest<S> = Result<Pps<S>, ModelError>;

/// Attach the case's fault plan to a fresh PPS.
fn armed<S: InputStage>(pps: EngineUnderTest<S>, case: &ChaosCase) -> EngineUnderTest<S> {
    let mut pps = pps?;
    pps.set_fault_plan_shared(Arc::new(case.plan.clone()))?;
    Ok(pps)
}

/// Build the engine shape the case calls for and run it in lockstep with
/// the three comparison engines.
fn run_engines(case: &ChaosCase, opts: RunOpts, cells: &[Cell]) -> (CaseOutcome, RunLog, RunLog) {
    let ChaosCase { n, k, r_prime, .. } = *case;
    if case.buffer == 0 {
        let demux = case.demux.build_bufferless(n, k, r_prime, case.seed);
        let pps = BufferlessPps::new(case.config(), demux);
        lockstep(case, opts, cells, armed(pps, case))
    } else {
        let demux = case.demux.build_buffered(n, k, r_prime);
        let pps = BufferedPps::new(case.config(), demux);
        lockstep(case, opts, cells, armed(pps, case))
    }
}

/// Run one case through all four engines and every oracle.
pub fn run_case(case: &ChaosCase, opts: RunOpts) -> CaseOutcome {
    let trace = case.trace();
    let cells = trace.cells(case.n);

    let ((mut outcome, pps_log, oq_log), log) =
        telemetry::collect(format!("chaos/{}", case.index), || {
            run_engines(case, opts, &cells)
        });

    // Fold the stream oracles over everything the run recorded. A single
    // scope was active, so flatten() yields one chronological stream.
    let events: Vec<Event> = log
        .flatten()
        .iter()
        .flat_map(|(_, es)| es.iter().copied())
        .collect();
    let cfg = StreamOracleConfig {
        n: case.n,
        k: case.k,
        r_prime: case.r_prime,
        info_delay: case.demux.info_delay(),
        plan: Some(&case.plan),
        check_down_dispatch: case.demux.info_delay().is_some() && case.buffer == 0,
        // With recording off there are no WatchdogDrop events to reconcile.
        expected_skipped: if events.is_empty() {
            None
        } else {
            Some(outcome.skipped)
        },
    };
    outcome.violations.extend(check_stream(&events, &cfg));

    // Per-flow order and causality on every engine's run log.
    for log in [&pps_log, &oq_log] {
        outcome.violations.extend(oracle::check_flow_order(log));
        outcome.violations.extend(oracle::check_causality(log));
    }

    // Paper bound: relative delay vs the shadow OQ, for cases where the
    // Section 3 envelope is actually a theorem (see the eligibility doc).
    if case.relative_delay_eligible() {
        let b = min_burstiness(&trace, case.n).overall();
        let bound = (case.r_prime as u64) * (case.n as u64 + case.k as u64 + b) + 64;
        outcome
            .violations
            .extend(oracle::check_relative_delay(&pps_log, &oq_log, bound));
    }

    outcome
        .violations
        .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    if opts.keep_events || outcome.failed() {
        outcome.events = Some(events);
    }
    outcome
}

/// The slot loop proper. Returns the outcome skeleton plus the PPS and OQ
/// run logs (the crossbar/CIOQ logs are checked inside and dropped — only
/// the PPS/OQ pair feeds the relative-delay oracle).
fn lockstep<S: InputStage>(
    case: &ChaosCase,
    opts: RunOpts,
    cells: &[Cell],
    engine: EngineUnderTest<S>,
) -> (CaseOutcome, RunLog, RunLog) {
    let mut outcome = CaseOutcome {
        cells: cells.len(),
        ..CaseOutcome::default()
    };

    let mut pps_log = RunLog::with_cells(cells);
    let mut oq_log = RunLog::with_cells(cells);
    let mut xbar_log = RunLog::with_cells(cells);
    let mut cioq_log = RunLog::with_cells(cells);

    let mut engine = match engine {
        Ok(e) => e,
        Err(e) => {
            outcome.engine_error = Some((0, e.to_string()));
            return (outcome, pps_log, oq_log);
        }
    };
    for _ in 0..opts.inject_leak {
        engine.inject_conservation_leak();
    }
    let mut oq = ShadowOq::new(case.n);
    let mut xbar = CrossbarSwitch::with_scheduler(comparison_scheduler(case));
    let speedup = opts.force_cioq_speedup.unwrap_or(CIOQ_SPEEDUP);
    let mut cioq = CioqSwitch::with_policy(case.n, speedup, case.cioq_policy());

    // Hard ceiling on run length: arrivals plus a full serialized drain of
    // every cell would still finish well inside this.
    let cap = case.horizon
        + (cells.len() as Slot + 1) * (case.r_prime as Slot + 1)
        + case.plan.horizon()
        + 512;

    let mut now: Slot = 0;
    let mut next = 0usize; // cursor into cells (sorted by arrival slot)
    let mut arrivals_so_far = 0u64;
    let mut last_progress: Slot = 0;
    let mut last_other_backlog = 0usize;
    let stepping = opts.force_stepping.unwrap_or_else(|| case.stepping());

    loop {
        let start = next;
        while next < cells.len() && cells[next].arrival == now {
            next += 1;
        }
        let scratch = &cells[start..next];
        arrivals_so_far += scratch.len() as u64;

        if let Err(e) = engine.slot(now, scratch, &mut pps_log) {
            outcome.engine_error = Some((now, e.to_string()));
            break;
        }
        oq.slot(now, scratch, &mut oq_log);
        xbar.slot(now, scratch, &mut xbar_log);
        cioq.slot(now, scratch, &mut cioq_log);

        // Per-slot PPS-side oracles: the conservation ledger and the cell
        // pool reconciliation. Stop at the first hit — everything after a
        // broken ledger is noise, and the shrinker wants the earliest slot.
        let stats = engine.fabric().stats();
        let departed = engine.fabric().departed();
        let ledger = ConservationLedger {
            arrivals: arrivals_so_far,
            departures: departed,
            backlog: engine.backlog() as u64,
            dropped: stats.dropped,
            late_dropped: stats.late_dropped,
        };
        let pool_len = engine.fabric().pool().len() as u64;
        if let Some(v) = ledger
            .check(now)
            .or_else(|| oracle::check_pool_occupancy(pool_len, arrivals_so_far, now))
        {
            outcome.violations.push(v);
            break;
        }

        let other_backlog = oq.backlog() + xbar.backlog() + cioq.backlog();
        if !scratch.is_empty() || departed > outcome.delivered || other_backlog < last_other_backlog
        {
            last_progress = now;
        }
        last_other_backlog = other_backlog;
        outcome.delivered = departed;

        let active = next < cells.len()
            || engine.backlog() > 0
            || oq.backlog() > 0
            || xbar.backlog() > 0
            || cioq.backlog() > 0;
        if !active || now >= cap || now.saturating_sub(last_progress) > STALL_WINDOW {
            break;
        }
        now += 1;

        if stepping == Stepping::SkipAhead {
            // Jump to wherever dense would next do or decide anything: the
            // next arrival, the earliest component activity, or the first
            // slot at which a break condition above could fire (the cap or
            // the stall window). Landing exactly there keeps end_slot and
            // every per-slot check identical to the dense walk.
            let limit = cap.min(last_progress + STALL_WINDOW + 1);
            let next_arrival = cells.get(next).map_or(Slot::MAX, |c| c.arrival);
            let wake = earliest_of([
                engine.next_activity(now - 1),
                oq.next_activity(now - 1),
                xbar.next_activity(now - 1),
                cioq.next_activity(now - 1),
            ]);
            let target = next_arrival.min(wake.unwrap_or(Slot::MAX));
            let stop = target.min(limit);
            if stop > now {
                // Each engine replays (or just meters) the stretch itself.
                engine.skip_idle(now, stop - 1);
                oq.skip_idle(now, stop - 1);
                xbar.skip_idle(now, stop - 1);
                cioq.skip_idle(now, stop - 1);
                now = stop;
            }
        }
    }

    let stats = engine.fabric().stats();
    outcome.delivered = engine.fabric().departed();
    outcome.dropped = stats.dropped;
    outcome.skipped = stats.skipped;
    outcome.late_dropped = stats.late_dropped;
    outcome.end_slot = now;

    // End-of-run conservation for the fault-free comparison engines:
    // whatever the log says was never delivered must still be queued.
    // Only meaningful when the run fed every arrival and stopped on its
    // own — a per-slot violation or engine error aborts mid-stream, and
    // the leftover cells are the abort's doing, not the engines'.
    let clean_stop =
        outcome.engine_error.is_none() && outcome.violations.is_empty() && next == cells.len();
    for (name, log, backlog) in [
        ("shadow-oq", &oq_log, oq.backlog()),
        ("crossbar", &xbar_log, xbar.backlog()),
        ("cioq", &cioq_log, cioq.backlog()),
    ] {
        if !clean_stop {
            break;
        }
        if log.undelivered() != backlog {
            outcome.violations.push(OracleViolation {
                kind: OracleKind::Conservation,
                slot: now,
                detail: format!(
                    "{name}: {} cells unaccounted (log undelivered {} vs backlog {backlog})",
                    log.undelivered().abs_diff(backlog),
                    log.undelivered(),
                ),
            });
        }
    }
    for log in [&xbar_log, &cioq_log] {
        outcome.violations.extend(oracle::check_flow_order(log));
        outcome.violations.extend(oracle::check_causality(log));
    }

    (outcome, pps_log, oq_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ChaosCase;

    #[test]
    fn clean_case_has_no_violations() {
        let case = ChaosCase::generate(42, 0, 64);
        let out = run_case(&case, RunOpts::default());
        assert_eq!(out.engine_error, None);
        assert!(
            out.violations.is_empty(),
            "unexpected violations: {:?}",
            out.violations
        );
        assert!(out.cells > 0);
    }

    #[test]
    fn stochastic_cases_run_clean() {
        // One Zipf and one MMPP case, fault-free so every oracle that can
        // be armed is armed, each through the full four-engine lockstep.
        use crate::case::TrafficChoice;
        let mut ran = (false, false);
        for i in 0..512 {
            let case = ChaosCase::generate(1337, i, 96);
            if !case.plan.is_empty() {
                continue;
            }
            let slot = match case.traffic {
                TrafficChoice::Zipf { .. } if !ran.0 => &mut ran.0,
                TrafficChoice::Mmpp { .. } if !ran.1 => &mut ran.1,
                _ => continue,
            };
            *slot = true;
            let out = run_case(&case, RunOpts::default());
            assert_eq!(out.engine_error, None, "case {i}");
            assert!(out.violations.is_empty(), "case {i}: {:?}", out.violations);
            assert!(out.cells > 0, "case {i} generated no cells");
            if ran.0 && ran.1 {
                return;
            }
        }
        panic!("corpus lacked fault-free stochastic cases: {ran:?}");
    }

    #[test]
    fn cioq_speedup_by_fault_pulse_stays_clean() {
        // Satellite of the scheduler-zoo PR: a PlaneDown/LinkDegraded
        // pulse mid-run must keep the conservation ledger and the watchdog
        // accounting clean at CIOQ speedup 1 *and* 2, under both matching
        // policies (the policy is a seed draw, so scan for one seed per
        // policy) and both stepping modes.
        use crate::case::{DemuxChoice, TrafficChoice};
        use pps_core::fault::FaultPlan;
        use pps_core::OutputDiscipline;
        use pps_traffic::gen::TrafficPattern;

        let pulse_case = |seed: u64| ChaosCase {
            index: 0,
            seed,
            n: 8,
            k: 4,
            r_prime: 2,
            buffer: 0,
            discipline: OutputDiscipline::FlowFifo,
            watchdog: Some(10),
            demux: DemuxChoice::FaultAwareCentralized,
            traffic: TrafficChoice::Bernoulli {
                pattern: TrafficPattern::Uniform,
            },
            load_millis: 600,
            horizon: 128,
            plan: FaultPlan::new()
                .plane_down(1, 40)
                .plane_up(1, 72)
                .link_degraded(2, 0, 48, 56),
            truncate_at: None,
        };

        // One seed per CIOQ matching policy.
        let mut seeds = std::collections::HashMap::new();
        for s in 0..64u64 {
            seeds.entry(pulse_case(s).cioq_policy()).or_insert(s);
            if seeds.len() == 2 {
                break;
            }
        }
        assert_eq!(seeds.len(), 2, "no seed drew the second policy");

        for (&policy, &seed) in &seeds {
            let case = pulse_case(seed);
            for speedup in [1usize, 2] {
                let mut tallies = Vec::new();
                for stepping in [Stepping::Dense, Stepping::SkipAhead] {
                    let out = run_case(
                        &case,
                        RunOpts {
                            force_cioq_speedup: Some(speedup),
                            force_stepping: Some(stepping),
                            ..RunOpts::default()
                        },
                    );
                    assert_eq!(out.engine_error, None, "{policy:?} s={speedup}");
                    assert!(
                        out.violations.is_empty(),
                        "{policy:?} s={speedup} {stepping:?}: {:?}",
                        out.violations
                    );
                    // The pulse actually bit (the downed plane flushed
                    // cells) and every cell is accounted for at the end:
                    // delivered, dropped at the flush, or dropped late by
                    // the watchdog — nothing stranded in a backlog.
                    assert!(out.dropped > 0, "{policy:?} s={speedup}: pulse missed");
                    assert_eq!(
                        out.delivered + out.dropped + out.late_dropped,
                        out.cells as u64,
                        "{policy:?} s={speedup} {stepping:?}: watchdog accounting leaked"
                    );
                    tallies.push((
                        out.delivered,
                        out.dropped,
                        out.skipped,
                        out.late_dropped,
                        out.end_slot,
                    ));
                }
                assert_eq!(
                    tallies[0], tallies[1],
                    "{policy:?} s={speedup}: dense != skip"
                );
            }
        }
    }

    #[test]
    fn buffered_zoo_cases_run_clean() {
        // The step-8 remap introduces stale and delayed-CPA buffered
        // automata; every such case in a campaign-sized corpus must pass
        // the full four-engine lockstep.
        let mut seen = (0, 0);
        for i in 0..768 {
            let case = ChaosCase::generate(21, i, 96);
            match case.demux {
                crate::case::DemuxChoice::BufferedStale(..) => seen.0 += 1,
                crate::case::DemuxChoice::DelayedCpa(_) => seen.1 += 1,
                _ => continue,
            }
            let out = run_case(&case, RunOpts::default());
            assert_eq!(out.engine_error, None, "case {i} ({})", case.demux.name());
            assert!(
                out.violations.is_empty(),
                "case {i} ({}): {:?}",
                case.demux.name(),
                out.violations
            );
            if seen.0 >= 8 && seen.1 >= 1 {
                return;
            }
        }
        panic!("corpus lacked buffered-zoo cases: {seen:?}");
    }

    #[test]
    fn injected_leak_trips_conservation() {
        // The leak hook fires in the plane-failure flush path, so it needs
        // a case whose downed plane holds cells at the failure slot — scan
        // generated cases until one trips (the vast majority of PlaneDown
        // cases under load do).
        let tripped = (0..512)
            .map(|i| ChaosCase::generate(7, i, 96))
            .filter(|c| {
                c.buffer == 0
                    && c.plan
                        .events()
                        .iter()
                        .any(|e| matches!(e, pps_core::FaultEvent::PlaneDown { .. }))
            })
            .take(16)
            .any(|case| {
                let out = run_case(
                    &case,
                    RunOpts {
                        inject_leak: 1,
                        ..RunOpts::default()
                    },
                );
                out.failure_kind() == Some(FailureKind::Oracle(OracleKind::Conservation))
            });
        assert!(tripped, "no scanned case tripped the injected leak");
    }
}
