//! Lockstep four-engine execution of one chaos case.
//!
//! Every case drives the PPS under test, the shadow output-queued switch,
//! the crossbar (scheduler drawn per case from the zoo — iSLIP, QPS-r or
//! SW-QPS) and the CIOQ switch (policy drawn per case) through the *same*
//! arrival stream slot by slot. The four are one [`SlotEngine`]
//! (`Lockstep`) run by the production driver, [`stepping::drive`], in its
//! product mode (skip-ahead) — so every case also fuzzes the driver's own
//! skip-ahead arithmetic and arms its missed-wake oracle over all four
//! engines. The PPS-side conservation ledger runs every slot (so a
//! violation is caught at the slot it happens, not at the end); the
//! event-stream, flow-order and
//! relative-delay oracles fold over the run once it finishes.
//!
//! Run cases on a sink at [`Level::Full`](pps_core::telemetry::Level::Full)
//! — the stream oracles fold over the case's event log and see nothing
//! otherwise (a campaign records at `full` whatever its caller's level).

use crate::case::{ChaosCase, CrossbarChoice};
use crate::oracle::{check_stream, StreamOracleConfig};
use pps_core::oracle::{self, ConservationLedger, OracleKind, OracleViolation};
use pps_core::run::Sink;
use pps_core::stepping::{self, earliest_of, SlotEngine};
use pps_core::telemetry::Event;
use pps_core::{Cell, ModelError, RunLog, Slot, Trace};
use pps_crossbar::{
    CioqSwitch, CrossbarScheduler, CrossbarSwitch, IslipArbiter, QpsRScheduler, SwQpsScheduler,
};
use pps_reference::ShadowOq;
use pps_switch::{BufferedPps, BufferlessPps, InputStage, Pps};

/// iSLIP iteration count / CIOQ speedup for the comparison engines (the
/// scheduler and matching policy themselves are per-case draws).
const CROSSBAR_ITERATIONS: usize = 2;
const CIOQ_SPEEDUP: usize = 2;

/// Stop the run after this many slots without a single departure
/// or pending arrival anywhere — the signature of a watchdog-less PPS
/// stalled on a cell lost to a failed plane (a legal outcome, not a
/// violation: the backlog stays accounted for).
const STALL_WINDOW: Slot = 1024;

/// Knobs of one [`run_case`] invocation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunOpts {
    /// Keep the telemetry event stream in the outcome even when no oracle
    /// fires (the repro writer wants it; bulk fuzzing does not).
    pub keep_events: bool,
    /// Arm the test-only conservation-leak hook this many times before
    /// the run (each armed leak swallows one cell of a plane-failure
    /// flush without accounting for it). Used to prove the harness
    /// catches and shrinks a real conservation bug; 0 in normal runs.
    pub inject_leak: u32,
    /// Pin the comparison CIOQ switch's speedup instead of the default
    /// (2). Used by the speedup × fault interaction tests; `None` in
    /// normal campaigns.
    pub force_cioq_speedup: Option<usize>,
}

/// How a failed case failed — the signature the shrinker preserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FailureKind {
    /// An invariant oracle fired.
    Oracle(OracleKind),
    /// The engine itself rejected the run (constraint violation, overflow).
    EngineError,
}

/// Everything one case run produces.
#[derive(Debug, Default)]
pub(crate) struct CaseOutcome {
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
    pub(crate) fn failed(&self) -> bool {
        self.engine_error.is_some() || !self.violations.is_empty()
    }

    /// The failure signature: the earliest violation's kind, or
    /// [`FailureKind::EngineError`] if the engine died first.
    pub(crate) fn failure_kind(&self) -> Option<FailureKind> {
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
    pub(crate) fn failure_slot(&self) -> Option<Slot> {
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

/// Build the engine shape the case calls for and drive it in lockstep with
/// the three comparison engines. `Err` when the PPS refuses the case's
/// configuration or fault plan.
fn run_engines(
    case: &ChaosCase,
    opts: RunOpts,
    trace: &Trace,
    sink: &Sink,
) -> Result<(CaseOutcome, RunLog, RunLog), ModelError> {
    let ChaosCase { n, k, r_prime, .. } = *case;
    if case.buffer == 0 {
        let demux = case.demux.build_bufferless(n, k, r_prime, case.seed);
        let pps = BufferlessPps::new_in(case.config(), demux, sink)?;
        lockstep(case, opts, trace, pps, sink)
    } else {
        let demux = case.demux.build_buffered(n, k, r_prime);
        let pps = BufferedPps::new_in(case.config(), demux, sink)?;
        lockstep(case, opts, trace, pps, sink)
    }
}

/// Run one case through all four engines and every oracle, as a part of
/// the run `sink` records (its stepping mode; its level, which must be
/// `full` for the stream oracles to see anything).
pub(crate) fn run_case(case: &ChaosCase, opts: RunOpts, sink: &Sink) -> CaseOutcome {
    let trace = case.trace();

    let (run, log) = sink.scope(
        || format!("chaos/{}", case.index),
        |sink| run_engines(case, opts, &trace, sink),
    );
    // A refused case ran no engine: an error at slot 0 and two empty logs.
    let (mut outcome, pps_log, oq_log) = run.unwrap_or_else(|e| {
        let refused = CaseOutcome {
            engine_error: Some((0, e.to_string())),
            ..CaseOutcome::default()
        };
        (refused, RunLog::default(), RunLog::default())
    });
    outcome.cells = trace.len();

    // Fold the stream oracles over everything the run recorded. The four
    // engines shared one ring, so flatten() yields one chronological
    // stream.
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

    // Per-flow order on every engine's run log. A log cannot hold a
    // departure before its cell's arrival, nor a second one: recording it
    // panics (`RunLog::set_departure`), and the stream oracle above
    // re-checks both over the events.
    for log in [&pps_log, &oq_log] {
        outcome.violations.extend(oracle::check_flow_order(log));
    }

    // Paper bounds: relative delay vs the shadow OQ, on the cases whose
    // premise a bound covers.
    if let Some(bound) = case.relative_delay_bound(&trace) {
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

/// The four engines of one case as a single [`SlotEngine`] under
/// [`stepping::drive`]: a slot feeds the same arrivals to the PPS, the
/// shadow OQ, the crossbar and the CIOQ switch, in that order, then runs
/// the per-slot oracles and the progress bookkeeping. The comparison
/// engines are thus stepped on slots only the PPS (or the stall deadline)
/// asked for — waking an engine early must be harmless, which is what
/// lockstep tests and four separate runs would not.
///
/// The PPS writes into the driver's log; the other three logs live here.
/// Whatever ends the run early — an engine error, a per-slot violation, a
/// stall — latches `stopped_at`: from then on the engines are left alone
/// and report nothing, so the driver only hands over the remaining
/// arrivals, and each becomes an undelivered record in all four logs.
struct Lockstep<S> {
    pps: Pps<S>,
    oq: ShadowOq,
    xbar: CrossbarSwitch<Box<dyn CrossbarScheduler>>,
    cioq: CioqSwitch,
    oq_log: RunLog,
    xbar_log: RunLog,
    cioq_log: RunLog,
    /// Cells fed to the engines so far.
    fed: u64,
    /// Summed backlog of the comparison engines as of the last slot.
    other_backlog: usize,
    /// Last slot with an arrival or a departure anywhere.
    last_progress: Slot,
    /// The slot that ended the run early, if one did.
    stopped_at: Option<Slot>,
    /// `delivered` is kept current every slot; the engine error or
    /// per-slot violation that stops the run lands here too.
    outcome: CaseOutcome,
}

impl<S: InputStage> SlotEngine for Lockstep<S> {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        for cell in arrivals {
            self.oq_log.push(cell);
            self.xbar_log.push(cell);
            self.cioq_log.push(cell);
        }
        if self.stopped_at.is_some() {
            return Ok(());
        }
        self.fed += arrivals.len() as u64;

        if let Err(e) = self.pps.slot(now, arrivals, log) {
            self.outcome.engine_error = Some((now, e.to_string()));
            self.stopped_at = Some(now);
            return Ok(());
        }
        self.oq.slot(now, arrivals, &mut self.oq_log);
        self.xbar.slot(now, arrivals, &mut self.xbar_log);
        self.cioq.slot(now, arrivals, &mut self.cioq_log);

        // The per-slot PPS-side oracle: the conservation ledger. Stop at
        // the first hit — everything after a broken ledger is noise, and
        // the shrinker wants the earliest slot.
        let fabric = self.pps.fabric();
        let (stats, departed) = (fabric.stats(), fabric.departed());
        let ledger = ConservationLedger {
            arrivals: self.fed,
            departures: departed,
            backlog: self.pps.backlog() as u64,
            dropped: stats.dropped,
            late_dropped: stats.late_dropped,
        };
        if let Some(v) = ledger.check(now) {
            self.outcome.violations.push(v);
            self.stopped_at = Some(now);
            return Ok(());
        }

        let other_backlog = self.oq.backlog() + self.xbar.backlog() + self.cioq.backlog();
        if !arrivals.is_empty()
            || departed > self.outcome.delivered
            || other_backlog < self.other_backlog
        {
            self.last_progress = now;
        }
        self.other_backlog = other_backlog;
        self.outcome.delivered = departed;
        if now - self.last_progress > STALL_WINDOW {
            self.stopped_at = Some(now);
        }
        Ok(())
    }

    fn backlog(&self) -> usize {
        if self.stopped_at.is_some() {
            return 0;
        }
        // Asked afresh, not `other_backlog`: the driver's oracle compares
        // this across `skip_idle`, for all four engines.
        self.pps.backlog() + self.oq.backlog() + self.xbar.backlog() + self.cioq.backlog()
    }

    /// The earliest of the four engines' wake-ups and the stall deadline,
    /// the first slot at which the stall check in `slot` could fire.
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        if self.stopped_at.is_some() {
            return None;
        }
        earliest_of([
            self.pps.next_activity(now),
            self.oq.next_activity(now),
            self.xbar.next_activity(now),
            self.cioq.next_activity(now),
            Some(self.last_progress + STALL_WINDOW + 1),
        ])
    }

    fn skip_idle(&mut self, from: Slot, to: Slot) {
        if self.stopped_at.is_none() {
            self.pps.skip_idle(from, to);
            self.oq.skip_idle(from, to);
            self.xbar.skip_idle(from, to);
            self.cioq.skip_idle(from, to);
        }
    }
}

/// Drive the four engines over `trace` and fold the run into the outcome
/// skeleton plus the PPS and OQ run logs (the crossbar/CIOQ logs are
/// checked here and dropped — only the PPS/OQ pair feeds the
/// relative-delay oracle).
fn lockstep<S: InputStage>(
    case: &ChaosCase,
    opts: RunOpts,
    trace: &Trace,
    mut pps: Pps<S>,
    sink: &Sink,
) -> Result<(CaseOutcome, RunLog, RunLog), ModelError> {
    pps.set_fault_plan(&case.plan)?;
    for _ in 0..opts.inject_leak {
        pps.inject_conservation_leak();
    }
    let speedup = opts.force_cioq_speedup.unwrap_or(CIOQ_SPEEDUP);
    let mut engines = Lockstep {
        pps,
        oq: ShadowOq::new_in(case.n, sink),
        xbar: CrossbarSwitch::with_scheduler(comparison_scheduler(case), sink),
        cioq: CioqSwitch::with_policy(case.n, speedup, case.cioq_policy(), sink),
        oq_log: RunLog::new(trace),
        xbar_log: RunLog::new(trace),
        cioq_log: RunLog::new(trace),
        fed: 0,
        other_backlog: 0,
        last_progress: 0,
        stopped_at: None,
        outcome: CaseOutcome::default(),
    };

    // Hard ceiling on run length: arrivals plus a full serialized drain of
    // every cell would still finish well inside this.
    let cap = case.horizon
        + (trace.len() as Slot + 1) * (case.r_prime as Slot + 1)
        + case.plan.horizon()
        + 512;
    // Never `Err`: `Lockstep::slot` records an engine error and stops.
    let mode = sink.spec().stepping;
    let (pps_log, end) = stepping::drive(&mut engines, trace, case.n, cap, mode)?;

    let mut outcome = engines.outcome;
    let stats = engines.pps.fabric().stats();
    outcome.delivered = engines.pps.fabric().departed();
    outcome.dropped = stats.dropped;
    outcome.skipped = stats.skipped;
    outcome.late_dropped = stats.late_dropped;
    // The last executed slot: where the run was stopped, else the slot
    // before the one the driver ended on.
    outcome.end_slot = engines.stopped_at.unwrap_or(end.saturating_sub(1));

    // End-of-run conservation for the fault-free comparison engines:
    // whatever the log says was never delivered must still be queued.
    // Only meaningful when the run fed every arrival and stopped on its
    // own — a per-slot violation or engine error aborts mid-stream, and
    // the leftover cells are the abort's doing, not the engines'.
    if !outcome.failed() && engines.fed == trace.len() as u64 {
        for (name, log, backlog) in [
            ("shadow-oq", &engines.oq_log, engines.oq.backlog()),
            ("crossbar", &engines.xbar_log, engines.xbar.backlog()),
            ("cioq", &engines.cioq_log, engines.cioq.backlog()),
        ] {
            if log.undelivered() != backlog {
                outcome.violations.push(OracleViolation {
                    kind: OracleKind::Conservation,
                    slot: outcome.end_slot,
                    detail: format!(
                        "{name}: {} cells unaccounted (log undelivered {} vs backlog {backlog})",
                        log.undelivered().abs_diff(backlog),
                        log.undelivered(),
                    ),
                });
            }
        }
    }
    for log in [&engines.xbar_log, &engines.cioq_log] {
        outcome.violations.extend(oracle::check_flow_order(log));
    }

    Ok((outcome, pps_log, engines.oq_log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ChaosCase;
    use pps_core::run::RunSpec;
    use pps_core::Stepping;

    #[test]
    fn clean_case_has_no_violations() {
        let case = ChaosCase::generate(42, 0, 64);
        let out = run_case(&case, RunOpts::default(), &Sink::default());
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
            let out = run_case(&case, RunOpts::default(), &Sink::default());
            assert_eq!(out.engine_error, None, "case {i}");
            assert!(out.violations.is_empty(), "case {i}: {:?}", out.violations);
            assert!(out.cells > 0, "case {i} generated no cells");
            if ran.0 && ran.1 {
                return;
            }
        }
        panic!("corpus lacked fault-free stochastic cases: {ran:?}");
    }

    /// Theorem 12 on random traffic: the generated fault-free delayed-CPA
    /// cases are held to relative delay ≤ `u` and run clean (a delayed CPA
    /// that holds `u + 1` fails here).
    #[test]
    fn fault_free_delayed_cpa_cases_hold_theorem_12() {
        use crate::case::DemuxChoice;
        const CASES: usize = 16;
        let mut ran = 0;
        for i in 0..40_000 {
            let case = ChaosCase::generate(12, i, 256);
            let DemuxChoice::DelayedCpa(u) = case.demux else {
                continue;
            };
            if !case.plan.is_empty() {
                continue;
            }
            assert_eq!(case.relative_delay_bound(&case.trace()), Some(u));
            let out = run_case(&case, RunOpts::default(), &Sink::default());
            assert_eq!(out.engine_error, None, "case {i}");
            assert!(out.violations.is_empty(), "case {i}: {:?}", out.violations);
            assert!(out.delivered > 0, "case {i} delivered nothing");
            ran += 1;
            if ran == CASES {
                return;
            }
        }
        panic!("corpus had {ran} fault-free delayed-CPA cases, not {CASES}");
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
                    let sink = Sink::new(RunSpec {
                        stepping,
                        ..RunSpec::default()
                    });
                    let opts = RunOpts {
                        force_cioq_speedup: Some(speedup),
                        ..RunOpts::default()
                    };
                    let out = run_case(&case, opts, &sink);
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
            let out = run_case(&case, RunOpts::default(), &Sink::default());
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
                let opts = RunOpts {
                    inject_leak: 1,
                    ..RunOpts::default()
                };
                let out = run_case(&case, opts, &Sink::default());
                out.failure_kind() == Some(FailureKind::Oracle(OracleKind::Conservation))
            });
        assert!(tripped, "no scanned case tripped the injected leak");
    }
}
