//! The VOQ input-queued crossbar switch, generic over its scheduler.

use crate::islip::IslipArbiter;
use crate::occupancy::Voqs;
use crate::scheduler::CrossbarScheduler;
use pps_core::prelude::*;
use pps_core::stepping::{self, SlotEngine};
use pps_core::telemetry::{Engine, EventKind};

/// An `N × N` input-queued crossbar with per-input VOQs and a pluggable
/// matching scheduler (iSLIP by default), running at the external rate `R`
/// (one matching per slot, one cell per matched pair per slot).
#[derive(Clone, Debug)]
pub struct CrossbarSwitch<S: CrossbarScheduler = IslipArbiter> {
    n: usize,
    /// The VOQs, holding bare cell ids (the matching only needs occupancy,
    /// the departure only the id), and the occupancy index the scheduler
    /// reads.
    voqs: Voqs<CellId>,
    scheduler: S,
    /// Scratch matching written by the scheduler each slot.
    matching: Vec<Option<usize>>,
    /// The run's telemetry gate and meters.
    sink: Sink,
}

impl CrossbarSwitch<IslipArbiter> {
    /// An idle `n × n` crossbar with an `iterations`-round iSLIP arbiter,
    /// recording into `sink`.
    pub fn new(n: usize, iterations: usize, sink: &Sink) -> Self {
        CrossbarSwitch::with_scheduler(IslipArbiter::new(n, iterations), sink)
    }
}

impl<S: CrossbarScheduler> CrossbarSwitch<S> {
    /// An idle crossbar driven by `scheduler`, with as many ports as it
    /// schedules, recording into `sink`.
    pub fn with_scheduler(scheduler: S, sink: &Sink) -> Self {
        let n = scheduler.n();
        CrossbarSwitch {
            n,
            voqs: Voqs::new(n),
            scheduler,
            matching: vec![None; n],
            sink: sink.clone(),
        }
    }

    /// Advance one slot: enqueue arrivals into their VOQs, compute the
    /// matching, and transfer matched head cells (which depart this slot —
    /// the crossbar is output-unbuffered at speedup 1).
    pub fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        self.sink.slots(1);
        for cell in arrivals {
            debug_assert_eq!(cell.arrival, now);
            self.sink
                .record(Engine::Crossbar, now, || EventKind::Arrival {
                    cell: cell.id,
                    input: cell.input,
                    output: cell.output,
                });
            self.voqs.push(cell.input.idx(), cell.output.idx(), cell.id);
        }
        self.matching.fill(None);
        self.scheduler
            .schedule(now, self.voqs.occupancy(), &mut self.matching);
        for i in 0..self.n {
            if let Some(j) = self.matching[i] {
                let id = self
                    .voqs
                    .pop(i, j)
                    .expect("scheduler only matches occupied VOQs");
                self.sink
                    .record(Engine::Crossbar, now, || EventKind::Depart {
                        cell: id,
                        output: PortId(j as u32),
                    });
                log.set_departure(id, now);
            }
        }
        #[cfg(debug_assertions)]
        self.voqs.assert_in_sync();
    }

    /// Cells currently queued at the inputs.
    pub fn backlog(&self) -> usize {
        self.voqs.occupancy().backlog()
    }

    /// The next slot strictly after `now` at which the switch does
    /// anything, ignoring future arrivals. Delegates to the scheduler's
    /// wake formula; for every discipline in the zoo that is `now + 1`
    /// with backlog and quiescent without — an all-empty occupancy matrix
    /// grants nothing, draws nothing, and moves no pointers.
    pub fn next_activity(&self, now: Slot) -> Option<Slot> {
        self.scheduler.next_activity(now, self.backlog())
    }

    /// The scheduler driving the fabric (for state-digest assertions).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }
}

impl<S: CrossbarScheduler> SlotEngine for CrossbarSwitch<S> {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        CrossbarSwitch::slot(self, now, arrivals, log);
        Ok(())
    }

    fn backlog(&self) -> usize {
        CrossbarSwitch::backlog(self)
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        CrossbarSwitch::next_activity(self, now)
    }

    /// An empty crossbar slot moves no state, so an idle stretch is only
    /// metered: as skipped instead of simulated.
    fn skip_idle(&mut self, from: Slot, to: Slot) {
        self.sink.skipped(to - from + 1);
    }
}

/// Livelock cap shared by the crossbar and CIOQ runs: every cell serialized
/// through one port plus slack, saturating so a trace parked near
/// `Slot::MAX` gets an unreachable cap rather than a wrapped one.
pub(crate) fn drain_cap(trace: &Trace, n: usize) -> Slot {
    (trace.len() as Slot + 2)
        .saturating_mul(n as Slot)
        .saturating_add(trace.horizon())
        .saturating_add(64)
}

/// [`run_crossbar_in`] under an explicit stepping mode, on the process
/// default: a shim of the benchmark seam (DESIGN.md, "The benchmark's
/// surface").
pub fn run_crossbar_with<S: CrossbarScheduler>(
    trace: &Trace,
    scheduler: S,
    mode: Stepping,
) -> (RunLog, CrossbarSwitch<S>) {
    run(trace, scheduler, mode, &pps_core::process::sink())
}

/// Run a trace through a fresh crossbar driven by `scheduler` until it
/// drains, in the run `sink` records (identical logs in either stepping
/// mode). Returns the log plus the drained switch, so callers can inspect
/// final scheduler state (the stepping-equivalence tests compare
/// [`CrossbarScheduler::state_digest`] across modes — identical logs with
/// diverged hidden state would still be a bug).
pub fn run_crossbar_in<S: CrossbarScheduler>(
    trace: &Trace,
    scheduler: S,
    sink: &Sink,
) -> (RunLog, CrossbarSwitch<S>) {
    run(trace, scheduler, sink.spec().stepping, sink)
}

fn run<S: CrossbarScheduler>(
    trace: &Trace,
    scheduler: S,
    mode: Stepping,
    sink: &Sink,
) -> (RunLog, CrossbarSwitch<S>) {
    let n = scheduler.n();
    let mut xb = CrossbarSwitch::with_scheduler(scheduler, sink);
    let (log, _) = stepping::drive(&mut xb, trace, n, drain_cap(trace, n), mode)
        .expect("a crossbar slot cannot fail");
    (log, xb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::oracle::{check_flow_order, check_work_conserving};

    fn trace(v: Vec<Arrival>, n: usize) -> Trace {
        Trace::build(v, n).unwrap()
    }

    #[test]
    fn lone_cell_departs_immediately() {
        let t = trace(vec![Arrival::new(3, 1, 2)], 4);
        let log = run_crossbar_in(&t, IslipArbiter::new(4, 1), &Sink::default()).0;
        assert_eq!(log.get(CellId(0)).delay(), Some(0));
    }

    #[test]
    fn permutation_traffic_is_eventually_zero_delay() {
        // Persistent full-load permutation: once iSLIP desynchronizes,
        // every cell departs in its arrival slot.
        let n = 4;
        let mut v = Vec::new();
        for s in 0..200u64 {
            for i in 0..n as u32 {
                v.push(Arrival::new(s, i, (i + 1) % n as u32));
            }
        }
        let log = run_crossbar_in(&trace(v, n), IslipArbiter::new(n, 1), &Sink::default()).0;
        assert_eq!(log.undelivered(), 0);
        let late: Vec<_> = log
            .records()
            .filter(|r| r.arrival > 20 && r.delay().unwrap() > 0)
            .collect();
        assert!(
            late.is_empty(),
            "desynchronized iSLIP should be zero-delay: {late:?}"
        );
    }

    #[test]
    fn flow_order_is_preserved() {
        let n = 4;
        let t = {
            let mut v = Vec::new();
            for s in 0..100u64 {
                for i in 0..n as u32 {
                    v.push(Arrival::new(s, i, (s % n as u64) as u32));
                }
            }
            trace(v, n)
        };
        let log = run_crossbar_in(&t, IslipArbiter::new(n, 2), &Sink::default()).0;
        assert_eq!(log.undelivered(), 0);
        assert!(check_flow_order(&log).is_empty());
    }

    #[test]
    fn input_contention_shows_up_as_delay_unlike_oq() {
        // All inputs persistently send to all outputs round-robin shifted
        // so each slot has full demand; compare against the OQ reference:
        // the crossbar serializes at the inputs and cannot beat OQ.
        let n = 4;
        let mut v = Vec::new();
        for s in 0..200u64 {
            for i in 0..n as u32 {
                // Two inputs aim at the same output half the time.
                v.push(Arrival::new(s, i, ((i / 2) * 2) % n as u32));
            }
        }
        let t = trace(v, n);
        let xb = run_crossbar_in(&t, IslipArbiter::new(n, 1), &Sink::default()).0;
        let oq = pps_reference::oq::run_oq_in(&t, n, &Sink::default());
        assert_eq!(xb.undelivered(), 0);
        let max_xb = xb.max_delay().unwrap();
        let max_oq = oq.max_delay().unwrap();
        assert!(max_xb >= max_oq, "crossbar {max_xb} vs oq {max_oq}");
    }

    #[test]
    fn work_conservation_can_fail_at_inputs_but_throughput_is_full_uniform() {
        // iSLIP is not work-conserving in the OQ sense (head-of-line at
        // the matching), but under uniform load it sustains throughput.
        let n = 8;
        let t = pps_traffic::gen::BernoulliGen::uniform(0.95, 3).trace(n, 2_000);
        let log = run_crossbar_in(&t, IslipArbiter::new(n, 3), &Sink::default()).0;
        assert_eq!(log.undelivered(), 0);
        // Work-conservation violations may exist; just quantify they are
        // not catastrophic (fewer than 10% of busy slots).
        let v: usize = (0..n as u32)
            .map(|j| check_work_conserving(&log, PortId(j), None).len())
            .sum();
        assert!(v < t.len() / 10, "excessive idling: {v}");
    }
}
