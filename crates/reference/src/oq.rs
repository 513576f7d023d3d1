//! The FCFS output-queued shadow switch.
//!
//! An output-queued (OQ) switch at rate `R` places every arriving cell
//! directly into its destination output's queue and emits one cell per
//! output per slot. It is work-conserving and — among work-conserving
//! switches — minimizes queuing delay, which is why the paper adopts it as
//! the reference. Matching the paper's timing conventions, a cell may
//! depart in the very slot it arrives when its output is idle.

use pps_core::prelude::*;
use pps_core::stepping::{self, SlotEngine};
use pps_core::telemetry::{Engine, EventKind};

/// A step-wise FCFS output-queued switch, usable in lockstep with a PPS on
/// the same trace.
#[derive(Clone, Debug)]
pub struct ShadowOq {
    /// Per-output FIFO queues of bare cell ids — departures only need the
    /// id (the `RunLog` keyed by it holds the metadata), so the queues
    /// never park whole `Cell` values.
    queues: Vec<FifoQueue<CellId>>,
    /// The run's telemetry gate.
    sink: Sink,
}

impl ShadowOq {
    /// An idle `n × n` OQ switch outside any run ([`Sink::detached`]).
    pub fn new(n: usize) -> Self {
        ShadowOq::new_in(n, &Sink::detached())
    }

    /// An idle `n × n` OQ switch that records into `sink`.
    pub fn new_in(n: usize, sink: &Sink) -> Self {
        ShadowOq {
            queues: (0..n).map(|_| FifoQueue::new()).collect(),
            sink: sink.clone(),
        }
    }

    /// Advance one slot: accept this slot's arrivals, then let every output
    /// emit at most one cell, recording departures into `log`.
    ///
    /// `arrivals` must all have `arrival == now`.
    pub fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        for cell in arrivals {
            debug_assert_eq!(cell.arrival, now, "arrival slot mismatch");
            self.sink
                .record(Engine::ShadowOq, now, || EventKind::Arrival {
                    cell: cell.id,
                    input: cell.input,
                    output: cell.output,
                });
            self.queues[cell.output.idx()].push(cell.id);
        }
        for (j, q) in self.queues.iter_mut().enumerate() {
            if let Some(id) = q.pop() {
                self.sink
                    .record(Engine::ShadowOq, now, || EventKind::Depart {
                        cell: id,
                        output: PortId(j as u32),
                    });
                log.set_departure(id, now);
            }
        }
    }

    /// Total cells currently queued.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// The next slot strictly after `now` at which the switch does
    /// anything, ignoring future arrivals. An OQ switch is work-conserving
    /// — any backlog emits next slot — and an empty one is a pure no-op
    /// until a cell arrives, so this is `now + 1` or nothing.
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        (self.backlog() > 0).then(|| now + 1)
    }

    /// Highest queue occupancy any output ever reached — the paper notes
    /// this is bounded by the traffic's burstiness factor `B` for
    /// leaky-bucket traffic (via Cruz's calculus \[9\]).
    pub fn max_occupancy(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.max_occupancy())
            .max()
            .unwrap_or(0)
    }
}

impl SlotEngine for ShadowOq {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        ShadowOq::slot(self, now, arrivals, log);
        Ok(())
    }

    fn backlog(&self) -> usize {
        ShadowOq::backlog(self)
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        ShadowOq::next_activity(self, now)
    }

    /// An empty OQ switch is a pure no-op between arrivals: it records no
    /// telemetry and meters no slots, so there is nothing to replay.
    fn skip_idle(&mut self, _from: Slot, _to: Slot) {}
}

/// [`run_oq_in`] on the process default: a shim of the benchmark seam
/// (DESIGN.md, "The benchmark's surface").
pub fn run_oq(trace: &Trace, n: usize) -> RunLog {
    run_oq_in(trace, n, &pps_core::process::sink())
}

/// Run a trace through a fresh OQ switch of the run `sink` records until
/// every cell departs; returns the per-cell log. Both stepping modes
/// produce identical logs. An OQ switch is work-conserving, so the run
/// needs no livelock cap.
pub fn run_oq_in(trace: &Trace, n: usize, sink: &Sink) -> RunLog {
    let mode = sink.spec().stepping;
    let (log, _) = stepping::drive(&mut ShadowOq::new_in(n, sink), trace, n, Slot::MAX, mode)
        .expect("an OQ slot cannot fail");
    log
}

/// Closed-form FCFS-OQ departure times for a trace: cell `c` destined for
/// output `j` departs at `max(arrival(c), previous_departure_j + 1)`.
///
/// Yields each cell's departure in id order, computed as the trace's
/// arrivals are walked, with O(N) state. This is the deadline oracle the
/// CPA demultiplexor mimics, and a differential-testing target for
/// [`run_oq_in`].
pub fn fcfs_departures(trace: &Trace, n: usize) -> impl Iterator<Item = Slot> + '_ {
    let mut last: Vec<Option<Slot>> = vec![None; n];
    trace.arrivals().map(move |a| {
        let j = a.output.idx();
        let dt = match last[j] {
            Some(prev) => a.slot.max(prev + 1),
            None => a.slot,
        };
        last[j] = Some(dt);
        dt
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(arrivals: Vec<Arrival>, n: usize) -> Trace {
        Trace::build(arrivals, n).unwrap()
    }

    #[test]
    fn lone_cell_departs_in_arrival_slot() {
        let t = trace(vec![Arrival::new(5, 0, 1)], 2);
        let log = run_oq_in(&t, 2, &Sink::default());
        assert_eq!(log.get(CellId(0)).departure(), Some(5));
        assert_eq!(log.get(CellId(0)).delay(), Some(0));
    }

    #[test]
    fn contention_serializes_fcfs() {
        // Three inputs send to output 0 in the same slot; departures are
        // slots 0,1,2 in input order (global FCFS tie-break).
        let t = trace(
            vec![
                Arrival::new(0, 2, 0),
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
            ],
            3,
        );
        let log = run_oq_in(&t, 3, &Sink::default());
        // The trace orders same-slot arrivals by input.
        let mut by_input: Vec<(u32, Slot)> = log
            .records()
            .map(|r| (r.input.0, r.departure().unwrap()))
            .collect();
        by_input.sort();
        assert_eq!(by_input, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn closed_form_matches_simulation() {
        // A mildly bursty pattern across 3 outputs.
        let mut arr = Vec::new();
        for t in 0..40u64 {
            for i in 0..4u32 {
                if !(t + i as u64).is_multiple_of(3) {
                    arr.push(Arrival::new(t, i, ((t as u32 + i) * 7) % 3));
                }
            }
        }
        let t = trace(arr, 4);
        let log = run_oq_in(&t, 4, &Sink::default());
        let analytic: Vec<Slot> = fcfs_departures(&t, 4).collect();
        for (id, rec) in log.iter() {
            assert_eq!(
                rec.departure(),
                Some(analytic[id.idx()]),
                "cell {id:?} departure mismatch"
            );
        }
    }

    #[test]
    fn occupancy_tracks_burst_size() {
        // A burst of 5 cells to one output in one... not possible (one per
        // input per slot): 5 inputs, same slot => occupancy peaks at 4
        // (one departs immediately).
        let t = trace((0..5).map(|i| Arrival::new(0, i, 0)).collect(), 5);
        let mut oq = ShadowOq::new(5);
        let cells = t.cells(5);
        let mut log = RunLog::with_cells(&cells);
        oq.slot(0, &cells, &mut log);
        assert_eq!(oq.backlog(), 4);
        assert_eq!(oq.max_occupancy(), 5); // before the departure, 5 were queued
        for now in 1..5 {
            oq.slot(now, &[], &mut log);
        }
        assert_eq!(oq.backlog(), 0);
        assert_eq!(log.max_delay(), Some(4));
    }

    #[test]
    fn run_drains_everything() {
        let t = trace(
            (0..100)
                .map(|s| Arrival::new(s, 0, (s % 4) as u32))
                .collect(),
            4,
        );
        let log = run_oq_in(&t, 4, &Sink::default());
        assert_eq!(log.undelivered(), 0);
        // Load is 1/4 per output with no conflicts: all delays zero.
        assert_eq!(log.max_delay(), Some(0));
    }
}
