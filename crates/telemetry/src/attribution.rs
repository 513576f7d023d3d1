//! Where a cell's relative delay came from: one fold per engine run over
//! its own events in a scope.
//!
//! **The OQ reference** streams from the run's `Arrival` events: each output
//! keeps the first slot its FCFS output-queued reference is idle, and a cell
//! arriving at `t` leaves the reference at `max(t, idle)`. Engines record
//! arrivals in (slot, input) order, so this is
//! `pps_reference::oq::fcfs_departures`' rule, without the shadow
//! engine's events or the trace.
//!
//! **The split.** A delivered cell's delay is input wait (`DemuxDecision −
//! Arrival`), line + plane wait (`PlaneDeliver − DemuxDecision`) and output
//! hold (`Depart − PlaneDeliver`); its relative delay is these less its OQ
//! wait. A stage an engine does not record ends at the cell's next recorded
//! event: a crossbar cell's whole delay is input (VOQ) wait, and a CIOQ
//! cell's output hold starts at its transfer (`ReseqHold`).
//!
//! **Runs.** A scope can hold several runs one after another (`ppslab run`'s
//! three classes, e13's CPA and RR fabrics): a run ends where its engine's
//! `Arrival` names a cell the run has already seen. No two runs of one engine
//! interleave on one sink: a sweep gives each point a sink of its own, and
//! the one lockstep of several engines on a sink (a chaos case's PPS, shadow
//! OQ, crossbar and CIOQ) pairs different engines and keeps no events.

use pps_core::telemetry::{Engine, Event, EventKind};
use pps_core::Slot;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A cell of a run: its flow `(input, output)`, and the slots of its
/// arrival, demultiplexing, plane delivery, departure and OQ departure.
/// Stage `i` of 1 to 3 holds once `reached >= i`: set by its own event or,
/// where the engine records none, by the cell's first later one.
#[derive(Clone, Copy)]
struct Cell {
    flow: (u32, u32),
    at: [Slot; 5],
    reached: usize,
}

impl Cell {
    /// Input wait, line + plane wait, output hold and OQ wait.
    fn split(&self) -> [u64; 4] {
        let [arrival, demux, deliver, depart, oq] = self.at;
        [
            demux - arrival,
            deliver - demux,
            depart - deliver,
            oq - arrival,
        ]
    }

    fn relative(&self) -> i64 {
        self.at[3] as i64 - self.at[4] as i64
    }
}

/// One line of a block: `split`, summed over some cells.
fn split_line(label: &str, [input, plane, hold, oq]: [u64; 4], out: &mut String) {
    let relative = (input + plane + hold) as i64 - oq as i64;
    let _ = writeln!(
        out,
        "    {label:<20} input-wait={input} plane-wait={plane} output-hold={hold} \
         oq-wait={oq} relative={relative}"
    );
}

/// The smallest and largest delay seen, if any.
type Spread = Option<(Slot, Slot)>;

fn widen(spread: &mut Spread, delay: Slot) {
    let (lo, hi) = spread.get_or_insert((delay, delay));
    *lo = (*lo).min(delay);
    *hi = (*hi).max(delay);
}

fn width(spread: Spread) -> i64 {
    spread.map_or(0, |(lo, hi)| (hi - lo) as i64)
}

/// The fold of one engine run.
#[derive(Default)]
struct Run {
    /// Per output, the first slot its OQ reference is idle.
    idle: Vec<Slot>,
    cells: HashMap<u64, Cell>,
    held: u64,
    watchdog_losses: u64,
}

impl Run {
    fn apply(&mut self, slot: Slot, kind: EventKind) {
        let (cell, stage) = match kind {
            EventKind::Arrival {
                cell,
                input,
                output,
            } => {
                let j = output.idx();
                if self.idle.len() <= j {
                    self.idle.resize(j + 1, 0);
                }
                let oq = slot.max(self.idle[j]);
                self.idle[j] = oq.saturating_add(1);
                let arrived = Cell {
                    flow: (input.0, output.0),
                    at: [slot, slot, slot, slot, oq],
                    reached: 0,
                };
                self.cells.insert(cell.0, arrived);
                return;
            }
            EventKind::DemuxDecision { cell, .. } | EventKind::PlaneEnqueue { cell, .. } => {
                (cell, 1)
            }
            EventKind::PlaneDeliver { cell, .. } => (cell, 2),
            EventKind::ReseqHold { cell, .. } => {
                self.held += 1;
                (cell, 2)
            }
            EventKind::Depart { cell, .. } => (cell, 3),
            EventKind::WatchdogDrop { cells, .. } => {
                self.watchdog_losses += u64::from(cells);
                return;
            }
            EventKind::ReseqRelease { .. } | EventKind::FaultApplied { .. } => return,
        };
        if let Some(c) = self.cells.get_mut(&cell.0) {
            c.at[c.reached + 1..=stage.max(c.reached)].fill(slot);
            c.reached = c.reached.max(stage);
        }
    }

    fn render(&self, number: usize, engine: Engine, out: &mut String) {
        let mut delivered: Vec<(u64, &Cell)> = self
            .cells
            .iter()
            .filter(|(_, c)| c.reached == 3)
            .map(|(&id, c)| (id, c))
            .collect();
        let (cells, n) = (self.cells.len(), delivered.len());
        let _ = write!(out, "  run {number} ({}): cells={cells}", engine.name());
        // The lowest id of the largest relative delay is the worst cell. The
        // key orders every cell, so the map's order never shows.
        delivered.sort_unstable_by_key(|&(id, c)| (c.relative(), Reverse(id)));
        if let Some(&(id, worst)) = delivered.last() {
            // The `ceil(0.99·n)`-th order statistic, as the tables take it.
            let p99 = delivered[(n * 99).div_ceil(100) - 1].1.relative();
            let sum: i64 = delivered.iter().map(|(_, c)| c.relative()).sum();
            let mut flows: HashMap<(u32, u32), [Spread; 2]> = HashMap::new();
            for c in self.cells.values() {
                let spreads = flows.entry(c.flow).or_default();
                if c.reached == 3 {
                    widen(&mut spreads[0], c.at[3] - c.at[0]);
                }
                widen(&mut spreads[1], c.at[4] - c.at[0]);
            }
            let jitter = flows.values().map(|&[pps, oq]| width(pps) - width(oq));
            let _ = writeln!(
                out,
                " mean={:.3} p99={p99} max={} jitter={}",
                sum as f64 / n as f64,
                worst.relative(),
                jitter.max().unwrap_or(0)
            );
            let total = |cells: &[(u64, &Cell)]| {
                cells.iter().fold([0; 4], |sum, (_, c)| {
                    std::array::from_fn(|i| sum[i] + c.split()[i])
                })
            };
            split_line(&format!("all {n} delivered:"), total(&delivered), out);
            let tail = &delivered[delivered.partition_point(|(_, c)| c.relative() < p99)..];
            split_line(&format!("{} at p99+:", tail.len()), total(tail), out);
            split_line(&format!("worst cell {id}:"), worst.split(), out);
            let [arrival, demux, deliver, depart, oq] = worst.at;
            let _ = writeln!(
                out,
                "      {}->{} arrival={arrival} demux={demux} deliver={deliver} \
                 depart={depart} oq-depart={oq}",
                worst.flow.0, worst.flow.1
            );
        } else {
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "    held={} watchdog_losses={} undelivered={}",
            self.held,
            self.watchdog_losses,
            cells - n
        );
    }
}

/// Fold the events of one scope and render a block per engine run, in the
/// order the runs began. The shadow engine's events are skipped.
pub(crate) fn render(events: &[Event], out: &mut String) {
    let mut runs: Vec<(Engine, Run)> = Vec::new();
    // Per engine, its run in progress.
    let mut open: [Option<usize>; 4] = [None; 4];
    for ev in events.iter().filter(|ev| ev.engine != Engine::ShadowOq) {
        let current = &mut open[ev.engine as usize];
        let repeated = |i: usize| match ev.kind {
            EventKind::Arrival { cell, .. } => runs[i].1.cells.contains_key(&cell.0),
            _ => false,
        };
        let i = match *current {
            Some(i) if !repeated(i) => i,
            _ => {
                runs.push((ev.engine, Run::default()));
                runs.len() - 1
            }
        };
        *current = Some(i);
        runs[i].1.apply(ev.slot, ev.kind);
    }
    for (i, (engine, run)) in runs.iter().enumerate() {
        run.render(i + 1, *engine, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::{CellId, PlaneId, PortId};

    fn arrival(slot: Slot, cell: u64, input: u32, output: u32) -> (Slot, EventKind) {
        let kind = EventKind::Arrival {
            cell: CellId(cell),
            input: PortId(input),
            output: PortId(output),
        };
        (slot, kind)
    }

    fn depart(slot: Slot, cell: u64, output: u32) -> (Slot, EventKind) {
        let kind = EventKind::Depart {
            cell: CellId(cell),
            output: PortId(output),
        };
        (slot, kind)
    }

    fn summary(engine: Engine, events: &[(Slot, EventKind)]) -> String {
        let events: Vec<Event> = events
            .iter()
            .map(|&(slot, kind)| Event { slot, engine, kind })
            .collect();
        let mut out = String::new();
        render(&events, &mut out);
        out
    }

    #[test]
    fn oq_reference_is_fcfs_per_output() {
        // Three cells for output 0 at slot 0 leave the reference at 0, 1
        // and 2; the one at slot 5 finds it idle. The crossbar delivers
        // them at 1, 2, 3 and 5.
        let out = summary(
            Engine::Crossbar,
            &[
                arrival(0, 0, 0, 0),
                arrival(0, 1, 1, 0),
                arrival(0, 2, 2, 0),
                depart(1, 0, 0),
                depart(2, 1, 0),
                depart(3, 2, 0),
                arrival(5, 3, 0, 0),
                depart(5, 3, 0),
            ],
        );
        assert!(
            out.starts_with("  run 1 (crossbar): cells=4 mean=0.750 p99=1 max=1 jitter=1\n"),
            "{out}"
        );
        // A crossbar records no stage between arrival and departure: the
        // whole delay is input (VOQ) wait.
        assert!(
            out.contains("input-wait=6 plane-wait=0 output-hold=0 oq-wait=3 relative=3"),
            "{out}"
        );
        assert!(out.contains("worst cell 0:"), "{out}");
        assert!(
            out.ends_with("held=0 watchdog_losses=0 undelivered=0\n"),
            "{out}"
        );
    }

    #[test]
    fn each_stage_ends_at_its_event_or_the_next_one() {
        let plane = PlaneId(1);
        let (cell, output) = (CellId(0), PortId(0));
        let pps = summary(
            Engine::Pps,
            &[
                arrival(0, 0, 0, 0),
                (
                    2,
                    EventKind::DemuxDecision {
                        cell,
                        input: PortId(0),
                        plane,
                    },
                ),
                (
                    2,
                    EventKind::PlaneEnqueue {
                        cell,
                        plane,
                        output,
                    },
                ),
                (
                    7,
                    EventKind::PlaneDeliver {
                        cell,
                        plane,
                        output,
                    },
                ),
                (7, EventKind::ReseqHold { cell, output }),
                (8, EventKind::ReseqRelease { cell, output }),
                depart(9, 0, 0),
            ],
        );
        assert!(
            pps.contains("input-wait=2 plane-wait=5 output-hold=2 oq-wait=0 relative=9"),
            "{pps}"
        );
        assert!(
            pps.contains("0->0 arrival=0 demux=2 deliver=7 depart=9 oq-depart=0"),
            "{pps}"
        );
        // A CIOQ cell's hold starts at its transfer.
        let cioq = summary(
            Engine::Cioq,
            &[
                arrival(0, 0, 0, 0),
                (3, EventKind::ReseqHold { cell, output }),
                depart(4, 0, 0),
            ],
        );
        assert!(
            cioq.contains("input-wait=3 plane-wait=0 output-hold=1 oq-wait=0 relative=4"),
            "{cioq}"
        );
        assert!(cioq.contains("held=1 "), "{cioq}");
    }

    #[test]
    fn a_repeated_arrival_starts_a_new_run_and_the_shadow_is_skipped() {
        let events: Vec<Event> = [
            (Engine::Pps, arrival(0, 0, 0, 0)),
            (Engine::ShadowOq, arrival(0, 0, 0, 0)),
            (Engine::Pps, depart(4, 0, 0)),
            (Engine::ShadowOq, depart(0, 0, 0)),
            (Engine::Pps, arrival(0, 0, 0, 0)),
            (Engine::Pps, arrival(0, 1, 1, 0)),
            (Engine::Pps, depart(1, 1, 0)),
        ]
        .into_iter()
        .map(|(engine, (slot, kind))| Event { slot, engine, kind })
        .collect();
        let mut out = String::new();
        render(&events, &mut out);
        let heads: Vec<&str> = out.lines().filter(|l| l.starts_with("  run")).collect();
        assert_eq!(
            heads,
            [
                "  run 1 (pps): cells=1 mean=4.000 p99=4 max=4 jitter=0",
                "  run 2 (pps): cells=2 mean=0.000 p99=0 max=0 jitter=0",
            ]
        );
        assert!(out.ends_with("undelivered=1\n"), "{out}");
    }

    #[test]
    fn jitter_is_the_worst_flows_spread_less_the_references() {
        // Flow 0->0 leaves at delays 0 and 6 (OQ 0 and 0): jitter 6. Flow
        // 1->0 is delivered at delay 1 against OQ 1: one cell, spread 0.
        let out = summary(
            Engine::Crossbar,
            &[
                arrival(0, 0, 0, 0),
                arrival(0, 1, 1, 0),
                depart(0, 0, 0),
                depart(1, 1, 0),
                arrival(4, 2, 0, 0),
                depart(10, 2, 0),
            ],
        );
        assert!(out.contains(" max=6 jitter=6\n"), "{out}");
        assert!(out.contains("1 at p99+:"), "{out}");
    }
}
