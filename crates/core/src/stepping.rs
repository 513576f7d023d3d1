//! Slot-stepping policy and the one run loop every engine shares.
//!
//! A switch here is anything that honours the four-method [`SlotEngine`]
//! contract — process one slot, report its backlog, name its next
//! activity, replay an idle interval in closed form — and [`drive`] is the
//! only loop that runs one over a trace: it streams each slot's arrivals
//! out of the [`Trace`] and appends their entries to a log that shares the
//! trace's cell table (DESIGN.md §11), enforces the livelock cap and, under [`Stepping::SkipAhead`]
//! (DESIGN.md §10), jumps `now` to the earlier of the next arrival and the
//! engine's next activity. The two modes are **byte-identical** in
//! everything observable (run logs, statistics, telemetry traces, oracle
//! verdicts); they differ only in wall clock and in how a run's
//! [`crate::telemetry::Meters`] split slots between `simulated` and
//! `skipped`.
//!
//! [`Stepping::SkipAhead`] is the product loop. The dense loop is the test
//! oracle: no command-line flag selects it, and the equivalence suites
//! reach it through [`RunSpec::stepping`](crate::run::RunSpec::stepping)
//! and [`drive`]'s `mode` argument.

use crate::{Cell, ModelError, RunLog, Slot, Trace};

/// How an engine's run loop advances time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Stepping {
    /// Classic lockstep: `now` increments by one every iteration, idle
    /// slots included.
    Dense,
    /// Event-driven: `now` jumps to the earliest next-activity slot
    /// reported by any component, with skipped intervals replayed in
    /// closed form. The default.
    #[default]
    SkipAhead,
}

impl Stepping {
    /// Short stable name (test labels).
    pub fn name(self) -> &'static str {
        match self {
            Stepping::Dense => "dense",
            Stepping::SkipAhead => "skip",
        }
    }
}

/// Set the process default's stepping mode: a shim of the benchmark seam
/// (DESIGN.md, "The benchmark's surface").
pub fn set_process_default(mode: Stepping) {
    crate::process::update(|spec| spec.stepping = mode);
}

/// Fold two optional next-activity slots into the earlier one — the
/// reduction every engine's `next_activity` performs over its components.
#[inline]
pub fn earliest(a: Option<Slot>, b: Option<Slot>) -> Option<Slot> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Fold any number of optional next-activity slots into the earliest one:
/// [`earliest`] over a whole list of components.
#[inline]
pub fn earliest_of(items: impl IntoIterator<Item = Option<Slot>>) -> Option<Slot> {
    items.into_iter().fold(None, earliest)
}

/// What [`drive`] needs from a switch. The PPS, the shadow OQ switch, the
/// crossbar and the CIOQ switch all implement it by delegating to their
/// inherent methods of the same names.
pub trait SlotEngine {
    /// Advance one slot: accept `arrivals` (all with `arrival == now`, in
    /// input-port order), then serve and emit, recording into `log`.
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError>;

    /// Cells still inside the switch.
    fn backlog(&self) -> usize;

    /// The next slot strictly after `now` at which the switch does
    /// anything, ignoring future arrivals (the driver owns those). `None`
    /// means quiescent until the next arrival.
    fn next_activity(&self, now: Slot) -> Option<Slot>;

    /// Replay the dense loop's per-slot effects over the idle interval
    /// `[from, to]` in closed form. Only called when no cell arrives in
    /// the interval and [`next_activity`](Self::next_activity) reported
    /// nothing due before `to + 1`. The replay moves no cell and loses no
    /// pending event: in debug builds [`drive`] asserts that the backlog is
    /// what it was and that `next_activity(to)` lies in `to + 1 ..=` the
    /// wake-up reported before the jump.
    fn skip_idle(&mut self, from: Slot, to: Slot);
}

/// Run `trace` (an `n × n` switch's arrivals) through `engine` from slot 0
/// until everything has arrived and the backlog is empty, or until `now`
/// passes the livelock `cap` — leftovers then stay undelivered in the log
/// instead of spinning forever. Returns the per-cell log and the slot after
/// the last processed one.
///
/// Arrivals stream: each slot's cells are pulled from the trace's
/// `Trace::cursor` into a scratch of at most `n` entries, and each cell's
/// departure entry is appended to the log as the cell enters the switch —
/// the log shares the trace's cell table, so nothing else O(cells) is built
/// and nothing is counted per run (DESIGN.md §11). The log still covers the
/// whole trace when the cap cuts a run short: cells that never entered are
/// appended as undelivered entries, so `log.len() == trace.len()` always
/// and two logs of one trace join by id.
///
/// Callers compute `cap` with saturating arithmetic (a trace may sit
/// anywhere in `Slot`'s range); it is clamped below `Slot::MAX` here so
/// neither `now + 1` nor the one-past-the-cap jump can overflow.
pub fn drive<E: SlotEngine + ?Sized>(
    engine: &mut E,
    trace: &Trace,
    n: usize,
    cap: Slot,
    mode: Stepping,
) -> Result<(RunLog, Slot), ModelError> {
    let cap = cap.min(Slot::MAX - 1);
    let mut cursor = trace.cursor();
    let mut log = RunLog::new(trace);
    let mut arrivals: Vec<Cell> = Vec::with_capacity(n);
    let mut now: Slot = 0;
    let mut more = cursor.peek_slot().is_some() || engine.backlog() > 0;
    while more && now <= cap {
        arrivals.clear();
        while let Some(cell) = cursor.next_at(now) {
            log.push(&cell);
            arrivals.push(cell);
        }
        engine.slot(now, &arrivals, &mut log)?;
        now += 1;
        more = cursor.peek_slot().is_some() || engine.backlog() > 0;
        let next_arrival = cursor.peek_slot().unwrap_or(Slot::MAX);
        if more && mode == Stepping::SkipAhead && now <= cap && next_arrival != now {
            // Dense walks idle slots through the cap before giving up, so
            // the jump may go one past it at most.
            let wake = engine.next_activity(now - 1).unwrap_or(Slot::MAX);
            let stop = next_arrival.min(wake).min(cap + 1);
            if stop > now {
                #[cfg(debug_assertions)]
                let backlog = engine.backlog();
                engine.skip_idle(now, stop - 1);
                // Missed-wake oracle (DESIGN.md §10): the replay moved no
                // cell, left nothing overdue, and did not push the event
                // it was jumping towards any later (earlier is fine).
                #[cfg(debug_assertions)]
                {
                    let (from, to) = (now, stop - 1);
                    let next = engine.next_activity(to).unwrap_or(Slot::MAX);
                    assert_eq!(
                        engine.backlog(),
                        backlog,
                        "skip_idle({from}, {to}) changed the backlog"
                    );
                    assert!(
                        (stop..=wake).contains(&next),
                        "skip_idle({from}, {to}) moved the next activity to {next}, \
                         outside {stop}..={wake}"
                    );
                }
                now = stop;
            }
        }
    }
    for cell in cursor {
        log.push(&cell);
    }
    Ok((log, now))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Arrival;

    #[test]
    fn earliest_folds_options() {
        assert_eq!(earliest(None, None), None);
        assert_eq!(earliest(Some(3), None), Some(3));
        assert_eq!(earliest(None, Some(7)), Some(7));
        assert_eq!(earliest(Some(9), Some(7)), Some(7));
    }

    #[test]
    fn earliest_of_reduces_iterators() {
        assert_eq!(earliest_of([]), None);
        assert_eq!(earliest_of([None, None]), None);
        assert_eq!(earliest_of([None, Some(5), Some(2), None]), Some(2));
    }

    /// A fixed-delay line: every cell departs `delay` slots after it
    /// arrives. Meters its own processed and skipped slots.
    struct DelayLine {
        delay: Slot,
        pending: std::collections::VecDeque<(Slot, crate::CellId)>,
        processed: u64,
        skipped: u64,
        /// A deliberately wrong `skip_idle`, for the missed-wake oracle.
        bug: Option<SkipBug>,
    }

    #[derive(Clone, Copy)]
    enum SkipBug {
        /// The replay forgets the queued cells.
        DropsQueue,
        /// The replay pushes every pending departure one slot out.
        WakesLater,
    }

    impl DelayLine {
        fn new(delay: Slot) -> Self {
            DelayLine {
                delay,
                pending: Default::default(),
                processed: 0,
                skipped: 0,
                bug: None,
            }
        }
    }

    impl SlotEngine for DelayLine {
        fn slot(
            &mut self,
            now: Slot,
            arrivals: &[Cell],
            log: &mut RunLog,
        ) -> Result<(), ModelError> {
            self.processed += 1;
            for c in arrivals {
                assert_eq!(c.arrival, now, "driver handed over a cell early or late");
                self.pending.push_back((now + self.delay, c.id));
            }
            while let Some(&(due, id)) = self.pending.front() {
                assert!(due >= now, "driver jumped over a pending departure");
                if due > now {
                    break;
                }
                self.pending.pop_front();
                log.set_departure(id, now);
            }
            Ok(())
        }

        fn backlog(&self) -> usize {
            self.pending.len()
        }

        fn next_activity(&self, now: Slot) -> Option<Slot> {
            self.pending.front().map(|&(due, _)| due.max(now + 1))
        }

        fn skip_idle(&mut self, from: Slot, to: Slot) {
            assert!(from <= to);
            self.skipped += to - from + 1;
            match self.bug {
                Some(SkipBug::DropsQueue) => self.pending.clear(),
                Some(SkipBug::WakesLater) => self.pending.iter_mut().for_each(|p| p.0 += 1),
                None => {}
            }
        }
    }

    /// Drive `arrivals` through a fresh delay line in both modes; assert
    /// equal logs, equal end slots and a consistent slot split, and return
    /// `(log, end_slot, slots the skip run processed)`.
    fn both_modes(arrivals: Vec<(Slot, u32)>, delay: Slot, cap: Slot) -> (RunLog, Slot, u64) {
        let n = 4;
        let arrivals = arrivals
            .into_iter()
            .map(|(slot, input)| Arrival::new(slot, input, 0))
            .collect();
        let trace = Trace::build(arrivals, n).unwrap();
        let mut dense = DelayLine::new(delay);
        let mut skip = DelayLine::new(delay);
        let (dense_log, dense_end) = drive(&mut dense, &trace, n, cap, Stepping::Dense).unwrap();
        let (skip_log, skip_end) = drive(&mut skip, &trace, n, cap, Stepping::SkipAhead).unwrap();
        assert_eq!(dense_log.records(), skip_log.records());
        assert_eq!(dense_end, skip_end);
        assert_eq!(dense.skipped, 0);
        assert_eq!(dense.processed, dense_end, "dense walks every slot");
        assert_eq!(skip.processed + skip.skipped, dense.processed);
        (skip_log, skip_end, skip.processed)
    }

    #[test]
    fn drive_is_mode_independent_and_skips_idle_stretches() {
        // Two bursts 500 slots apart through a 7-slot line.
        let arrivals = vec![(3, 0), (3, 1), (4, 0), (500, 2), (501, 2)];
        let (log, end, processed) = both_modes(arrivals, 7, 10_000);
        assert_eq!(log.undelivered(), 0);
        assert_eq!(log.max_delay(), Some(7));
        assert_eq!(end, 509, "one past the last departure");
        assert!(processed < 20, "skip-ahead processed {processed} slots");
    }

    #[test]
    fn drive_stops_one_past_the_cap() {
        // The line needs 100 slots, the cap allows 10: both modes give up
        // at slot 11 with the cell undelivered.
        let (log, end, processed) = both_modes(vec![(0, 0)], 100, 10);
        assert_eq!(log.undelivered(), 1);
        assert_eq!(end, 11);
        assert_eq!(processed, 1, "skip-ahead jumps straight to the cap");
    }

    #[test]
    fn drive_jumps_to_a_far_future_arrival() {
        // Nothing pending, nothing scheduled: the only event is an arrival
        // a million slots out.
        let (log, end, processed) = both_modes(vec![(1_000_000, 3)], 2, 2_000_000);
        assert_eq!(log.undelivered(), 0);
        assert_eq!(end, 1_000_003);
        assert_eq!(processed, 3, "slot 0, the arrival slot, the departure slot");
    }

    #[test]
    fn drive_survives_a_cap_at_the_end_of_time() {
        // An uncapped run (`Slot::MAX`) of a trace parked near the end of
        // the slot range: no overflow in `now + 1` or the jump target.
        let at = Slot::MAX - 40;
        let mut line = DelayLine::new(5);
        let trace = Trace::build(vec![Arrival::new(at, 0, 0)], 4).unwrap();
        let (log, end) = drive(&mut line, &trace, 4, Slot::MAX, Stepping::SkipAhead).unwrap();
        assert_eq!(log.get(crate::CellId(0)).departure(), Some(at + 5));
        assert_eq!(end, at + 6);
    }

    #[test]
    fn a_cap_before_the_last_arrival_still_logs_the_whole_trace() {
        // The cap ends the run at slot 4; the cells of slots 50 and 51
        // never enter the line but are in the log, undelivered, with the
        // ids and seqs a full run gives them.
        let arrivals = vec![(0, 0), (1, 0), (50, 0), (51, 1)];
        let (log, end, _) = both_modes(arrivals, 2, 3);
        assert_eq!(end, 4);
        assert_eq!(log.len(), 4);
        assert_eq!(log.undelivered(), 2);
        assert_eq!(log.get(crate::CellId(2)).arrival, 50);
        assert_eq!(
            log.get(crate::CellId(2)).seq,
            2,
            "third cell of flow 0 -> 0"
        );
    }

    /// One cell through a 50-slot line whose `skip_idle` has `bug`: the
    /// driver jumps once, from slot 1 towards the departure at slot 50.
    #[cfg(debug_assertions)]
    fn drive_a_buggy_line(bug: SkipBug) {
        let mut line = DelayLine::new(50);
        line.bug = Some(bug);
        let trace = Trace::build(vec![Arrival::new(0, 0, 0)], 4).unwrap();
        let _ = drive(&mut line, &trace, 4, 1_000, Stepping::SkipAhead);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed the backlog")]
    fn a_skip_that_drops_cells_trips_the_drivers_oracle() {
        drive_a_buggy_line(SkipBug::DropsQueue);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "moved the next activity to 51")]
    fn a_skip_that_delays_a_wake_up_trips_the_drivers_oracle() {
        drive_a_buggy_line(SkipBug::WakesLater);
    }

    /// The driver this one replaced, kept as the oracle: materialise the
    /// whole trace, pre-fill the whole log, slice the sorted cell list.
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
    /// sends with probability `load`, to a random output) `gap`-ish slots
    /// apart, the whole thing starting at `base`.
    fn random_trace(n: usize, seed: u64, bursts: u64, load: f64, gap: u64, base: Slot) -> Trace {
        let mut rng = crate::rng::SplitMix64::new(seed).derive(0xD21E);
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

    /// `drive` against the materialising oracle, on a fresh delay line
    /// each: same records, same end slot, same processed/skipped split.
    fn assert_matches_oracle(trace: &Trace, n: usize, delay: Slot, cap: Slot, mode: Stepping) {
        let (mut ours, mut model) = (DelayLine::new(delay), DelayLine::new(delay));
        let (log, end) = drive(&mut ours, trace, n, cap, mode).unwrap();
        let (model_log, model_end) = materialised_drive(&mut model, trace, n, cap, mode);
        assert_eq!(log.len(), trace.len(), "{mode:?}: the log covers the trace");
        assert_eq!(log.records(), model_log.records(), "{mode:?}: records");
        assert_eq!(end, model_end, "{mode:?}: end slot");
        assert_eq!(
            (ours.processed, ours.skipped),
            (model.processed, model.skipped),
            "{mode:?}: processed/skipped split"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn drive_matches_the_materialising_driver(
            n in 1usize..6,
            seed in 0u64..1_000_000,
            delay in 0u64..40,
            cut in 0u64..100,
        ) {
            let both = [Stepping::Dense, Stepping::SkipAhead];
            let dense = random_trace(n, seed, 8, 0.9, 0, 0);
            let gappy = random_trace(n, seed, 5, 0.5, 400, 0);
            for trace in [&dense, &gappy] {
                // Uncapped, then a cap somewhere inside the trace: the cut
                // cells must still be logged, with full-run seqs.
                let inside = trace.horizon() * cut / 100;
                for cap in [Slot::MAX, inside] {
                    for mode in both {
                        assert_matches_oracle(trace, n, delay, cap, mode);
                    }
                }
            }
            // Parked at the end of time (last departure by `MAX - 17`):
            // only skip-ahead can get there.
            let parked = random_trace(n, seed, 2, 0.7, 4, Slot::MAX - 40);
            for cap in [Slot::MAX, Slot::MAX - 30] {
                assert_matches_oracle(&parked, n, delay % 8, cap, Stepping::SkipAhead);
            }
        }
    }
}
