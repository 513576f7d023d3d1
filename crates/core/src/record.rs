//! Per-cell run records.
//!
//! Each switch engine (PPS and shadow) produces a [`RunLog`]: for every cell
//! of the trace, when it departed and — for the PPS — which plane carried
//! it. What a cell *is* (arrival slot, ports, per-flow sequence number)
//! belongs to the trace, not to the switch, so a log holds a handle to its
//! trace's shared cell table and stores only its own columns (DESIGN.md
//! §21):
//!
//! | column | bytes per cell | stored by |
//! |---|---|---|
//! | arrival, input, output | 4 + 2 + 2 | the trace, once (the arrival's high word once per run) |
//! | seq | 4 | the trace, once |
//! | delay | 4 | every log (a delay of 2³²−2 slots or more in a side map) |
//! | plane | 2 | a log whose engine records one (allocated on the first [`RunLog::set_plane`]) |
//!
//! A log stores a cell's *delay*, `departure − arrival`, not its departure
//! slot: the arrival is the table's, and a delay fits 32 bits where a slot
//! does not. The rare delay that does not fit is kept exactly in a side map
//! keyed by cell index, behind a reserved column value.
//!
//! A delay entry is appended when its cell enters the switch
//! ([`crate::stepping::drive`] pushes each slot's arrivals before it hands
//! them to the engine), so the log grows in [`CellId`] order and a cell's id
//! *is* its index. The two `Option`s a record reports are stored as
//! sentinel values, and the setters refuse the values that would alias
//! "none".
//!
//! A [`CellRecord`] is the value a reader sees, assembled from the columns
//! on read ([`RunLog::get`], [`RunLog::iter`], [`RunLog::records`]).
//! Relative queuing delay and relative delay jitter are computed by joining
//! two logs on the id in `pps-analysis`, which streams the delay columns
//! themselves ([`RunLog::arrivals`], [`RunLog::delays`]).

use crate::cell::Cell;
use crate::ids::{CellId, FlowId, PlaneId, PortId};
use crate::time::Slot;
use crate::trace::{Arrivals, CellTable, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Departure of a [`CellRecord`] that has not departed.
const NO_DEPARTURE: Slot = Slot::MAX;
/// Stored delay of a cell that has not departed.
const NOT_DEPARTED: u32 = u32::MAX;
/// Stored delay of a cell whose delay is 2³²−2 slots or more; the exact
/// value is in [`RunLog::long_delay`].
const ESCAPED: u32 = u32::MAX - 1;
/// Stored `plane` of a cell no plane was recorded for; planes are
/// `0..NO_PLANE`, so a switch has at most 65535 of them.
pub(crate) const NO_PLANE: u16 = u16::MAX;

/// The fate of one cell in one switch. Its id is its index in the
/// [`RunLog`] ([`RunLog::get`], [`RunLog::iter`]).
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Arrival slot.
    pub arrival: Slot,
    /// Departure slot; [`NO_DEPARTURE`] while the cell is still queued.
    departure: Slot,
    /// Input port.
    pub input: PortId,
    /// Output port.
    pub output: PortId,
    /// Per-flow sequence number.
    pub seq: u32,
    /// Plane index; [`NO_PLANE`] until one is recorded.
    plane: u16,
}

impl CellRecord {
    /// Departure slot, or `None` if the cell was still queued when the
    /// simulation horizon was reached.
    #[inline]
    pub fn departure(&self) -> Option<Slot> {
        (self.departure != NO_DEPARTURE).then_some(self.departure)
    }

    /// Plane the cell traversed (PPS only; `None` in shadow-switch logs).
    #[inline]
    pub fn plane(&self) -> Option<PlaneId> {
        (self.plane != NO_PLANE).then_some(PlaneId(self.plane.into()))
    }

    /// Queuing delay in slots (`departure − arrival`), if the cell departed.
    ///
    /// A cell that departs in its arrival slot has delay 0 — the paper
    /// explicitly allows this ("a cell can leave the PPS in the same
    /// time-slot it arrives").
    #[inline]
    pub fn delay(&self) -> Option<Slot> {
        self.departure().map(|d| d - self.arrival)
    }

    /// The record's flow.
    pub fn flow(&self) -> FlowId {
        FlowId {
            input: self.input,
            output: self.output,
        }
    }
}

impl fmt::Debug for CellRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellRecord")
            .field("input", &self.input)
            .field("output", &self.output)
            .field("seq", &self.seq)
            .field("arrival", &self.arrival)
            .field("departure", &self.departure())
            .field("plane", &self.plane())
            .finish()
    }
}

/// Per-cell log of one simulation run, indexed by [`CellId`]: a handle to
/// the trace's cell table plus the run's own delay and plane columns.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct RunLog {
    /// The trace's cells, shared with the trace and every other log of it
    /// (a [`with_cells`](Self::with_cells) log has a table of its own).
    cells: Arc<CellTable>,
    /// Queuing delay (`departure − arrival`) of each cell that has entered
    /// the switch; [`NOT_DEPARTED`] while it is queued, [`ESCAPED`] when the
    /// delay is in `long_delay`. Its length is the log's.
    delay: Vec<u32>,
    /// The exact delay of every cell stored as [`ESCAPED`], by index.
    long_delay: BTreeMap<usize, Slot>,
    /// Plane of every cell of the table, [`NO_PLANE`] where none was
    /// recorded; empty until the engine records its first plane.
    plane: Vec<u16>,
}

impl RunLog {
    /// An empty log of `trace`'s cells: it shares the trace's cell table,
    /// and its delay column grows as cells [`push`](Self::push) in.
    pub fn new(trace: &Trace) -> Self {
        RunLog {
            cells: trace.table(),
            delay: Vec::with_capacity(trace.len()),
            ..RunLog::default()
        }
    }

    /// A log holding an undeparted record for each of `cells`, which must be
    /// `cells[i].id == i` (the whole trace up front, in a table of the log's
    /// own; test oracles that step an engine by hand use it).
    pub fn with_cells(cells: &[Cell]) -> Self {
        let mut table = CellTable::default();
        for c in cells {
            table.push(c.arrival, c.input, c.output, c.seq);
        }
        let mut log = RunLog {
            cells: Arc::new(table),
            delay: Vec::with_capacity(cells.len()),
            ..RunLog::default()
        };
        for cell in cells {
            log.push(cell);
        }
        log
    }

    /// Append the entry of a cell entering the switch: not departed, no
    /// plane.
    ///
    /// # Panics
    /// Panics unless `cell.id` is the next index — ids are dense in arrival
    /// order, which is what lets a record do without a stored id — and, in
    /// debug builds, unless `cell` is that cell of the log's table.
    #[inline]
    pub fn push(&mut self, cell: &Cell) {
        let i = self.delay.len();
        assert!(
            cell.id.idx() == i,
            "cell {:?} pushed out of id order (the log holds {i} records)",
            cell.id,
        );
        debug_assert_eq!(
            *cell,
            self.cells.cell(cell.id),
            "cell pushed into another trace's log"
        );
        self.delay.push(NOT_DEPARTED);
    }

    /// Record the plane assignment of a cell. The first call allocates the
    /// plane column.
    ///
    /// # Panics
    /// Panics on a plane of 65535 or more, which the 2-byte column cannot
    /// tell from "no plane", and on a cell that has not entered the switch.
    #[inline]
    pub fn set_plane(&mut self, id: CellId, plane: PlaneId) {
        assert!(
            plane.0 < NO_PLANE.into(),
            "plane {plane:?} of cell {id:?} is not representable in a record"
        );
        assert!(
            id.idx() < self.len(),
            "cell {id:?} has not entered the switch"
        );
        if self.plane.is_empty() {
            self.plane = vec![NO_PLANE; self.cells.len()];
        }
        self.plane[id.idx()] = plane.0 as u16;
    }

    /// Record the departure slot of a cell; the log stores its delay.
    ///
    /// # Panics
    /// Panics if the cell already departed — a duplicated departure is an
    /// engine bug, never a modeling outcome — on `Slot::MAX`, which the
    /// record cannot tell from "not departed", and on a slot before the
    /// cell's arrival.
    #[inline]
    pub fn set_departure(&mut self, id: CellId, slot: Slot) {
        assert!(
            slot != NO_DEPARTURE,
            "departure slot {slot} of cell {id:?} is not representable in a record"
        );
        let i = id.idx();
        assert!(
            self.delay[i] == NOT_DEPARTED,
            "cell {id:?} departed twice (slots {:?} and {slot})",
            self.departure(i)
        );
        let arrival = self.cells.slot(i);
        assert!(
            slot >= arrival,
            "cell {id:?} departs in slot {slot}, before its arrival in slot {arrival}"
        );
        let delay = slot - arrival;
        self.delay[i] = match u32::try_from(delay) {
            Ok(d) if d < ESCAPED => d,
            _ => {
                self.long_delay.insert(i, delay);
                ESCAPED
            }
        };
    }

    /// The delay of cell `i` decoded from its column entry `stored`.
    #[inline]
    fn decode(&self, i: usize, stored: u32) -> Option<Slot> {
        match stored {
            NOT_DEPARTED => None,
            ESCAPED => Some(self.long_delay[&i]),
            d => Some(d as Slot),
        }
    }

    /// The departure slot of cell `i`, if it departed.
    #[inline]
    fn departure(&self, i: usize) -> Option<Slot> {
        self.decode(i, self.delay[i])
            .map(|d| self.cells.slot(i) + d)
    }

    /// The record of cell `i`, assembled from the columns.
    #[inline]
    fn record(&self, i: usize) -> CellRecord {
        let c = self.cells.cell(CellId(i as u64));
        CellRecord {
            arrival: c.arrival,
            departure: self.departure(i).unwrap_or(NO_DEPARTURE),
            input: c.input,
            output: c.output,
            seq: c.seq,
            plane: self.plane.get(i).copied().unwrap_or(NO_PLANE),
        }
    }

    /// All records, in id order: a view that assembles each on read and
    /// compares and prints by content.
    pub fn records(&self) -> Records<'_> {
        Records {
            log: self,
            ids: 0..self.len(),
        }
    }

    /// Every record beside its cell id, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CellId, CellRecord)> + '_ {
        self.records()
            .enumerate()
            .map(|(i, r)| (CellId(i as u64), r))
    }

    /// The record of a specific cell.
    pub fn get(&self, id: CellId) -> CellRecord {
        self.record(id.idx())
    }

    /// The cell table the log reads its cells from: the trace's, shared
    /// (the PPS fabric reads a dispatched cell's facts from it).
    pub fn table(&self) -> &Arc<CellTable> {
        &self.cells
    }

    /// The arrivals of the logged cells, in id order (the trace's).
    pub fn arrivals(&self) -> Arrivals<'_> {
        self.cells.arrivals(0..self.len())
    }

    /// The departure slot of each logged cell (its arrival plus its delay),
    /// in id order: `None` for a cell still queued.
    pub fn departures(&self) -> impl ExactSizeIterator<Item = Option<Slot>> + '_ {
        self.arrivals()
            .zip(self.delays())
            .map(|(a, d)| d.map(|d| a.slot + d))
    }

    /// Queuing delay of each logged cell, in id order, read from the delay
    /// column: `None` for a cell still queued.
    pub fn delays(&self) -> impl ExactSizeIterator<Item = Option<Slot>> + '_ {
        self.delay
            .iter()
            .enumerate()
            .map(|(i, &d)| self.decode(i, d))
    }

    /// Number of cells in the log.
    pub fn len(&self) -> usize {
        self.delay.len()
    }

    /// Number of cells that never departed (still queued at horizon).
    pub fn undelivered(&self) -> usize {
        self.delay.iter().filter(|&&d| d == NOT_DEPARTED).count()
    }

    /// Maximum queuing delay over delivered cells.
    pub fn max_delay(&self) -> Option<Slot> {
        self.delays().flatten().max()
    }

    /// Mean queuing delay over delivered cells.
    pub fn mean_delay(&self) -> Option<f64> {
        let (sum, n) = self
            .delays()
            .flatten()
            .fold((0u128, 0u64), |(s, n), d| (s + d as u128, n + 1));
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// FNV-1a over every decoded record: the log's length, then per cell
    /// the id, arrival, departure, input, output, seq and plane (an absent
    /// departure or plane folds as `u64::MAX`). It fingerprints what a log
    /// *says*, not how it stores it; the record-by-record regression pins
    /// (`tests/golden_regression.rs`, e20's module) hold it.
    pub fn digest(&self) -> u64 {
        fn fold(h: u64, word: u64) -> u64 {
            word.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        }
        self.iter().fold(
            fold(0xcbf2_9ce4_8422_2325, self.len() as u64),
            |h, (id, r)| {
                [
                    id.0,
                    r.arrival,
                    r.departure().unwrap_or(u64::MAX),
                    r.input.0 as u64,
                    r.output.0 as u64,
                    r.seq as u64,
                    r.plane().map_or(u64::MAX, |p| p.0 as u64),
                ]
                .into_iter()
                .fold(h, fold)
            },
        )
    }
}

impl fmt::Debug for RunLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunLog")
            .field("records", &self.records())
            .finish()
    }
}

/// A log's records in id order, each assembled from the columns on read
/// ([`RunLog::records`]). Allocates nothing; two views are equal when they
/// yield equal records, whichever tables they read.
#[derive(Clone)]
pub struct Records<'a> {
    log: &'a RunLog,
    ids: Range<usize>,
}

impl Iterator for Records<'_> {
    type Item = CellRecord;

    #[inline]
    fn next(&mut self) -> Option<CellRecord> {
        self.ids.next().map(|i| self.log.record(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for Records<'_> {}

impl PartialEq for Records<'_> {
    fn eq(&self, other: &Self) -> bool {
        Iterator::eq(self.clone(), other.clone())
    }
}

impl fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Arrival, Trace};

    fn demo_log() -> RunLog {
        let t = Trace::build(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(1, 0, 0),
                Arrival::new(2, 1, 0),
            ],
            2,
        )
        .unwrap();
        RunLog::with_cells(&t.cells(2))
    }

    #[test]
    fn delays_and_aggregates() {
        let mut log = demo_log();
        log.set_departure(CellId(0), 0);
        log.set_departure(CellId(1), 4);
        assert_eq!(log.get(CellId(0)).delay(), Some(0));
        assert_eq!(log.get(CellId(1)).delay(), Some(3));
        assert_eq!(log.max_delay(), Some(3));
        assert_eq!(log.mean_delay(), Some(1.5));
        assert_eq!(log.undelivered(), 1);
    }

    #[test]
    #[should_panic(expected = "departed twice")]
    fn double_departure_is_a_bug() {
        let mut log = demo_log();
        log.set_departure(CellId(0), 1);
        log.set_departure(CellId(0), 2);
    }

    #[test]
    fn plane_assignment_is_recorded() {
        let mut log = demo_log();
        log.set_plane(CellId(2), PlaneId(1));
        assert_eq!(log.get(CellId(2)).plane(), Some(PlaneId(1)));
        assert_eq!(log.get(CellId(0)).plane(), None);
    }

    /// Departs every cell in its arrival slot; plane 0 if `planes`.
    struct Wire {
        planes: bool,
    }

    impl crate::stepping::SlotEngine for Wire {
        fn slot(
            &mut self,
            now: Slot,
            arrivals: &[Cell],
            log: &mut RunLog,
        ) -> Result<(), crate::ModelError> {
            for c in arrivals {
                if self.planes {
                    log.set_plane(c.id, PlaneId(0));
                }
                log.set_departure(c.id, now);
            }
            Ok(())
        }
        fn backlog(&self) -> usize {
            0
        }
        fn next_activity(&self, _: Slot) -> Option<Slot> {
            None
        }
        fn skip_idle(&mut self, _: Slot, _: Slot) {}
    }

    #[test]
    fn logs_of_one_trace_share_its_table_and_store_only_their_own_columns() {
        use crate::stepping::{drive, Stepping};
        let t = Trace::build((0..50).map(|s| Arrival::new(s, 0, 1)).collect(), 2).unwrap();
        let run = |planes| drive(&mut Wire { planes }, &t, 2, Slot::MAX, Stepping::SkipAhead);
        let (pps, _) = run(true).unwrap();
        let (shadow, _) = run(false).unwrap();
        assert!(Arc::ptr_eq(&pps.cells, &t.table()));
        assert!(Arc::ptr_eq(&shadow.cells, &t.table()));
        assert_eq!((pps.plane.len(), pps.delay.len()), (50, 50));
        assert_eq!(
            shadow.plane.capacity(),
            0,
            "a shadow log has no plane column"
        );
        assert_eq!(shadow.get(CellId(49)).plane(), None);
        // A log with a table of its own compares by content.
        let mut own = RunLog::with_cells(&t.cells(2));
        assert!(!Arc::ptr_eq(&own.cells, &t.table()));
        assert_ne!(own.records(), shadow.records());
        for id in 0..50 {
            own.set_departure(CellId(id), id);
        }
        assert_eq!(own.records(), shadow.records());
        assert_ne!(own.records(), pps.records());
    }

    #[test]
    fn record_is_half_a_cache_line() {
        // Records are handed out by value: keep one at two per cache line.
        assert!(std::mem::size_of::<CellRecord>() <= 32);
    }

    #[test]
    fn a_fresh_record_reports_nothing_it_was_not_told() {
        let log = demo_log();
        for (id, rec) in log.iter() {
            assert_eq!(rec, log.get(id));
            assert_eq!(
                (rec.departure(), rec.plane(), rec.delay()),
                (None, None, None)
            );
        }
        let ids: Vec<CellId> = log.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![CellId(0), CellId(1), CellId(2)]);
        let shown = format!("{:?}", log.get(CellId(1)));
        assert!(shown.contains("departure: None, plane: None"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "pushed out of id order")]
    fn push_out_of_id_order_is_a_bug() {
        let mut log = demo_log();
        let stray = Cell {
            id: CellId(7),
            input: PortId(0),
            output: PortId(0),
            seq: 0,
            arrival: 9,
        };
        log.push(&stray);
    }

    /// Delays on both sides of every 32-bit boundary, a cell that never
    /// departs and one parked at the end of time, read back through every
    /// accessor.
    #[test]
    fn delays_read_back_exactly_across_the_32_bit_boundary() {
        let late = Slot::MAX - 40;
        let t = Trace::build(
            (0..6)
                .map(|i| Arrival::new(0, i, 0))
                .chain([Arrival::new(late, 0, 1)])
                .collect(),
            6,
        )
        .unwrap();
        let delays = [
            Some(0),
            Some((1 << 32) - 3),
            Some((1 << 32) - 2),
            Some((1 << 32) - 1),
            Some(1 << 33),
            None,
            Some(39),
        ];
        let mut log = RunLog::with_cells(&t.cells(6));
        for (i, d) in delays.iter().enumerate() {
            if let Some(d) = d {
                log.set_departure(CellId(i as u64), t.arrival(i).slot + d);
            }
        }
        let departures: Vec<Option<Slot>> = delays
            .iter()
            .zip(t.arrivals())
            .map(|(d, a)| d.map(|d| a.slot + d))
            .collect();
        assert_eq!(departures[6], Some(Slot::MAX - 1));
        assert_eq!(log.departures().collect::<Vec<_>>(), departures);
        assert_eq!(log.delays().collect::<Vec<_>>(), delays);
        for (id, rec) in log.iter() {
            assert_eq!(rec, log.get(id));
            assert_eq!(rec.departure(), departures[id.idx()]);
            assert_eq!(rec.delay(), delays[id.idx()]);
        }
        assert_eq!(log.max_delay(), Some(1 << 33));
        assert_eq!(log.undelivered(), 1);
        assert_eq!(log.digest(), 13_403_367_361_745_545_497);
    }

    #[test]
    #[should_panic(expected = "before its arrival")]
    fn departure_before_arrival_is_a_bug() {
        demo_log().set_departure(CellId(2), 1);
    }

    #[test]
    #[should_panic(expected = "is not representable")]
    fn departure_at_the_sentinel_slot_is_refused() {
        demo_log().set_departure(CellId(0), Slot::MAX);
    }

    #[test]
    #[should_panic(expected = "is not representable")]
    fn plane_at_the_sentinel_index_is_refused() {
        demo_log().set_plane(CellId(0), PlaneId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "is not representable")]
    fn plane_past_the_two_byte_column_is_refused() {
        let mut log = demo_log();
        log.set_plane(CellId(0), PlaneId(65_534));
        log.set_plane(CellId(1), PlaneId(65_535));
    }
}
