//! Per-cell run records.
//!
//! Each switch engine (PPS and shadow) produces a [`RunLog`]: for every cell
//! of the trace, when it arrived, when it departed, and — for the PPS —
//! which plane carried it. A record is appended when its cell enters the
//! switch ([`crate::stepping::drive`] pushes each slot's arrivals before it
//! hands them to the engine), so the log grows in [`CellId`] order and a
//! cell's id *is* its index. Relative queuing delay and relative delay
//! jitter are computed by joining two logs on that id in `pps-analysis`.
//!
//! A [`CellRecord`] is 32 bytes, half a cache line (DESIGN.md §21): the
//! two `Option`s it reports are stored as sentinel values behind
//! [`departure`](CellRecord::departure) and [`plane`](CellRecord::plane),
//! and the setters refuse the two values that would alias "none".

use crate::cell::Cell;
use crate::ids::{CellId, FlowId, PlaneId, PortId};
use crate::time::Slot;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stored `departure` of a cell that has not departed.
const NO_DEPARTURE: Slot = Slot::MAX;
/// Stored `plane` of a cell no plane was recorded for.
const NO_PLANE: u32 = u32::MAX;

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
    plane: u32,
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
        (self.plane != NO_PLANE).then_some(PlaneId(self.plane))
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

/// Dense per-cell log of one simulation run, indexed by [`CellId`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunLog {
    records: Vec<CellRecord>,
}

impl RunLog {
    /// An empty log with room for `cells` records.
    pub fn with_capacity(cells: usize) -> Self {
        RunLog {
            records: Vec::with_capacity(cells),
        }
    }

    /// A log holding an undeparted record for each of `cells` (the whole
    /// trace up front; test oracles that step an engine by hand use it).
    pub fn with_cells(cells: &[Cell]) -> Self {
        let mut log = RunLog::with_capacity(cells.len());
        for cell in cells {
            log.push(cell);
        }
        log
    }

    /// Append the record of a cell entering the switch: not departed, no
    /// plane.
    ///
    /// # Panics
    /// Panics unless `cell.id` is the next index — ids are dense in arrival
    /// order, which is what lets a record do without a stored id.
    #[inline]
    pub fn push(&mut self, cell: &Cell) {
        assert!(
            cell.id.idx() == self.records.len(),
            "cell {:?} pushed out of id order (the log holds {} records)",
            cell.id,
            self.records.len()
        );
        self.records.push(CellRecord {
            arrival: cell.arrival,
            departure: NO_DEPARTURE,
            input: cell.input,
            output: cell.output,
            seq: cell.seq,
            plane: NO_PLANE,
        });
    }

    /// Record the plane assignment of a cell.
    ///
    /// # Panics
    /// Panics on `PlaneId(u32::MAX)`, which the record cannot tell from
    /// "no plane".
    #[inline]
    pub fn set_plane(&mut self, id: CellId, plane: PlaneId) {
        assert!(
            plane.0 != NO_PLANE,
            "plane {plane:?} of cell {id:?} is not representable in a record"
        );
        self.records[id.idx()].plane = plane.0;
    }

    /// Record the departure slot of a cell.
    ///
    /// # Panics
    /// Panics if the cell already departed — a duplicated departure is an
    /// engine bug, never a modeling outcome — and on `Slot::MAX`, which the
    /// record cannot tell from "not departed".
    #[inline]
    pub fn set_departure(&mut self, id: CellId, slot: Slot) {
        assert!(
            slot != NO_DEPARTURE,
            "departure slot {slot} of cell {id:?} is not representable in a record"
        );
        let rec = &mut self.records[id.idx()];
        assert!(
            rec.departure == NO_DEPARTURE,
            "cell {id:?} departed twice (slots {:?} and {slot})",
            rec.departure()
        );
        rec.departure = slot;
    }

    /// All records, indexed by cell id.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// Every record beside its cell id, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CellId, &CellRecord)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (CellId(i as u64), r))
    }

    /// The record of a specific cell.
    pub fn get(&self, id: CellId) -> &CellRecord {
        &self.records[id.idx()]
    }

    /// Number of cells in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Number of cells that never departed (still queued at horizon).
    pub fn undelivered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.departure().is_none())
            .count()
    }

    /// Maximum queuing delay over delivered cells.
    pub fn max_delay(&self) -> Option<Slot> {
        self.records.iter().filter_map(|r| r.delay()).max()
    }

    /// Mean queuing delay over delivered cells.
    pub fn mean_delay(&self) -> Option<f64> {
        let (sum, n) = self
            .records
            .iter()
            .filter_map(|r| r.delay())
            .fold((0u128, 0u64), |(s, n), d| (s + d as u128, n + 1));
        (n > 0).then(|| sum as f64 / n as f64)
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

    #[test]
    fn record_is_half_a_cache_line() {
        // Two records per 64-byte line (see module docs).
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
}
