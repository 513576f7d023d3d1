//! Arrival traces.
//!
//! A [`Trace`] is the exact sequence of cell arrivals offered to a switch:
//! *"the two switches receive the same cells, with the same destinations, on
//! the same input-ports"* — both the PPS and the shadow reference switch
//! consume the same trace, which is what makes relative queuing delay
//! well-defined.
//!
//! The arrival model is enforced structurally: arrivals are kept sorted by
//! slot and at most one cell may arrive per `(slot, input)` pair.
//!
//! A trace *is* its cell table: the arrivals plus each cell's per-flow
//! sequence number, numbered once when the trace is built and kept behind
//! an `Arc`. Every [`RunLog`](crate::RunLog) of the trace holds a handle to
//! that one table and stores only what its switch decided (DESIGN.md §21),
//! and every run's cursor reads the numbers instead of recounting them.

use crate::cell::Cell;
use crate::error::ModelError;
use crate::ids::{CellId, PortId};
use crate::time::Slot;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One cell arrival: at `slot`, a cell destined for `output` arrives on
/// `input`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival slot.
    pub slot: Slot,
    /// Input port.
    pub input: PortId,
    /// Destination output port.
    pub output: PortId,
}

impl Arrival {
    /// Shorthand constructor from raw indices.
    pub fn new(slot: Slot, input: u32, output: u32) -> Self {
        Arrival {
            slot,
            input: PortId(input),
            output: PortId(output),
        }
    }
}

/// What a trace's cells are, by [`CellId`]: 16 bytes of arrival plus a
/// 4-byte per-flow sequence number each. Shared, read-only, by the
/// [`Trace`], every log of it ([`RunLog::table`](crate::RunLog::table))
/// and the PPS fabric, whose queues hold bare ids and read a cell's facts
/// here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellTable {
    /// Arrivals in id order, i.e. sorted by `(slot, input)`.
    pub(crate) arrivals: Vec<Arrival>,
    /// Per-flow sequence number of each cell.
    pub(crate) seq: Vec<u32>,
}

impl CellTable {
    /// Number sorted `arrivals` within their flows: the one place per-flow
    /// sequence numbers are assigned. The counter has one slot per flow of
    /// the port range the arrivals use, and lives for this call only.
    fn number(arrivals: Vec<Arrival>) -> Self {
        let ports = arrivals
            .iter()
            .map(|a| a.input.idx().max(a.output.idx()) + 1)
            .max()
            .unwrap_or(0);
        let mut count = vec![0u32; ports * ports];
        let seq = arrivals
            .iter()
            .map(|a| {
                let count = &mut count[a.input.idx() * ports + a.output.idx()];
                *count += 1;
                *count - 1
            })
            .collect();
        CellTable { arrivals, seq }
    }

    /// Number of cells.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Input port the cell arrived on.
    #[inline]
    pub fn input(&self, id: CellId) -> PortId {
        self.arrivals[id.idx()].input
    }

    /// Output port the cell is destined for.
    #[inline]
    pub fn output(&self, id: CellId) -> PortId {
        self.arrivals[id.idx()].output
    }

    /// Per-flow sequence number.
    #[inline]
    pub fn seq(&self, id: CellId) -> u32 {
        self.seq[id.idx()]
    }

    /// Slot in which the cell arrived to the switch.
    #[inline]
    pub fn arrival(&self, id: CellId) -> Slot {
        self.arrivals[id.idx()].slot
    }

    /// The cell with id `id`, whole.
    #[inline]
    pub fn cell(&self, id: CellId) -> Cell {
        let a = self.arrivals[id.idx()];
        Cell {
            id,
            input: a.input,
            output: a.output,
            seq: self.seq[id.idx()],
            arrival: a.slot,
        }
    }
}

/// A validated arrival sequence for an `N × N` switch.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    cells: Arc<CellTable>,
}

impl Trace {
    /// Build a trace from raw arrivals.
    ///
    /// Arrivals are sorted by `(slot, input)`; the build fails if two cells
    /// share a `(slot, input)` pair (the external line carries at most one
    /// cell per slot) or if any port index is `>= n`.
    pub fn build(mut arrivals: Vec<Arrival>, n: usize) -> Result<Self, ModelError> {
        arrivals.sort_by_key(|a| (a.slot, a.input));
        for w in arrivals.windows(2) {
            if w[0].slot == w[1].slot && w[0].input == w[1].input {
                return Err(ModelError::MalformedTrace {
                    reason: format!(
                        "two arrivals on input {:?} in slot {}",
                        w[0].input, w[0].slot
                    ),
                });
            }
        }
        for a in &arrivals {
            if a.input.idx() >= n || a.output.idx() >= n {
                return Err(ModelError::MalformedTrace {
                    reason: format!("arrival {:?} references a port outside 0..{}", a, n),
                });
            }
        }
        Ok(Trace::numbered(arrivals))
    }

    /// The trace of sorted, validated `arrivals`.
    fn numbered(arrivals: Vec<Arrival>) -> Self {
        Trace {
            cells: Arc::new(CellTable::number(arrivals)),
        }
    }

    /// An empty trace.
    pub fn empty() -> Self {
        Trace::default()
    }

    /// Number of cells in the trace.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the trace carries no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.arrivals.is_empty()
    }

    /// The arrivals, sorted by `(slot, input)`.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.cells.arrivals
    }

    /// Slot of the last arrival (0 for an empty trace).
    pub fn horizon(&self) -> Slot {
        self.cells.arrivals.last().map_or(0, |a| a.slot)
    }

    /// A handle to the cell table, for a log of this trace.
    pub(crate) fn table(&self) -> Arc<CellTable> {
        Arc::clone(&self.cells)
    }

    /// Walk the trace as [`Cell`]s, lazily: global ids in arrival order and
    /// the per-flow sequence numbers the build assigned, one cell at a time.
    ///
    /// Every engine run pulls its arrivals through one of these
    /// ([`crate::stepping::drive`]), so per-cell records can be joined by
    /// [`CellId`] afterwards.
    pub(crate) fn cursor(&self) -> CellCursor<'_> {
        CellCursor {
            cells: &self.cells,
            pos: 0,
        }
    }

    /// Materialize the whole trace into [`Cell`]s for an `n`-port switch:
    /// `cursor`, collected. For test oracles that step an engine by hand
    /// and want the slice; nothing [`drive`](crate::stepping::drive) runs
    /// builds it. The cells do not depend on `n`: the build numbered them.
    pub fn cells(&self, n: usize) -> Vec<Cell> {
        debug_assert!(self
            .arrivals()
            .iter()
            .all(|a| a.input.idx().max(a.output.idx()) < n));
        self.cursor().collect()
    }

    /// Concatenate `other` onto this trace, shifting it to start `gap` slots
    /// after this trace's horizon. Used by the adversary to compose the
    /// alignment, quiescence and burst phases of Figure 2.
    pub fn then(self, other: &Trace, gap: Slot) -> Self {
        let base = if self.is_empty() {
            0
        } else {
            self.horizon() + 1 + gap
        };
        let mut arrivals = Arc::unwrap_or_clone(self.cells).arrivals;
        arrivals.extend(other.arrivals().iter().map(|a| Arrival {
            slot: a.slot + base,
            ..*a
        }));
        Trace::numbered(arrivals)
    }

    /// Shift every arrival `delta` slots later (fixture builder for the
    /// cursor tests; product code composes with [`Trace::then`]).
    #[cfg(test)]
    fn shifted(self, delta: Slot) -> Self {
        let mut arrivals = Arc::unwrap_or_clone(self.cells).arrivals;
        for a in &mut arrivals {
            a.slot += delta;
        }
        Trace::numbered(arrivals)
    }

    /// Merge two traces that are already disjoint in `(slot, input)`.
    pub fn merge(self, other: Trace, n: usize) -> Result<Self, ModelError> {
        let mut all = Arc::unwrap_or_clone(self.cells).arrivals;
        all.extend_from_slice(other.arrivals());
        Trace::build(all, n)
    }

    /// Group arrivals by slot: yields `(slot, &[Arrival])` in slot order.
    pub fn by_slot(&self) -> BySlot<'_> {
        BySlot {
            arrivals: self.arrivals(),
            pos: 0,
        }
    }
}

/// Lazy cell view of a trace; see [`Trace::cursor`].
pub(crate) struct CellCursor<'a> {
    cells: &'a CellTable,
    pos: usize,
}

impl CellCursor<'_> {
    /// Arrival slot of the next cell, or `None` once the trace is spent.
    #[inline]
    pub(crate) fn peek_slot(&self) -> Option<Slot> {
        self.cells.arrivals.get(self.pos).map(|a| a.slot)
    }

    /// The next cell if it arrives in `slot`; otherwise the cursor stays
    /// put. Called in a loop it yields exactly one slot's arrivals, in
    /// input-port order.
    #[inline]
    pub(crate) fn next_at(&mut self, slot: Slot) -> Option<Cell> {
        if self.peek_slot() == Some(slot) {
            self.next()
        } else {
            None
        }
    }
}

impl Iterator for CellCursor<'_> {
    type Item = Cell;

    #[inline]
    fn next(&mut self) -> Option<Cell> {
        if self.pos == self.cells.len() {
            return None;
        }
        self.pos += 1;
        Some(self.cells.cell(CellId(self.pos as u64 - 1)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cells.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CellCursor<'_> {}

/// Iterator over per-slot arrival groups; see [`Trace::by_slot`].
pub struct BySlot<'a> {
    arrivals: &'a [Arrival],
    pos: usize,
}

impl<'a> Iterator for BySlot<'a> {
    type Item = (Slot, &'a [Arrival]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.arrivals.len() {
            return None;
        }
        let slot = self.arrivals[self.pos].slot;
        let start = self.pos;
        while self.pos < self.arrivals.len() && self.arrivals[self.pos].slot == slot {
            self.pos += 1;
        }
        Some((slot, &self.arrivals[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_validates() {
        let t = Trace::build(
            vec![
                Arrival::new(5, 1, 0),
                Arrival::new(2, 0, 1),
                Arrival::new(5, 0, 1),
            ],
            2,
        )
        .unwrap();
        let slots: Vec<Slot> = t.arrivals().iter().map(|a| a.slot).collect();
        assert_eq!(slots, vec![2, 5, 5]);
        assert_eq!(t.horizon(), 5);
    }

    #[test]
    fn duplicate_slot_input_is_rejected() {
        let r = Trace::build(vec![Arrival::new(3, 1, 0), Arrival::new(3, 1, 1)], 2);
        assert!(matches!(r, Err(ModelError::MalformedTrace { .. })));
    }

    #[test]
    fn out_of_range_port_is_rejected() {
        let r = Trace::build(vec![Arrival::new(0, 0, 7)], 2);
        assert!(r.is_err());
    }

    #[test]
    fn cells_get_flow_sequence_numbers() {
        let t = Trace::build(
            vec![
                Arrival::new(0, 0, 1),
                Arrival::new(1, 0, 1),
                Arrival::new(2, 0, 0),
                Arrival::new(3, 0, 1),
            ],
            2,
        )
        .unwrap();
        let cells = t.cells(2);
        let seqs: Vec<u32> = cells.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 0, 2]);
        // Ids are dense in arrival order.
        assert_eq!(cells[3].id, CellId(3));
    }

    /// `Trace::cells` from the definition: one eager pass, each flow's
    /// cells counted in a map.
    fn eager_cells(t: &Trace) -> Vec<Cell> {
        let mut seq = std::collections::BTreeMap::new();
        t.arrivals()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let next = seq.entry((a.input, a.output)).or_insert(0u32);
                let s = *next;
                *next += 1;
                Cell {
                    id: CellId(i as u64),
                    input: a.input,
                    output: a.output,
                    seq: s,
                    arrival: a.slot,
                }
            })
            .collect()
    }

    #[test]
    fn cursor_yields_the_eager_cells_on_composed_traces() {
        let n = 3;
        // Several flows interleaved, some sharing an input or an output.
        let base = Trace::build(
            (0..12u64)
                .flat_map(|s| {
                    [
                        Arrival::new(s, 0, (s % 3) as u32),
                        Arrival::new(s, 2, 1),
                        Arrival::new(2 * s + 30, 1, (s % 2) as u32),
                    ]
                })
                .collect(),
            n,
        )
        .unwrap();
        let other = Trace::build(vec![Arrival::new(0, 1, 1), Arrival::new(3, 0, 0)], n).unwrap();
        let merged = base.clone().merge(other.clone().shifted(100), n).unwrap();
        for t in [
            Trace::empty(),
            base.clone(),
            base.clone().then(&other, 7).then(&base, 0),
            base.clone().shifted(1 << 40),
            merged,
        ] {
            let want = eager_cells(&t);
            assert_eq!(t.cells(n), want);
            // Slot by slot, the way the driver pulls them.
            let mut cursor = t.cursor();
            let mut got = Vec::new();
            while let Some(slot) = cursor.peek_slot() {
                assert_eq!(cursor.next_at(slot + 1), None, "not that slot's cell");
                assert_eq!(cursor.len(), want.len() - got.len());
                while let Some(cell) = cursor.next_at(slot) {
                    assert_eq!(cell.arrival, slot);
                    got.push(cell);
                }
            }
            assert_eq!(got, want);
            assert_eq!(cursor.next(), None);
        }
    }

    #[test]
    fn table_accessors_round_trip_cells() {
        let t = Trace::build(
            vec![
                Arrival::new(11, 2, 5),
                Arrival::new(3, 0, 1),
                Arrival::new(11, 0, 1),
            ],
            6,
        )
        .unwrap();
        let table = t.table();
        for c in t.cells(6) {
            let read = (
                table.input(c.id),
                table.output(c.id),
                table.seq(c.id),
                table.arrival(c.id),
            );
            assert_eq!(read, (c.input, c.output, c.seq, c.arrival));
        }
        assert_eq!(table.seq(CellId(1)), 1, "second cell of flow 0 -> 1");
    }

    #[test]
    fn same_slot_cells_ordered_by_input() {
        let t = Trace::build(vec![Arrival::new(0, 1, 0), Arrival::new(0, 0, 0)], 2).unwrap();
        let cells = t.cells(2);
        assert_eq!(cells[0].input, PortId(0));
        assert_eq!(cells[1].input, PortId(1));
    }

    #[test]
    fn composition_shifts_past_horizon() {
        let a = Trace::build(vec![Arrival::new(0, 0, 0), Arrival::new(4, 0, 0)], 1).unwrap();
        let b = Trace::build(vec![Arrival::new(0, 0, 0)], 1).unwrap();
        let c = a.then(&b, 10);
        // horizon 4, +1, +gap 10 => second trace starts at 15.
        assert_eq!(c.arrivals()[2].slot, 15);
    }

    #[test]
    fn then_on_empty_starts_at_zero() {
        let b = Trace::build(vec![Arrival::new(2, 0, 0)], 1).unwrap();
        let c = Trace::empty().then(&b, 100);
        assert_eq!(c.arrivals()[0].slot, 2);
    }

    #[test]
    fn by_slot_groups() {
        let t = Trace::build(
            vec![
                Arrival::new(1, 0, 0),
                Arrival::new(1, 1, 0),
                Arrival::new(3, 0, 0),
            ],
            2,
        )
        .unwrap();
        let groups: Vec<(Slot, usize)> = t.by_slot().map(|(s, a)| (s, a.len())).collect();
        assert_eq!(groups, vec![(1, 2), (3, 1)]);
    }
}
