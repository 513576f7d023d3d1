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
//! A trace *is* its cell table: each cell's arrival and per-flow sequence
//! number, numbered once when the trace is built and kept behind an `Arc`.
//! Every [`RunLog`](crate::RunLog) of the trace holds a handle to that one
//! table and stores only what its switch decided (DESIGN.md §21), and every
//! run's cursor reads the numbers instead of recounting them. The table
//! stores each column at the width its values need:
//!
//! | column | bytes per cell |
//! |---|---|
//! | arrival slot, low 32 bits | 4 (the high word once per run of cells that share it) |
//! | input, output | 2 + 2 (ports are `0..`[`MAX_PORTS`]) |
//! | seq | 4 |
//!
//! An [`Arrival`] is the value a reader sees, assembled from the row on read
//! ([`Trace::arrival`], [`Trace::arrivals`], [`Trace::by_slot`]). Every
//! table is written in id order through one appender, [`TraceBuilder`]:
//! [`Trace::build`] hands it the sorted arrivals at once, a streaming
//! generator one slot at a time, so the whole trace is never staged as
//! `Arrival`s.

use crate::cell::Cell;
use crate::error::ModelError;
use crate::ids::{CellId, PortId};
use crate::time::Slot;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Ports a trace can name: the cell table stores a port in 16 bits, so a
/// switch has at most this many (`N ≤ 65536`).
pub const MAX_PORTS: usize = 1 << 16;

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

/// One cell of a [`CellTable`]: 12 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    /// Arrival slot, low 32 bits (the high word is the table's).
    slot: u32,
    input: u16,
    output: u16,
    seq: u32,
}

/// What a trace's cells are, by [`CellId`]: a 12-byte row each — the low
/// word of the arrival slot, 16-bit input and output ports, the 4-byte
/// per-flow sequence number — plus one entry per run of cells whose
/// arrival slots share a high word. Shared, read-only, by the [`Trace`],
/// every log of it ([`RunLog::table`](crate::RunLog::table)) and the PPS
/// fabric, whose queues hold bare ids and read a cell's facts here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellTable {
    /// One row per cell, in id order, i.e. sorted by `(slot, input)`.
    rows: Vec<Row>,
    /// `(first id, slot >> 32)` of each run of rows whose slots share a
    /// high word, in id order: one entry for a trace that stays below slot
    /// 2³², which is what the read path's fast branch expects.
    highs: Vec<(usize, u32)>,
}

impl CellTable {
    /// Append the row of the next cell: the one writer of a table.
    ///
    /// # Panics
    /// Panics on a port outside `0..MAX_PORTS`.
    pub(crate) fn push(&mut self, slot: Slot, input: PortId, output: PortId, seq: u32) {
        let high = (slot >> 32) as u32;
        if self.highs.last().map(|&(_, h)| h) != Some(high) {
            self.highs.push((self.rows.len(), high));
        }
        let port = |p: PortId| {
            u16::try_from(p.0)
                .unwrap_or_else(|_| panic!("port {p:?} is outside the table's 0..{MAX_PORTS}"))
        };
        self.rows.push(Row {
            slot: slot as u32,
            input: port(input),
            output: port(output),
            seq,
        });
    }

    /// Number of cells.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Arrival slot of the cell at index `i`.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Slot {
        let high = match self.highs.as_slice() {
            [(_, high)] => *high,
            runs => high_word(runs, i),
        };
        (high as Slot) << 32 | self.rows[i].slot as Slot
    }

    /// The arrival of the cell at index `i`.
    #[inline]
    fn arrival_at(&self, i: usize) -> Arrival {
        let row = self.rows[i];
        Arrival {
            slot: self.slot(i),
            input: PortId(row.input.into()),
            output: PortId(row.output.into()),
        }
    }

    /// The arrivals of the cells at `ids`, as a view.
    pub(crate) fn arrivals(&self, ids: Range<usize>) -> Arrivals<'_> {
        Arrivals { table: self, ids }
    }

    /// Input port the cell arrived on.
    #[inline]
    pub fn input(&self, id: CellId) -> PortId {
        PortId(self.rows[id.idx()].input.into())
    }

    /// Output port the cell is destined for.
    #[inline]
    pub fn output(&self, id: CellId) -> PortId {
        PortId(self.rows[id.idx()].output.into())
    }

    /// Per-flow sequence number.
    #[inline]
    pub fn seq(&self, id: CellId) -> u32 {
        self.rows[id.idx()].seq
    }

    /// Slot in which the cell arrived to the switch.
    #[inline]
    pub fn arrival(&self, id: CellId) -> Slot {
        self.slot(id.idx())
    }

    /// The cell with id `id`, whole.
    #[inline]
    pub fn cell(&self, id: CellId) -> Cell {
        self.cell_arriving(id, self.slot(id.idx()))
    }

    /// The cell with id `id`, whose arrival slot the caller has read.
    #[inline]
    fn cell_arriving(&self, id: CellId, arrival: Slot) -> Cell {
        let row = self.rows[id.idx()];
        Cell {
            id,
            input: PortId(row.input.into()),
            output: PortId(row.output.into()),
            seq: row.seq,
            arrival,
        }
    }
}

/// The high slot word of the cell at index `i`, from the runs of a table
/// that crosses a multiple of 2³² (kept out of line: no benchmark trace
/// does).
#[cold]
#[inline(never)]
fn high_word(runs: &[(usize, u32)], i: usize) -> u32 {
    runs[runs.partition_point(|&(first, _)| first <= i) - 1].1
}

/// Writes a [`Trace`] in id order, numbering each cell within its flow:
/// the one appender behind [`Trace::build`] (which hands it every arrival,
/// sorted, at once) and a streaming generator (which hands it one slot's
/// arrivals at a time, so the trace is never staged whole).
pub struct TraceBuilder {
    /// Ports of the switch; every port must be below it and [`MAX_PORTS`].
    n: usize,
    table: CellTable,
    count: FlowCounts,
    /// `(slot, input)` of the last arrival appended.
    last: Option<(Slot, PortId)>,
}

/// Cells so far per flow, for numbering; it lives only for the build.
enum FlowCounts {
    /// One counter per flow of an `n`-port switch, at `input · n + output`:
    /// one zeroed allocation, mapped in as flows are touched and returned
    /// whole when the build ends.
    Flat(Vec<u32>),
    /// A row per input that has sent a cell, as wide as the outputs it has
    /// sent to: for a switch too wide for a flat table.
    Rows(Vec<Vec<u32>>),
}

/// Widest switch whose flows get a flat counter (16 M flows, 64 MiB
/// mapped on demand).
const FLAT_PORTS: usize = 1 << 12;

impl TraceBuilder {
    /// An empty trace for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        let count = if n <= FLAT_PORTS {
            FlowCounts::Flat(vec![0; n * n])
        } else {
            FlowCounts::Rows(Vec::new())
        };
        TraceBuilder {
            n,
            table: CellTable::default(),
            count,
            last: None,
        }
    }

    /// Append `arrivals`, sorted here by `(slot, input)`; every one must
    /// come after each arrival appended before, in that order. The batch is
    /// refused whole, with the error [`Trace::build`] gives, if two of its
    /// arrivals (or its first and the last appended) share a
    /// `(slot, input)` pair, or if it names a port outside `0..n`.
    pub fn append(&mut self, arrivals: &mut [Arrival]) -> Result<(), ModelError> {
        let malformed = |reason| Err(ModelError::MalformedTrace { reason });
        arrivals.sort_unstable_by_key(|a| (a.slot, a.input));
        let ports = self.n.min(MAX_PORTS);
        let mut prev = self.last;
        let mut outside = None;
        for a in arrivals.iter() {
            let key = (a.slot, a.input);
            match prev.map(|p| (p, key.cmp(&p))) {
                Some((_, Ordering::Equal)) => {
                    return malformed(format!(
                        "two arrivals on input {:?} in slot {}",
                        a.input, a.slot
                    ))
                }
                Some(((slot, input), Ordering::Less)) => {
                    return malformed(format!(
                        "arrival {a:?} comes after input {input:?} in slot {slot} was appended"
                    ))
                }
                _ => {}
            }
            if outside.is_none() && (a.input.idx() >= ports || a.output.idx() >= ports) {
                outside = Some(a);
            }
            prev = Some(key);
        }
        if let Some(a) = outside {
            return malformed(format!(
                "arrival {a:?} references a port outside 0..{ports}"
            ));
        }
        for a in arrivals.iter() {
            self.push(a);
        }
        Ok(())
    }

    /// Append `a`, numbered, without checking it.
    fn push(&mut self, a: &Arrival) {
        let (i, o) = (a.input.idx(), a.output.idx());
        let count = match &mut self.count {
            FlowCounts::Flat(count) => &mut count[i * self.n + o],
            FlowCounts::Rows(rows) => {
                if rows.len() <= i {
                    rows.resize_with(i + 1, Vec::new);
                }
                let row = &mut rows[i];
                if row.len() <= o {
                    row.resize(o + 1, 0);
                }
                &mut row[o]
            }
        };
        *count += 1;
        self.table.push(a.slot, a.input, a.output, *count - 1);
        self.last = Some((a.slot, a.input));
    }

    /// The trace appended so far.
    pub fn finish(self) -> Trace {
        Trace {
            cells: Arc::new(self.table),
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
    /// cell per slot) or if any port index is `>= n` or `>=`
    /// [`MAX_PORTS`].
    pub fn build(mut arrivals: Vec<Arrival>, n: usize) -> Result<Self, ModelError> {
        let mut trace = TraceBuilder::new(n);
        trace.append(&mut arrivals)?;
        Ok(trace.finish())
    }

    /// The trace of `arrivals`, in order and unchecked: a composition of
    /// valid traces.
    fn composed(arrivals: impl Iterator<Item = Arrival>) -> Self {
        let mut trace = TraceBuilder::new(MAX_PORTS);
        for a in arrivals {
            trace.push(&a);
        }
        trace.finish()
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
        self.len() == 0
    }

    /// The `i`-th arrival in `(slot, input)` order (the arrival of
    /// `CellId(i)`).
    pub fn arrival(&self, i: usize) -> Arrival {
        self.cells.arrival_at(i)
    }

    /// The arrivals, sorted by `(slot, input)`.
    pub fn arrivals(&self) -> Arrivals<'_> {
        self.cells.arrivals(0..self.len())
    }

    /// Slot of the last arrival (0 for an empty trace).
    pub fn horizon(&self) -> Slot {
        self.len().checked_sub(1).map_or(0, |i| self.cells.slot(i))
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
        Trace::composed(self.arrivals().chain(other.arrivals().map(|a| Arrival {
            slot: a.slot + base,
            ..a
        })))
    }

    /// Shift every arrival `delta` slots later (fixture builder for the
    /// cursor tests; product code composes with [`Trace::then`]).
    #[cfg(test)]
    fn shifted(self, delta: Slot) -> Self {
        Trace::composed(self.arrivals().map(|a| Arrival {
            slot: a.slot + delta,
            ..a
        }))
    }

    /// Merge two traces that are already disjoint in `(slot, input)`.
    pub fn merge(self, other: Trace, n: usize) -> Result<Self, ModelError> {
        Trace::build(self.arrivals().chain(other.arrivals()).collect(), n)
    }

    /// Group arrivals by slot: yields `(slot, arrivals)` in slot order.
    pub fn by_slot(&self) -> BySlot<'_> {
        BySlot {
            cells: &self.cells,
            pos: 0,
        }
    }
}

/// Arrivals of a run of cells in id order, each assembled from its table
/// row on read ([`Trace::arrivals`], [`Trace::by_slot`],
/// [`RunLog::arrivals`](crate::RunLog::arrivals)). Allocates nothing.
#[derive(Clone)]
pub struct Arrivals<'a> {
    table: &'a CellTable,
    ids: Range<usize>,
}

impl Iterator for Arrivals<'_> {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        self.ids.next().map(|i| self.table.arrival_at(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl DoubleEndedIterator for Arrivals<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Arrival> {
        self.ids.next_back().map(|i| self.table.arrival_at(i))
    }
}

impl ExactSizeIterator for Arrivals<'_> {}

impl fmt::Debug for Arrivals<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
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
        (self.pos < self.cells.len()).then(|| self.cells.slot(self.pos))
    }

    /// The next cell if it arrives in `slot`; otherwise the cursor stays
    /// put. Called in a loop it yields exactly one slot's arrivals, in
    /// input-port order.
    #[inline]
    pub(crate) fn next_at(&mut self, slot: Slot) -> Option<Cell> {
        if self.peek_slot() != Some(slot) {
            return None;
        }
        self.pos += 1;
        Some(self.cells.cell_arriving(CellId(self.pos as u64 - 1), slot))
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
    cells: &'a CellTable,
    pos: usize,
}

impl<'a> Iterator for BySlot<'a> {
    type Item = (Slot, Arrivals<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.pos;
        if start == self.cells.len() {
            return None;
        }
        let slot = self.cells.slot(start);
        self.pos += 1;
        while self.pos < self.cells.len() && self.cells.slot(self.pos) == slot {
            self.pos += 1;
        }
        Some((slot, self.cells.arrivals(start..self.pos)))
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
        let slots: Vec<Slot> = t.arrivals().map(|a| a.slot).collect();
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
        // A port the table cannot store is refused whatever `n` says.
        let wide = 70_000;
        let r = Trace::build(vec![Arrival::new(0, 0, 65_536)], wide);
        let err = r.unwrap_err().to_string();
        assert!(err.contains("outside 0..65536"), "{err}");
        assert!(Trace::build(vec![Arrival::new(0, 65_535, 0)], wide).is_ok());
    }

    #[test]
    fn a_row_is_12_bytes_and_a_short_trace_has_one_high_word() {
        assert_eq!(std::mem::size_of::<Row>(), 12);
        let t = Trace::build((0..5).map(|s| Arrival::new(s << 20, 0, 0)).collect(), 1).unwrap();
        assert_eq!(t.cells.highs, vec![(0, 0)]);
        let late = t.then(
            &Trace::build(vec![Arrival::new(0, 0, 0)], 1).unwrap(),
            1 << 33,
        );
        assert_eq!(late.cells.highs, vec![(0, 0), (5, 2)]);
        assert_eq!(late.horizon(), (4 << 20) + 1 + (1 << 33));
    }

    #[test]
    fn appending_slot_by_slot_builds_what_build_builds() {
        let all = vec![
            Arrival::new(0, 1, 0),
            Arrival::new(0, 0, 1),
            Arrival::new(4, 1, 1),
            Arrival::new(4, 0, 1),
        ];
        let mut trace = TraceBuilder::new(2);
        trace.append(&mut all[..2].to_vec()).unwrap();
        trace.append(&mut []).unwrap();
        trace.append(&mut all[2..].to_vec()).unwrap();
        let built = Trace::build(all.clone(), 2).unwrap();
        assert_eq!(trace.finish(), built);

        // A duplicate across two batches reads as it does within one.
        let mut trace = TraceBuilder::new(2);
        trace.append(&mut [Arrival::new(3, 1, 0)]).unwrap();
        let across = trace.append(&mut [Arrival::new(3, 1, 1)]).unwrap_err();
        let within = Trace::build(vec![Arrival::new(3, 1, 0), Arrival::new(3, 1, 1)], 2);
        assert_eq!(across.to_string(), within.unwrap_err().to_string());
        // A batch that goes back in time is refused whole.
        let mut back = vec![Arrival::new(2, 0, 0), Arrival::new(5, 0, 0)];
        let err = trace.append(&mut back).unwrap_err().to_string();
        assert!(err.contains("comes after"), "{err}");
        assert_eq!(trace.finish().len(), 1);
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

    /// Slots on both sides of 2³², at 2⁴⁰ and near the end of time, cells
    /// on port 65535 and a log with plane 65534: every value at the edge
    /// of a narrow column, read back through every accessor, and the log
    /// pinned by digest.
    #[test]
    fn edge_values_read_back_through_every_accessor() {
        const N: usize = 1 << 16;
        const TOP: u32 = (1 << 16) - 1;
        let end = Slot::MAX - 40;
        let want = vec![
            Arrival::new(0, 0, TOP),
            Arrival::new(0, TOP, 1),
            Arrival::new((1 << 32) - 1, 0, 0),
            Arrival::new((1 << 32) - 1, 2, TOP),
            Arrival::new(1 << 32, TOP, TOP),
            Arrival::new(1 << 40, 0, TOP),
            Arrival::new(end, 0, TOP),
            Arrival::new(end, 1, 0),
        ];
        let seqs = [0, 0, 0, 0, 0, 1, 2, 0];
        let t = Trace::build(want.iter().rev().copied().collect(), N).unwrap();

        assert_eq!(t.len(), 8);
        assert_eq!(t.horizon(), end);
        let highs = [(0, 0), (4, 1), (5, 1 << 8), (6, u32::MAX)];
        assert_eq!(t.cells.highs, highs);
        for (i, a) in want.iter().enumerate() {
            assert_eq!(t.arrival(i), *a);
        }
        assert_eq!(t.arrivals().collect::<Vec<_>>(), want);
        let backwards: Vec<Arrival> = t.arrivals().rev().collect();
        assert_eq!(backwards, want.iter().rev().copied().collect::<Vec<_>>());
        let groups: Vec<(Slot, Vec<Arrival>)> =
            t.by_slot().map(|(s, g)| (s, g.collect())).collect();
        assert_eq!(
            groups,
            vec![
                (0, want[0..2].to_vec()),
                ((1 << 32) - 1, want[2..4].to_vec()),
                (1 << 32, want[4..5].to_vec()),
                (1 << 40, want[5..6].to_vec()),
                (end, want[6..8].to_vec()),
            ]
        );

        let cells: Vec<Cell> = want
            .iter()
            .zip(seqs)
            .enumerate()
            .map(|(i, (a, seq))| Cell {
                id: CellId(i as u64),
                input: a.input,
                output: a.output,
                seq,
                arrival: a.slot,
            })
            .collect();
        assert_eq!(t.cells(N), cells);
        let mut cursor = t.cursor();
        let mut pulled = Vec::new();
        while let Some(slot) = cursor.peek_slot() {
            while let Some(cell) = cursor.next_at(slot) {
                pulled.push(cell);
            }
        }
        assert_eq!(pulled, cells);
        let table = t.table();
        for c in &cells {
            let read = (
                table.input(c.id),
                table.output(c.id),
                table.seq(c.id),
                table.arrival(c.id),
            );
            assert_eq!(read, (c.input, c.output, c.seq, c.arrival));
        }

        // Composition: `then` past a high word, `merge` of interleaved halves.
        let part = |arrivals: &[Arrival], back: Slot| {
            let shifted = arrivals.iter().map(|a| Arrival {
                slot: a.slot - back,
                ..*a
            });
            Trace::build(shifted.collect(), N).unwrap()
        };
        assert_eq!(part(&want[..4], 0).then(&part(&want[4..], 1 << 32), 0), t);
        assert_eq!(Trace::empty().then(&t, 9), t);
        let (evens, odds): (Vec<Arrival>, Vec<Arrival>) =
            want.iter().partition(|a| a.input.0 % 2 == 0);
        assert_eq!(part(&evens, 0).merge(part(&odds, 0), N).unwrap(), t);

        // The CSV interchange, in memory and through a file.
        let mut csv = Vec::new();
        crate::trace_io::write_csv(&t, &mut csv).unwrap();
        assert_eq!(crate::trace_io::read_csv(&csv[..], N).unwrap(), t);
        let dir = std::env::temp_dir().join("pps_trace_edge_values");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        crate::trace_io::save(&t, &path).unwrap();
        assert_eq!(crate::trace_io::load(&path, N).unwrap(), t);
        let _ = std::fs::remove_file(&path);

        // A log of it: delays of 0, 2³² and more, one cell left queued,
        // planes 0 and 65534.
        let departures = [
            Some(3),
            Some(1 << 32),
            Some((1 << 32) - 1),
            None,
            Some(1 << 40),
            Some((1 << 40) + 7),
            Some(Slot::MAX - 1),
            Some(end),
        ];
        let decide = |log: &mut crate::RunLog| {
            for (i, d) in departures.iter().enumerate() {
                if let Some(d) = d {
                    log.set_departure(CellId(i as u64), *d);
                }
            }
            log.set_plane(CellId(0), crate::PlaneId(0));
            log.set_plane(CellId(4), crate::PlaneId(TOP - 1));
        };
        let mut log = crate::RunLog::new(&t);
        for c in t.cells(N) {
            log.push(&c);
        }
        decide(&mut log);
        let mut own = crate::RunLog::with_cells(&cells);
        decide(&mut own);
        assert_eq!(own.records(), log.records());
        assert_eq!(log.arrivals().collect::<Vec<_>>(), want);
        assert_eq!(log.departures().collect::<Vec<_>>(), departures);
        let planes: Vec<Option<u32>> = log.records().map(|r| r.plane().map(|p| p.0)).collect();
        let mut want_planes = [None; 8];
        want_planes[0] = Some(0);
        want_planes[4] = Some(TOP - 1);
        assert_eq!(planes, want_planes);
        assert_eq!(log.digest(), own.digest());
        assert_eq!(log.digest(), 17_964_873_601_089_520_079);
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
        assert_eq!(c.arrival(2).slot, 15);
    }

    #[test]
    fn then_on_empty_starts_at_zero() {
        let b = Trace::build(vec![Arrival::new(2, 0, 0)], 1).unwrap();
        let c = Trace::empty().then(&b, 100);
        assert_eq!(c.arrival(0).slot, 2);
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
