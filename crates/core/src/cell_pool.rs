//! Structure-of-arrays cell storage.
//!
//! Queues inside the engines (plane FIFOs, resequencer rings, output heaps)
//! used to park 32-byte [`Cell`] values. At multi-million-cell scale that
//! copies four words per hop and scatters the per-cell metadata across every
//! queue's backing store. A [`CellPool`] keeps the metadata once, in parallel
//! arrays indexed by the cell's dense [`CellId`], so queues hold bare 8-byte
//! ids and the per-slot loops touch one cache-dense column per field they
//! actually read.
//!
//! Ids are assigned in global arrival order by the trace's cell cursor
//! ([`Trace::cursor`](crate::trace::Trace::cursor)), which the run driver
//! pulls one slot at a time, so within one run the pool is a dense
//! append-mostly table: [`ensure`](CellPool::ensure) is an O(1) write for the
//! common in-order case and idempotent for re-registration (the buffered
//! engine registers a cell at arrival and again at dispatch). An id is
//! *stable for the lifetime of the run*: nothing is freed per cell, and
//! recycling happens wholesale via [`clear`](CellPool::clear) when an engine
//! is reused for a fresh run.

use crate::cell::Cell;
use crate::ids::{CellId, PortId};
use crate::time::Slot;

/// Parallel-array store of per-cell metadata, indexed by [`CellId`].
#[derive(Clone, Debug, Default)]
pub struct CellPool {
    input: Vec<PortId>,
    output: Vec<PortId>,
    seq: Vec<u32>,
    arrival: Vec<Slot>,
}

impl CellPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for at least `cells` total entries (run-length known up
    /// front, e.g. `Trace::len`), so the arrays grow once.
    pub fn reserve(&mut self, cells: usize) {
        let extra = cells.saturating_sub(self.input.len());
        self.input.reserve(extra);
        self.output.reserve(extra);
        self.seq.reserve(extra);
        self.arrival.reserve(extra);
    }

    /// Number of id slots the pool covers (one past the highest id seen).
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// Record `cell`'s metadata under its id. Idempotent: re-registering a
    /// cell overwrites the slot with the same values. Ids arriving out of
    /// order are fine — the gap is filled with placeholder entries that the
    /// straggler's own `ensure` later overwrites (ids are dense per run, so
    /// gaps are transient).
    #[inline]
    pub fn ensure(&mut self, cell: &Cell) {
        let idx = cell.id.idx();
        if idx >= self.input.len() {
            self.input.resize(idx + 1, PortId(0));
            self.output.resize(idx + 1, PortId(0));
            self.seq.resize(idx + 1, 0);
            self.arrival.resize(idx + 1, 0);
        }
        self.input[idx] = cell.input;
        self.output[idx] = cell.output;
        self.seq[idx] = cell.seq;
        self.arrival[idx] = cell.arrival;
    }

    /// Input port the cell arrived on.
    #[inline]
    pub fn input(&self, id: CellId) -> PortId {
        self.input[id.idx()]
    }

    /// Output port the cell is destined for.
    #[inline]
    pub fn output(&self, id: CellId) -> PortId {
        self.output[id.idx()]
    }

    /// Per-flow sequence number.
    #[inline]
    pub fn seq(&self, id: CellId) -> u32 {
        self.seq[id.idx()]
    }

    /// Slot in which the cell arrived to the switch.
    #[inline]
    pub fn arrival(&self, id: CellId) -> Slot {
        self.arrival[id.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, input: u32, output: u32, seq: u32, arrival: Slot) -> Cell {
        Cell {
            id: CellId(id),
            input: PortId(input),
            output: PortId(output),
            seq,
            arrival,
        }
    }

    #[test]
    fn round_trips_cells() {
        let mut pool = CellPool::new();
        let c = cell(0, 2, 5, 7, 11);
        pool.ensure(&c);
        assert_eq!(pool.input(CellId(0)), PortId(2));
        assert_eq!(pool.output(CellId(0)), PortId(5));
        assert_eq!(pool.seq(CellId(0)), 7);
        assert_eq!(pool.arrival(CellId(0)), 11);
    }

    #[test]
    fn ensure_is_idempotent_and_gap_tolerant() {
        let mut pool = CellPool::new();
        pool.ensure(&cell(3, 1, 1, 0, 4)); // out of order: ids 0..3 are gaps
        assert_eq!(pool.len(), 4);
        pool.ensure(&cell(1, 0, 2, 5, 2)); // straggler fills its own slot
        pool.ensure(&cell(1, 0, 2, 5, 2)); // re-registration is a no-op
        assert_eq!(pool.len(), 4);
        assert_eq!(
            (pool.output(CellId(1)), pool.seq(CellId(1))),
            (PortId(2), 5)
        );
        assert_eq!(
            (pool.input(CellId(3)), pool.arrival(CellId(3))),
            (PortId(1), 4)
        );
    }
}
