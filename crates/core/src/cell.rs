//! Fixed-size cells.
//!
//! Packets are fragmented into fixed-size cells outside the switch (paper,
//! Section 1); inside the model a cell is pure metadata. The struct is kept
//! at 32 bytes so multi-million-cell runs stay cache-friendly. Cells are
//! minted by the trace's cursor (`Trace::cursor`) as the run
//! driver reaches their arrival slot — an engine is handed one slot's
//! cells at a time, never the whole trace.

use crate::ids::{CellId, FlowId, PortId};
use crate::time::Slot;
use serde::{Deserialize, Serialize};

/// A fixed-size cell traversing the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Globally unique id in arrival order (global-FCFS rank).
    pub id: CellId,
    /// Input port the cell arrived on.
    pub input: PortId,
    /// Output port the cell is destined for.
    pub output: PortId,
    /// Per-flow sequence number (0-based); the switch must deliver a flow's
    /// cells in increasing `seq` order.
    pub seq: u32,
    /// Slot in which the cell arrived to the switch.
    pub arrival: Slot,
}

impl Cell {
    /// The flow this cell belongs to.
    #[inline]
    pub fn flow(&self) -> FlowId {
        FlowId {
            input: self.input,
            output: self.output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_is_small() {
        // Keep the hot per-cell struct within 32 bytes (see module docs).
        assert!(std::mem::size_of::<Cell>() <= 32);
    }

    #[test]
    fn flow_projection() {
        let c = Cell {
            id: CellId(0),
            input: PortId(2),
            output: PortId(5),
            seq: 0,
            arrival: 7,
        };
        assert_eq!(c.flow(), FlowId::new(2, 5));
    }
}
