//! Strongly-typed identifiers for ports, planes, flows and cells.
//!
//! An `N × N` PPS has `N` input ports, `N` output ports and `K` center-stage
//! planes. Input/output ports and planes are all small dense indices, but
//! mixing them up is the classic simulator bug, so each gets a
//! `#[repr(transparent)]` newtype over `u32`. Cells get a `u64` id assigned
//! in global arrival order (ties broken by input port), which doubles as the
//! global-FCFS rank used by the `GlobalFcfs` output discipline.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an input or output port (`0..N`).
///
/// The PPS is symmetric (`N × N`), and the paper indexes inputs and outputs
/// from the same range, so a single port type covers both sides; the field
/// position in [`FlowId`] disambiguates the role.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct PortId(pub u32);

/// Index of a center-stage switch ("plane", `0..K`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct PlaneId(pub u32);

/// Globally unique cell identifier, assigned in arrival order.
///
/// Cells arriving in the same slot are ordered by input port; this total
/// order is exactly the *global FCFS* discipline of the reference
/// output-queued switch (footnote 3 in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct CellId(pub u64);

/// A flow is the stream of cells from one input port to one output port.
///
/// The switch must deliver the cells of a flow in order and without loss
/// (paper, Section 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId {
    /// Source input port.
    pub input: PortId,
    /// Destination output port.
    pub output: PortId,
}

impl PortId {
    /// The raw index as a `usize`, for array indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PlaneId {
    /// The raw index as a `usize`, for array indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl CellId {
    /// The raw id as a `usize`, for dense per-cell logs.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl FlowId {
    /// Construct a flow identifier from raw port indices.
    #[inline]
    pub fn new(input: u32, output: u32) -> Self {
        FlowId {
            input: PortId(input),
            output: PortId(output),
        }
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for PlaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for PlaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}->{})", self.input.0, self.output.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_ids_order_like_their_numbers() {
        assert!(CellId(3) < CellId(10));
        assert_eq!(CellId(7).idx(), 7);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", PortId(3)), "p3");
        assert_eq!(format!("{:?}", PlaneId(2)), "k2");
        assert_eq!(format!("{:?}", FlowId::new(1, 5)), "(1->5)");
    }
}
