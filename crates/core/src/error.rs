//! Model-level errors.
//!
//! The PPS model forbids dropping cells and forbids violating the internal
//! line-rate constraints; a demultiplexing algorithm that attempts either is
//! *incorrect*, and the engine surfaces that as a hard error rather than
//! silently mis-simulating.

use crate::ids::{CellId, PlaneId, PortId};
use crate::time::Slot;
use std::fmt;

/// Errors raised by the switch engines when a configuration or an algorithm
/// breaks the formal model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A configuration parameter is out of the model's domain.
    InvalidConfig {
        /// Human-readable explanation of the violated requirement.
        reason: String,
    },
    /// A demultiplexor dispatched a cell onto an input line that is still
    /// occupied (paper's *input constraint*: one cell per `r'` slots).
    InputConstraintViolation {
        /// Input port owning the line.
        input: PortId,
        /// Plane at the far end of the line.
        plane: PlaneId,
        /// Slot of the offending transmission.
        at: Slot,
        /// Slot at which the line becomes free again.
        busy_until: Slot,
    },
    /// A plane attempted to send two cells to the same output within `r'`
    /// slots (paper's *output constraint*). The engine schedules plane
    /// departures itself, so seeing this indicates an engine bug — it is
    /// still checked defensively.
    OutputConstraintViolation {
        /// Plane owning the line.
        plane: PlaneId,
        /// Output port at the far end of the line.
        output: PortId,
        /// Slot of the offending transmission.
        at: Slot,
        /// Slot at which the line becomes free again.
        busy_until: Slot,
    },
    /// An input-buffered demultiplexor tried to buffer a cell into a full
    /// buffer. The model forbids dropping cells, so this is fatal.
    BufferOverflow {
        /// Input port whose buffer overflowed.
        input: PortId,
        /// Configured buffer capacity.
        capacity: usize,
        /// The cell that could not be stored.
        cell: CellId,
    },
    /// A demultiplexor returned a plane index `>= K`.
    PlaneOutOfRange {
        /// The invalid plane index.
        plane: PlaneId,
        /// Number of planes in the switch.
        k: usize,
    },
    /// A buffered demultiplexor referenced a buffer slot that does not hold
    /// a cell.
    BadBufferIndex {
        /// Input port of the offending decision.
        input: PortId,
        /// The out-of-range or empty index.
        index: usize,
    },
    /// A trace violated the arrival model (two cells in one slot on one
    /// input port, or unsorted slots).
    MalformedTrace {
        /// Human-readable explanation.
        reason: String,
    },
    /// A line occupancy `at + r'` does not fit the `Slot` range: the run
    /// has reached the end of representable time.
    SlotOverflow {
        /// Slot of the transmission.
        at: Slot,
        /// The occupancy window `r'` that could not be added to it.
        r_prime: Slot,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            ModelError::InputConstraintViolation {
                input,
                plane,
                at,
                busy_until,
            } => write!(
                f,
                "input constraint violated: line ({input:?},{plane:?}) used at slot {at} but busy until {busy_until}"
            ),
            ModelError::OutputConstraintViolation {
                plane,
                output,
                at,
                busy_until,
            } => write!(
                f,
                "output constraint violated: line ({plane:?},{output:?}) used at slot {at} but busy until {busy_until}"
            ),
            ModelError::BufferOverflow {
                input,
                capacity,
                cell,
            } => write!(
                f,
                "input buffer overflow at {input:?} (capacity {capacity}) while storing {cell:?}"
            ),
            ModelError::PlaneOutOfRange { plane, k } => {
                write!(f, "demultiplexor chose plane {plane:?} but K = {k}")
            }
            ModelError::BadBufferIndex { input, index } => {
                write!(f, "demultiplexor referenced empty buffer slot {index} at {input:?}")
            }
            ModelError::MalformedTrace { reason } => write!(f, "malformed trace: {reason}"),
            ModelError::SlotOverflow { at, r_prime } => write!(
                f,
                "slot overflow: a line taken at slot {at} cannot be held for r' = {r_prime} slots"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_constraint() {
        let e = ModelError::InputConstraintViolation {
            input: PortId(1),
            plane: PlaneId(2),
            at: 10,
            busy_until: 12,
        };
        let s = e.to_string();
        assert!(s.contains("input constraint"));
        assert!(s.contains("busy until 12"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = ModelError::PlaneOutOfRange {
            plane: PlaneId(9),
            k: 4,
        };
        assert_eq!(a.clone(), a);
    }
}
