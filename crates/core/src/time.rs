//! Slotted time.
//!
//! The paper normalizes the external line rate to `R` = one cell per time
//! slot: *"a time-slot is the time required to transmit a cell at rate R"*.
//! All delays, deadlines and link occupancy windows in this workspace are
//! expressed in slots.

/// A discrete time slot index.
///
/// Plain `u64` alias rather than a newtype: slot arithmetic (deadline
/// computation, busy-until bookkeeping, interval algebra in the leaky-bucket
/// validator) is pervasive and the newtype ceremony buys nothing here — port
/// and plane indices, which *are* easy to mix up, get real newtypes in
/// [`crate::ids`].
pub type Slot = u64;
