//! Convenience re-exports for downstream crates.
//!
//! `use pps_core::prelude::*;` brings in every type needed to configure
//! and build a switch, author traffic, implement a demultiplexing
//! algorithm, or consume run logs.

pub use crate::cell::Cell;
pub use crate::config::{BufferSpec, OutputDiscipline, PpsConfig};
pub use crate::demux::{
    ArrivalAction, BufferedDecision, BufferedDemultiplexor, Demultiplexor, DispatchCtx, InfoClass,
    LocalView,
};
pub use crate::error::ModelError;
pub use crate::fault::{FaultEvent, FaultPlan, PlaneMask};
pub use crate::ids::{CellId, FlowId, PlaneId, PortId};
pub use crate::link::{LinkBank, LinkSide};
pub use crate::queue::FifoSlab;
pub use crate::rate::Ratio;
pub use crate::record::{CellRecord, Records, RunLog};
pub use crate::run::{RunSpec, Sink};
pub use crate::snapshot::{GlobalSnapshot, SnapshotRing};
pub use crate::stepping::Stepping;
pub use crate::time::Slot;
pub use crate::trace::{Arrival, CellTable, Trace};
