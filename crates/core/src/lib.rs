//! # pps-core — formal model substrate for the Parallel Packet Switch reproduction
//!
//! This crate implements Section 2 ("Formal Model for Parallel Packet
//! Switches") of Attiya & Hay, *The Inherent Queuing Delay of Parallel Packet
//! Switches*, SPAA 2004:
//!
//! * **Slotted time** ([`Slot`]): a time slot is the time needed to transmit
//!   one cell at the external line rate `R`. Per slot at most one cell
//!   arrives at each input port and at most one cell departs each output
//!   port.
//! * **Cells and flows** ([`cell::Cell`], [`ids::FlowId`]): fixed-size cells
//!   belonging to input→output flows whose internal order must be preserved.
//! * **Rate-constrained internal lines** ([`link::LinkBank`]): the internal
//!   lines run at rate `r = R/r'`; a cell transmitted on a line occupies it
//!   for `r'` slots (the paper's *input constraint* and *output constraint*).
//! * **Demultiplexor state machines** ([`demux`]): the paper models the
//!   dispatching logic of each input port as a deterministic state machine
//!   classified by the information it may use — fully distributed, `u`
//!   real-time distributed, or centralized. The traits in [`demux`] encode
//!   exactly that classification, and every concrete algorithm in the
//!   workspace implements them.
//!
//! The crate deliberately contains no simulation engine: the PPS engine
//! lives in `pps-switch`, the reference (shadow) switch in `pps-reference`,
//! and traffic in `pps-traffic`. Keeping the model types and the
//! [`demux::Demultiplexor`] trait here lets the adversarial traffic
//! constructions probe demultiplexor state machines without depending on the
//! engine — mirroring the paper's treatment of demultiplexors as standalone
//! automata.

pub mod bounds;
pub mod cell;
pub mod config;
pub mod demux;
mod error;
pub mod fault;
pub mod ids;
pub mod link;
pub mod oracle;
pub mod perf;
pub mod prelude;
pub mod process;
mod queue;
pub mod rate;
mod record;
pub mod rng;
pub mod run;
pub mod snapshot;
pub mod stepping;
mod store;
pub mod sweep;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod trace;
pub mod trace_io;
pub mod workers;

pub use cell::Cell;
pub use config::{BufferSpec, OutputDiscipline, PpsConfig};
pub use error::ModelError;
pub use fault::FaultEvent;
pub use ids::{CellId, PlaneId, PortId};
pub use oracle::{OracleKind, OracleViolation};
pub use record::RunLog;
pub use stepping::Stepping;
pub use time::Slot;
pub use trace::Trace;
