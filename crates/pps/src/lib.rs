//! # pps-switch — cycle-accurate Parallel Packet Switch simulator
//!
//! The subject of the reproduction: a three-stage Clos packet switch with
//! `K` center-stage planes running at internal rate `r = R/r'` (paper,
//! Section 2 and Figure 1).
//!
//! * [`engine::Pps`] — the switch, generic over its input stage;
//!   [`engine::BufferlessPps`] / [`engine::BufferedPps`] name the paper's two
//!   variants. Enforces the input/output line constraints, per-slot
//!   arrival/departure cardinality, flow-order preservation, and the
//!   information classification of the demultiplexing algorithm.
//! * [`demux`] — one implementation per algorithm class the paper
//!   discusses: fully-distributed (round robin, per-flow round robin,
//!   randomized, static partition, FTD), `u`-RT (stale least-loaded,
//!   arbitrated crossbar), centralized (CPA), and the Theorem 12 delayed
//!   CPA.
//! * `plane`, [`output`], [`fabric`], [`agenda`] — the switching fabric
//!   internals.
//!
//! ## Quick example
//!
//! ```
//! use pps_core::prelude::*;
//! use pps_switch::demux::RoundRobinDemux;
//! use pps_switch::engine::run_bufferless;
//!
//! // A 4x4 PPS with 4 planes at half the external rate (S = 2).
//! let cfg = PpsConfig::bufferless(4, 4, 2);
//! let trace = Trace::build(
//!     (0..16).map(|t| Arrival::new(t, (t % 4) as u32, ((t + 1) % 4) as u32)).collect(),
//!     4,
//! ).unwrap();
//! let run = run_bufferless(cfg, RoundRobinDemux::new(4, 4), &trace).unwrap();
//! assert_eq!(run.log.undelivered(), 0);
//! ```

pub mod agenda;
pub mod demux;
pub mod engine;
pub mod fabric;
pub mod output;
mod plane;

pub use engine::{BufferedPps, BufferlessPps, InputStage, Pps};
