//! # pps-reference — optimal work-conserving shadow switches
//!
//! The paper evaluates a PPS by comparison to *"an optimal work-conserving
//! (greedy) switch, operating at rate R"* that receives exactly the same
//! traffic — the **shadow** (or reference) switch, in practice an
//! output-queued switch (paper, Section 1.1). This crate provides:
//!
//! * [`oq::ShadowOq`] / [`oq::run_oq`] — a FCFS output-queued switch at rate
//!   `R`: per-output FIFO queues, one departure per output per slot, zero
//!   minimum transit time (a cell can depart in its arrival slot).
//! * [`oq::fcfs_departure_times`] — the closed-form FCFS departure schedule
//!   `dt_j = max(t, last_dt_j + 1)`, used both to cross-check the simulated
//!   switch and as the deadline oracle inside the CPA demultiplexor.
//! * [`checker`] — post-hoc verifiers: work conservation (no output idles
//!   with backlog) and per-flow order preservation, applied to any
//!   [`pps_core::RunLog`], PPS or shadow.
//! * [`regulator`] — jitter regulators (paper §6): re-time a run to
//!   constant delay and measure the internal buffer that costs, linking
//!   the relative-delay lower bounds to regulator buffer bounds.

pub mod checker;
pub mod oq;
pub mod regulator;

pub use oq::{fcfs_departure_times, ShadowOq};
