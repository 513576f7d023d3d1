//! # pps-analysis — measuring a PPS against its shadow switch
//!
//! The paper's performance figures are *relative*: the PPS and an optimal
//! work-conserving output-queued switch consume the identical trace, and
//! we report the differences (paper, Section 1.1):
//!
//! * **relative queuing delay** — `max_c (delay_PPS(c) − delay_OQ(c))`;
//! * **relative delay jitter** — per flow, jitter is the maximal
//!   difference in queuing delay between two of its cells; the relative
//!   jitter is `max_f (jitter_PPS(f) − jitter_OQ(f))`.
//!
//! [`lockstep`] runs both switches and joins the per-cell logs;
//! [`metrics`] computes the relative figures plus throughput/occupancy
//! summaries; `table` renders the experiment tables and CSV series the
//! benchmark harness prints.

mod degradation;
pub mod distribution;
pub mod lockstep;
pub mod metrics;
mod table;

pub use degradation::{fault_impact, FaultImpact};
pub use distribution::{relative_delays, TailQuantiles};
pub use lockstep::{
    compare_buffered, compare_buffered_in, compare_bufferless, compare_bufferless_faulted,
    compare_bufferless_faulted_in, compare_bufferless_in, Comparison,
};
pub use table::Table;
