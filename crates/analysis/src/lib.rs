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
//! summaries; [`table`] renders the experiment tables and CSV series the
//! benchmark harness prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degradation;
pub mod distribution;
pub mod lockstep;
pub mod metrics;
pub mod plot;
pub mod table;
pub mod timeseries;

pub use degradation::{fault_impact, FaultImpact};
pub use distribution::{relative_delays, Histogram, Log2Histogram, Percentiles, TailQuantiles};
pub use lockstep::{
    compare, compare_buffered, compare_bufferless, compare_bufferless_faulted, Comparison,
};
pub use metrics::{flow_jitters, RelativeDelay};
pub use plot::AsciiChart;
pub use table::Table;
pub use timeseries::OutputSeries;
