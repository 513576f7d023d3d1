//! # pps-crossbar — input-queued crossbar baseline
//!
//! The alternative to parallelism that motivates the PPS: a *single*
//! `N × N` crossbar running at the full external rate `R`, with virtual
//! output queues (VOQs) at the inputs and an iterative round-robin
//! matching arbiter (iSLIP, after McKeown). The paper's related work
//! (Tamir & Chi's arbitrated crossbars; Chuang et al.'s CIOQ speedup
//! bound) frames the PPS against exactly this design point:
//!
//! * the crossbar needs its fabric and arbiter to run at rate `R` —
//!   which is what becomes infeasible at high line rates and drives
//!   designers to the PPS;
//! * the PPS runs everything at `r < R` but pays the Ω((R/r − 1)·N)
//!   relative delay of its distributed demultiplexors.
//!
//! Experiment E13 puts the two (plus the OQ ideal) on one delay-vs-load
//! chart.
//!
//! The crossbar here is cycle-accurate under the same slotted model as
//! the rest of the workspace: per slot at most one cell arrives per
//! input, the scheduler computes a matching over non-empty VOQs, matched
//! cells traverse the fabric and depart in the same slot (zero minimum
//! transit, like the other engines), and per-flow order is preserved by
//! construction (VOQs are FIFO and a flow lives in exactly one VOQ).
//!
//! ## The scheduler zoo
//!
//! The fabric is generic over [`scheduler::CrossbarScheduler`]; the
//! matching disciplines on offer:
//!
//! | scheduler | discipline | provenance |
//! |---|---|---|
//! | [`IslipArbiter`] | iterative round-robin grant/accept | McKeown, iSLIP |
//! | [`QpsRScheduler`] | queue-proportional sampling, `r` rounds | Gong et al., arXiv 1905.05392 |
//! | [`SwQpsScheduler`] | sliding-window QPS batch matching | Meng et al., arXiv 2010.08620 |
//!
//! Every discipline reads the switch's [`Occupancy`] index — queue
//! lengths, row totals and non-empty bitmaps kept current by the VOQs'
//! `push`/`pop` — and walks bitmaps instead of rescanning `N²` lengths
//! (DESIGN.md §15).
//!
//! The CIOQ switch ([`CioqSwitch`]) separately offers critical-cell-first
//! or rotating maximal matching under configurable speedup
//! ([`cioq::CioqPolicy`], after Cogill & Lall, arXiv cs/0605030).

pub mod cioq;
mod islip;
mod occupancy;
mod scheduler;
mod switch;

pub use cioq::{run_cioq_in, run_cioq_policy, CioqPolicy, CioqSwitch};
pub use islip::IslipArbiter;
pub use occupancy::Occupancy;
pub use scheduler::{CrossbarScheduler, QpsRScheduler, SwQpsScheduler};
pub use switch::{run_crossbar_in, run_crossbar_with, CrossbarSwitch};
