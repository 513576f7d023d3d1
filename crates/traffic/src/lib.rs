//! # pps-traffic — workloads for the PPS reproduction
//!
//! The admissibility model every theorem assumes, and two families of
//! traffic emitted as validated [`pps_core::Trace`]s:
//!
//! * `leaky_bucket` — Definition 3's `(R, B)` leaky bucket, written once: the per-output [`Bucket`], the [`LbContract`] it
//!   checks, and the exact minimal-burstiness scan ([`min_burstiness`],
//!   [`IncrementalBurstiness`]). `pps_workload::Shaped` polices with the
//!   same [`Bucket`].
//! * [`gen`] — stochastic workload generators (Bernoulli i.i.d., bursty
//!   on/off, with uniform / hotspot / permutation / diagonal destination
//!   patterns) for the throughput/latency experiments.
//! * [`adversary`] — the executable lower-bound constructions: the
//!   alignment + quiescence + concentration traffic of Theorem 6 /
//!   Corollary 7 / Theorem 8 / Theorem 13 (Figure 2), the hidden-window
//!   burst of Theorem 10 / Corollary 11, and the congestion traffic of
//!   Theorem 14 / Proposition 15. The adversary manipulates *actual*
//!   demultiplexor state machines through [`pps_core::demux::Demultiplexor`]
//!   clones, mirroring the proofs' navigation of the configuration graph.

pub mod adversary;
#[cfg(test)]
mod aqt;
pub mod gen;
mod leaky_bucket;
mod stats;

pub use leaky_bucket::{min_burstiness, Bucket, IncrementalBurstiness, LbContract};
pub use stats::TraceStats;
