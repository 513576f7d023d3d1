//! # pps-workload — stochastic heavy-traffic workload engine
//!
//! Every trace the simulator switched before this crate came from a
//! scripted worst-case adversary (`pps-traffic`): ideal for confirming the
//! paper's inherent-delay *lower bounds*, silent about the average case a
//! PPS actually serves. This crate supplies the stochastic half — seeded,
//! allocation-lean generators behind one trait:
//!
//! * [`ArrivalStream`] — a lazy arrival process that answers
//!   [`next_activity`](ArrivalStream::next_activity) so materialization
//!   (and everything downstream) skips silence; [`materialize`] turns a
//!   stream into a validated [`pps_core::Trace`] in `O(cells)` for any
//!   horizon — a 10⁸-slot sparse soak is seconds, not hours.
//! * [`ZipfGen`] — Zipf-skewed flow populations over millions of flow ids
//!   (O(1) rejection-inversion sampling), destinations hashed per flow so
//!   elephant flows make hot outputs.
//! * [`MmppGen`] / [`OnOffBurstGen`] — Markov-modulated bursts correlated
//!   across inputs, and independent full-rate on-off trains.
//! * [`UniformGen`] / [`Shaped`] — memoryless baseline, and leaky-bucket
//!   policing that makes any stream *admissible by construction*, on
//!   `pps_traffic`'s per-output bucket and contract.
//! * `ReplayStream` — recorded/CSV traces through the same pipe.
//! * `DiagonalCbr` — constant-bit-rate control traffic, one cell per
//!   period per input, input `i` to output `i`.
//! * `classes` — multi-class tagging and the strict-priority output mux
//!   for per-class tail comparisons.
//!
//! Determinism is the design axis: every generator draws from per-input
//! [`SplitMix64`](pps_core::rng::SplitMix64) substreams derived from one
//! master seed ([`derive`](pps_core::rng::SplitMix64::derive)), so a
//! `(spec, seed)` pair is a replayable name for a trace — byte-identical
//! across machines, `--jobs` widths, and dense vs skip-ahead walks
//! (property-tested in `tests/property.rs`).
//!
//! [`WorkloadSpec`] is the textual surface: `ppslab run --workload
//! "zipf:n=8,load=0.85,s=1.1,flows=1048576,seed=7"` parses here, as do
//! the chaos harness's stochastic corpus draws.

mod cbr;
mod classes;
mod mmpp;
mod replay;
mod shaped;
mod spec;
mod stream;
mod zipf;

pub use classes::{priority_oq_delays, ClassedTrace};
pub use mmpp::{MmppGen, OnOffBurstGen, Phase};
pub use shaped::{Shaped, UniformGen};
pub use spec::{SpecKeys, WorkloadSpec};
pub use stream::{materialize, materialize_dense, ArrivalStream};
pub use zipf::ZipfGen;
