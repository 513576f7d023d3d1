//! Adversarial traffic constructions — the paper's proofs, made executable.
//!
//! Every lower bound in the paper is proved by exhibiting admissible
//! traffic that forces cells destined for one output to *concentrate* in a
//! single plane (Lemma 4), whose line to that output then serializes them
//! at one cell per `r'` slots. The modules here build those traffics
//! against the *actual* demultiplexor state machines:
//!
//! * `alignment` — the generic state-steering driver: run a working copy
//!   of the demultiplexor *forward once per input*, recording its dispatch
//!   trajectory; the cell sequence after which an input's next dispatch
//!   for the target output lands on the target plane is then a table
//!   lookup, for every candidate plane at once (`alignment::DispatchLog`).
//!   This is the executable form of the proof's walk through the
//!   strongly-connected configuration graph (Figure 2, traffic `A_i`).
//! * `concentration` — the full Theorem 6 / Corollary 7 / Theorem 8 /
//!   Theorem 13 traffic `LB`: alignment phase, quiescence phase (all plane
//!   buffers drain), then `d` back-to-back cells for the hot output, one
//!   per slot from the `d` aligned inputs — burst-free leaky-bucket by
//!   construction.
//! * `urt_burst` — the Theorem 10 / Corollary 11 traffic: a burst of
//!   `u'·N/K` symmetric flows hidden inside the `u`-slot information
//!   blind spot of a `u`-RT algorithm, with burstiness `u'²·N/K − u'`.
//! * `congestion` — the Section 5 traffic: sustained overload of one
//!   output that keeps every plane backlogged (Theorem 14's congested
//!   period), which Proposition 15 shows cannot be `(R, B)` leaky-bucket
//!   for any fixed `B`.

mod alignment;
mod concentration;
mod congestion;
mod urt_burst;

pub use alignment::AlignmentPlan;
pub use concentration::{concentration_attack, concentration_attack_on, ConcentrationAttack};
pub use congestion::{congestion_traffic, CongestionTraffic};
pub use urt_burst::{urt_burst_attack, UrtBurstAttack};
