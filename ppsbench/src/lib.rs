//! `ppsbench` — the end-to-end + per-layer benchmark of the PPS simulator.
//! See `README.md` beside this crate for names, commands and the ledger.

pub mod compare;
pub mod golden;
pub mod loops;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod traced;
pub mod workloads;
pub mod yardstick;
