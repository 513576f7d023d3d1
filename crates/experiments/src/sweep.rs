//! Declarative parameter sweeps with a deterministic parallel executor.
//!
//! The executor itself lives in [`pps_core::sweep`] since PR 6 (the chaos
//! harness schedules its fuzz cases through the same work-stealing loop,
//! and `pps-chaos` sits below this crate in the dependency graph). This
//! module re-exports the two names drivers use — [`SweepPlan`] and the
//! [`set_jobs`] budget — so `ppslab` and the tests keep their imports.
//!
//! See `pps_core::sweep` for the determinism contract (declared-order
//! merge, byte-identical tables at any `--jobs`) and the seed-derivation
//! rules.

pub use pps_core::sweep::SweepPlan;
pub use pps_core::workers::set_jobs;
