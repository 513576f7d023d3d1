//! # pps-chaos — randomized fault/traffic fuzzing with invariant oracles
//!
//! The experiment suite checks that each engine reproduces the paper's
//! bounds on *chosen* workloads; this crate checks that the engines stay
//! *internally coherent* on workloads nobody chose. A seed-driven fuzzer
//! composes random admissible traffic (Bernoulli or bursty on/off under a
//! leaky-bucket cap, uniform/hotspot/permutation/diagonal destinations)
//! with random fault schedules (plane failures and recoveries, link
//! degradation windows) and random switch geometry, then drives the PPS
//! under test alongside the shadow OQ, the VOQ crossbar (scheduler drawn
//! per case from the zoo — iSLIP, QPS-r or SW-QPS) and the CIOQ switch
//! (policy and speedup likewise drawn) in lockstep, with every runtime
//! invariant oracle armed:
//!
//! * **cell conservation** — arrivals = departures + backlog + drops,
//!   checked every slot ([`pps_core::oracle`]);
//! * **per-flow FIFO** on every engine's run log (which refuses a double
//!   or pre-arrival departure outright);
//! * **no phantom / double / pre-arrival departures**, **output-line
//!   constraint**, **no dispatch to a visibly-down plane**, and
//!   **watchdog counter consistency** — folded over the telemetry event
//!   stream (`oracle::check_stream`);
//! * the paper's **relative-delay envelope** vs the shadow OQ, on the
//!   cases where it is a theorem (fault-free, bufferless, deterministic
//!   spreading).
//!
//! On a violation the harness shrinks: ddmin over the fault events, then
//! horizon truncation, preserving the failure kind — and emits a
//! minimized repro (reduced plan CSV, replay command, trace tail of the
//! failing slots). `ppslab chaos --seed <s> --cases <n>` is the driver
//! face; reports are byte-identical at any `--jobs` because cases fan out
//! over [`pps_core::sweep::SweepPlan`] and merge in declared order.

mod case;
pub mod cli;
mod oracle;
mod report;
mod runner;
mod shrink;
