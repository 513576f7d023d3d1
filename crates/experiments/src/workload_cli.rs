//! `ppslab --workload <spec>` — one-shot tail-delay report for any
//! workload specification.
//!
//! ```text
//! ppslab --workload "zipf:n=16,load=0.85,s=1.1,flows=1048576,seed=7"
//! ppslab --workload "mmpp:n=8,calm=0.1,burst=0.9" --workload-k 8 --workload-rprime 4
//! ppslab --workload "replay:path=capture.csv,n=16"
//! ```
//!
//! Materializes the spec (see `pps_workload::WorkloadSpec` for the
//! families and keys), runs it through one demultiplexor per information
//! class against the shadow OQ switch, and prints mean/p99/p999/max
//! relative delay per class plus the trace's measured burstiness. The
//! same report backs the E19 experiment; this entry point exists so a
//! spec can be explored without writing code — the spec string is the
//! full reproducible name of the run.

use crate::e19_stochastic_tails;
use pps_analysis::{relative_delays, TailQuantiles};
use pps_core::prelude::*;
use pps_traffic::{min_burstiness, TraceStats};
use pps_workload::WorkloadSpec;

/// Execute a `--workload` run; returns the printable report.
pub fn run_workload(spec_str: &str, k: usize, r_prime: usize) -> Result<String, String> {
    let spec = WorkloadSpec::parse(spec_str)?;
    let n = spec.ports();
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    cfg.validate().map_err(|e| e.to_string())?;
    let trace = spec.trace()?;
    if trace.is_empty() {
        return Err(format!("workload {spec_str:?} produced no cells"));
    }
    let b = min_burstiness(&trace, n).overall();
    let envelope = pps_core::bounds::traffic_envelope(&cfg, b);

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "workload             : {spec_str}");
    let _ = writeln!(out, "family               : {}", spec.family());
    let _ = writeln!(
        out,
        "traffic              : {}",
        TraceStats::of(&trace, n).summary()
    );
    let _ = writeln!(out, "burstiness B_min     : {b}");
    let _ = writeln!(
        out,
        "geometry             : N={n} K={k} r'={r_prime} (envelope bound {envelope})"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "class", "mean", "p99", "p999", "max", "undeliv"
    );

    for (label, run) in e19_stochastic_tails::classes() {
        let cmp = run(cfg, &trace).map_err(|e| e.to_string())?;
        let tails = TailQuantiles::from(&relative_delays(&cmp.pps.log, &cmp.oq))
            .expect("trace is nonempty");
        let _ = writeln!(
            out,
            "{label:<22} {:>10.2} {:>8} {:>8} {:>8} {:>8}",
            tails.mean,
            tails.p99,
            tails.p999,
            tails.max,
            cmp.relative_delay().pps_undelivered
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_classes() {
        let out = run_workload("uniform:n=8,load=0.7,seed=3,horizon=2000", 8, 4).unwrap();
        assert!(out.contains("fully-dist (rr)"), "{out}");
        assert!(out.contains("u-RT (stale:2)"), "{out}");
        assert!(out.contains("centralized (cpa)"), "{out}");
        assert!(out.contains("burstiness B_min"), "{out}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = run_workload("zipf:n=8,load=0.6,seed=11,horizon=3000", 8, 4).unwrap();
        let b = run_workload("zipf:n=8,load=0.6,seed=11,horizon=3000", 8, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_specs_are_reported() {
        assert!(run_workload("nope:x=1", 8, 4).is_err());
        assert!(run_workload("zipf:bogus=1", 8, 4).is_err());
    }
}
