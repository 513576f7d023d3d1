//! E2 — Corollary 7: a bufferless PPS with an *unpartitioned*
//! fully-distributed demultiplexing algorithm (every plane usable by every
//! input — the fault-tolerant configuration) has relative queuing delay
//! and jitter at least `(R/r − 1)·N` under burst-free traffic.
//!
//! Victim: the per-input round robin. Sweep: `N`.

use crate::attack::{concentration, AttackPoint};
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::RoundRobinDemux;

/// One sweep point at `n` ports over `k` planes with slowdown `r_prime`.
fn point(n: usize, k: usize, r_prime: usize, sink: &Sink) -> AttackPoint {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    concentration(cfg, RoundRobinDemux::new(n, k), n, 4 * k, sink).0
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (k, r_prime) = (8, 4); // S = 2, the practical regime of [15]
    let mut table = Table::new(
        format!("Corollary 7 sweep: K={k}, r'={r_prime}, S=2 (bound = (R/r-1)*N)"),
        &[&["N", "d aligned"][..], &AttackPoint::HEADERS].concat(),
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e2", vec![8usize, 16, 32, 64, 128], sink);
    let results = plan.run(|pt| point(*pt.params, k, r_prime, pt.sink));
    for (&n, a) in plan.points().iter().zip(results) {
        a.check(claims.at(format!("N = {n}")), "=", "0");
        claims.check("d aligned = N", a.aligned, n);
        table.row_display(&[&[n.to_string(), a.aligned.to_string()][..], &a.cells()].concat());
    }
    ExperimentOutput::new(
        "e2",
        "Corollary 7 — unpartitioned fully-distributed lower bound (R/r-1)*N",
        vec![table],
        &[
            "every input aligns (d = N): fault tolerance demands every demultiplexor \
             can reach every plane, which is exactly what the adversary exploits",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_inputs_align_and_bound_holds() {
        let a = point(16, 8, 4, &Sink::default());
        assert_eq!(a.aligned, 16);
        assert_eq!(a.burstiness, 0);
        assert_eq!((a.delay, a.jitter), (a.exact as i64, a.exact as i64));
    }

    #[test]
    fn delay_grows_linearly_with_n() {
        let d8 = point(8, 8, 4, &Sink::default()).delay;
        let d32 = point(32, 8, 4, &Sink::default()).delay;
        // 4x the ports => ~4x the relative delay (slope (r'-1) = 3).
        let ratio = d32 as f64 / d8 as f64;
        assert!((3.0..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
