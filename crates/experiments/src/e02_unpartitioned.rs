//! E2 — Corollary 7: a bufferless PPS with an *unpartitioned*
//! fully-distributed demultiplexing algorithm (every plane usable by every
//! input — the fault-tolerant configuration) has relative queuing delay
//! and jitter at least `(R/r − 1)·N` under burst-free traffic.
//!
//! Victim: the per-input round robin. Sweep: `N`.

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack;
use pps_traffic::min_burstiness;

/// One sweep point at `n` ports over `k` planes with slowdown `r_prime`.
fn point(n: usize, k: usize, r_prime: usize) -> (usize, u64, u64, i64, i64, u64) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    cfg.validate().expect("valid sweep point");
    let demux = RoundRobinDemux::new(n, k);
    let all: Vec<u32> = (0..n as u32).collect();
    let atk = concentration_attack(&demux, &cfg, &all, 4 * k);
    let b = min_burstiness(&atk.trace, n).overall();
    let cmp = compare_bufferless(cfg, demux, &atk.trace).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    (
        atk.d,
        atk.predicted_bound,
        atk.model_exact_bound,
        rd.max,
        cmp.relative_jitter(),
        b,
    )
}

/// Run the default sweep.
pub(crate) fn run() -> ExperimentOutput {
    let (k, r_prime) = (8, 4); // S = 2, the practical regime of [15]
    let mut table = Table::new(
        format!("Corollary 7 sweep: K={k}, r'={r_prime}, S=2 (bound = (R/r-1)*N)"),
        &[
            "N",
            "d aligned",
            "bound (paper)",
            "bound (exact)",
            "measured delay",
            "measured jitter",
            "traffic B",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new("e2", vec![8usize, 16, 32, 64, 128]);
    let results = plan.run(|pt| point(*pt.params, k, r_prime));
    for (&n, (d, paper, exact, delay, jitter, b)) in plan.points().iter().zip(results) {
        pass &= d == n && delay as u64 >= exact && jitter as u64 >= exact && b == 0;
        table.row_display(&[
            n.to_string(),
            d.to_string(),
            paper.to_string(),
            exact.to_string(),
            delay.to_string(),
            jitter.to_string(),
            b.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e2",
        title: "Corollary 7 — unpartitioned fully-distributed lower bound (R/r-1)*N".into(),
        tables: vec![table],
        notes: vec![
            "every input aligns (d = N): fault tolerance demands every demultiplexor \
             can reach every plane, which is exactly what the adversary exploits"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_inputs_align_and_bound_holds() {
        let (d, _paper, exact, delay, jitter, b) = point(16, 8, 4);
        assert_eq!(d, 16);
        assert_eq!(b, 0);
        assert!(delay as u64 >= exact);
        assert!(jitter as u64 >= exact);
    }

    #[test]
    fn delay_grows_linearly_with_n() {
        let d8 = point(8, 8, 4).3;
        let d32 = point(32, 8, 4).3;
        // 4x the ports => ~4x the relative delay (slope (r'-1) = 3).
        let ratio = d32 as f64 / d8 as f64;
        assert!((3.0..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
