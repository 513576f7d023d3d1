//! E12 — the paper's headline message (§1.2): *"the PPS architecture does
//! not scale with increasing number of external ports … great effort is
//! currently invested in building switches with a large number of ports
//! (where N = 512 or even 1024)"*.
//!
//! We sweep the Corollary 7 attack on the round robin up to `N = 1024` and
//! fit the slope of relative delay vs `N`: it should be `≈ R/r − 1`,
//! confirming the linear-in-N wall. Points run in parallel (they are
//! independent simulations).

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack;

/// One scaling point: `(N, exact bound, measured delay, implied buffer)`.
fn point(n: usize, k: usize, r_prime: usize) -> (usize, u64, i64, usize) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    cfg.validate().expect("valid point");
    let demux = RoundRobinDemux::new(n, k);
    let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
    let cmp = compare_bufferless(cfg, demux, &atk.trace).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    // "Large relative queuing delays usually imply that the buffer sizes at
    // the middle-stage switches … should be large as well": report the
    // measured plane-buffer high-water mark alongside.
    (
        n,
        atk.model_exact_bound,
        rd.max,
        cmp.pps_stats().max_plane_queue,
    )
}

/// Run the default sweep, in parallel across points.
pub(crate) fn run() -> ExperimentOutput {
    let (k, r_prime) = (8, 4); // S = 2
    let plan = SweepPlan::new("e12", vec![64usize, 128, 256, 512, 1024]);
    let results = plan.run(|pt| point(*pt.params, k, r_prime));
    let mut table = Table::new(
        format!("Scaling to N=1024 at K={k}, r'={r_prime}, S=2 (slope should be ~ R/r-1 = 3)"),
        &[
            "N",
            "bound (exact)",
            "measured delay",
            "plane buffer HWM",
            "delay/N",
        ],
    );
    let mut pass = true;
    for &(n, bound, delay, hwm) in &results {
        pass &= delay as u64 >= bound;
        table.row_display(&[
            n.to_string(),
            bound.to_string(),
            delay.to_string(),
            hwm.to_string(),
            format!("{:.3}", delay as f64 / n as f64),
        ]);
    }
    // Least-squares slope through the (N, delay) points.
    let xs: Vec<f64> = results.iter().map(|&(n, ..)| n as f64).collect();
    let ys: Vec<f64> = results.iter().map(|&(_, _, d, _)| d as f64).collect();
    let slope = slope(&xs, &ys);
    pass &= (r_prime as f64 - 1.0 - slope).abs() < 0.2;
    ExperimentOutput {
        id: "e12",
        title: "Scaling — relative delay grows linearly in N up to 1024 ports".into(),
        tables: vec![table],
        notes: vec![format!(
            "least-squares slope of delay vs N: {slope:.3} (theory: R/r - 1 = {})",
            r_prime - 1
        )],
        pass,
    }
}

fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_512_behaves_like_the_paper_warns() {
        let (_n, bound, delay, hwm) = point(512, 8, 4);
        assert!(delay as u64 >= bound);
        // The concentration fills one plane queue with ~N(1 - 1/r') cells
        // (it drains one cell per r' slots while the burst arrives).
        assert!(hwm >= 256, "plane buffer HWM {hwm} too small");
    }

    #[test]
    fn slope_is_r_prime_minus_one() {
        let pts: Vec<(usize, i64)> = [64usize, 128, 256]
            .iter()
            .map(|&n| {
                let (_, _, d, _) = point(n, 8, 4);
                (n, d)
            })
            .collect();
        let xs: Vec<f64> = pts.iter().map(|&(n, _)| n as f64).collect();
        let ys: Vec<f64> = pts.iter().map(|&(_, d)| d as f64).collect();
        let s = slope(&xs, &ys);
        assert!((s - 3.0).abs() < 0.2, "slope {s}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
