//! E12 — the paper's headline message (§1.2): *"the PPS architecture does
//! not scale with increasing number of external ports … great effort is
//! currently invested in building switches with a large number of ports
//! (where N = 512 or even 1024)"*.
//!
//! We sweep the Corollary 7 attack on the round robin up to `N = 1024` and
//! fit the slope of relative delay vs `N`: it should be `≈ R/r − 1`,
//! confirming the linear-in-N wall. Points run in parallel (they are
//! independent simulations).

use crate::attack::{concentration, AttackPoint};
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::RoundRobinDemux;

/// One scaling point and the plane-buffer high-water mark it implies.
fn point(n: usize, k: usize, r_prime: usize, sink: &Sink) -> (AttackPoint, usize) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let (attack, cmp) = concentration(cfg, RoundRobinDemux::new(n, k), n, 4 * k, sink);
    // "Large relative queuing delays usually imply that the buffer sizes at
    // the middle-stage switches … should be large as well": report the
    // measured plane-buffer high-water mark alongside.
    (attack, cmp.pps_stats().max_plane_queue)
}

/// Run the default sweep, in parallel across points.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (k, r_prime) = (8, 4); // S = 2
    let plan = SweepPlan::new_in("e12", vec![64usize, 128, 256, 512, 1024], sink);
    let results = plan.run(|pt| point(*pt.params, k, r_prime, pt.sink));
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
    let mut claims = Claims::default();
    for (&n, (a, hwm)) in plan.points().iter().zip(&results) {
        claims.at(format!("N = {n}"));
        claims.check("measured delay ≥ bound (exact)", a.delay, a.exact);
        table.row_display(&[
            n.to_string(),
            a.exact.to_string(),
            a.delay.to_string(),
            hwm.to_string(),
            format!("{:.3}", a.delay as f64 / n as f64),
        ]);
    }
    // Least-squares slope through the (N, delay) points.
    let xs: Vec<f64> = plan.points().iter().map(|&n| n as f64).collect();
    let ys: Vec<f64> = results.iter().map(|(a, _)| a.delay as f64).collect();
    let slope = slope(&xs, &ys);
    let linear = "least-squares slope of delay vs N within 0.2 of R/r - 1";
    claims.at("N = 64..1024").check(linear, slope, r_prime - 1);
    ExperimentOutput::new(
        "e12",
        "Scaling — relative delay grows linearly in N up to 1024 ports",
        vec![table],
        &[&format!(
            "least-squares slope of delay vs N: {slope:.3} (theory: R/r - 1 = {})",
            r_prime - 1
        )],
        claims,
    )
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
        let (a, hwm) = point(512, 8, 4, &Sink::default());
        assert!(a.delay as u64 >= a.exact);
        // The concentration fills one plane queue with ~N(1 - 1/r') cells
        // (it drains one cell per r' slots while the burst arrives).
        assert!(hwm >= 256, "plane buffer HWM {hwm} too small");
    }

    #[test]
    fn slope_is_r_prime_minus_one() {
        let pts: Vec<(usize, i64)> = [64usize, 128, 256]
            .iter()
            .map(|&n| {
                let (a, _) = point(n, 8, 4, &Sink::default());
                (n, a.delay)
            })
            .collect();
        let xs: Vec<f64> = pts.iter().map(|&(n, _)| n as f64).collect();
        let ys: Vec<f64> = pts.iter().map(|&(_, d)| d as f64).collect();
        let s = slope(&xs, &ys);
        assert!((s - 3.0).abs() < 0.2, "slope {s}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
