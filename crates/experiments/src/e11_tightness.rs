//! E11 — tightness of Corollary 7: Iyer & McKeown's fully-distributed
//! algorithm \[15\] mimics a FCFS output-queued switch with relative delay
//! at most `N·K/S = N·R/r` at `S ≥ 2`, so together with the `(R/r − 1)·N`
//! lower bound the relative queuing delay of a bufferless fully-distributed
//! PPS is `Θ((R/r)·N)`.
//!
//! Victim/hero: the per-flow round robin (the spirit of \[15\]'s
//! spreading). We measure it under the concentration attack (lower side)
//! and under heavy admissible loads (typical side), and check everything
//! sits inside the `[(R/r−1)(N−1), (R/r)·N]` window.

use crate::attack::concentration;
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::PerFlowRoundRobinDemux;
use pps_traffic::gen::BernoulliGen;

/// Run the default sweep over N.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (k, r_prime) = (8, 4); // S = 2 as required by [15]
    let mut table = Table::new(
        format!("Theta((R/r)N) tightness at K={k}, r'={r_prime}, S=2 (per-flow round robin)"),
        &[
            "N",
            "lower bound (exact)",
            "upper bound N*R/r",
            "attack delay",
            "bernoulli-0.9 delay",
            "within window",
        ],
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e11", vec![8usize, 16, 32, 64], sink);
    let results = plan.run(|pt| {
        let n = *pt.params;
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        let demux = PerFlowRoundRobinDemux::new(n, k);
        let (attack, _) = concentration(cfg, demux.clone(), n, 4 * k, pt.sink);
        let bern = BernoulliGen::uniform(0.9, 31).trace(n, 1_500);
        let bern = compare_bufferless_in(cfg, demux, &bern, pt.sink).expect("run");
        (attack, bern.relative_delay())
    });
    for (&n, (attack, bern)) in plan.points().iter().zip(results) {
        let upper = (n * r_prime) as i64;
        claims.at(format!("N = {n}"));
        let (delay, lower) = (attack.delay, attack.exact);
        let ok = claims.check("attack delay ≥ lower bound (exact)", delay, lower)
            & claims.check("attack delay ≤ upper bound N*R/r", attack.delay, upper)
            & claims.check("bernoulli-0.9 delay ≤ upper bound N*R/r", bern.max, upper)
            & claims.check("bernoulli-0.9 undelivered = 0", bern.pps_undelivered, 0);
        table.row_display(&[
            n.to_string(),
            attack.exact.to_string(),
            upper.to_string(),
            attack.delay.to_string(),
            bern.max.to_string(),
            if ok { "yes".into() } else { "NO".to_string() },
        ]);
    }
    ExperimentOutput::new(
        "e11",
        "Tightness — lower bound meets the Iyer-McKeown N*R/r upper bound: Theta((R/r)N)",
        vec![table],
        &[
            "the same algorithm exhibits both sides: worst-case traffic drives it to \
             the lower bound, while no traffic pushes it past N*R/r",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_reaches_lower_bound_but_not_past_upper() {
        let n = 16;
        let cfg = PpsConfig::bufferless(n, 8, 4);
        let demux = PerFlowRoundRobinDemux::new(n, 8);
        let (a, _) = concentration(cfg, demux, n, 32, &Sink::default());
        assert_eq!(
            a.aligned, n,
            "per-flow RR is unpartitioned: all inputs align"
        );
        assert!(a.delay as u64 >= a.exact);
        assert!(
            a.delay <= (n * 4) as i64,
            "upper bound violated: {}",
            a.delay
        );
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
