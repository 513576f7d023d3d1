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

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::PerFlowRoundRobinDemux;
use pps_traffic::adversary::concentration_attack;
use pps_traffic::gen::BernoulliGen;

/// Run the default sweep over N.
pub(crate) fn run() -> ExperimentOutput {
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
    let mut pass = true;
    let plan = SweepPlan::new("e11", vec![8usize, 16, 32, 64]);
    let results = plan.run(|pt| {
        let n = *pt.params;
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        let demux = PerFlowRoundRobinDemux::new(n, k);
        let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
        let attack_cmp = compare_bufferless(cfg, demux.clone(), &atk.trace).expect("run");
        let bern = BernoulliGen::uniform(0.9, 31).trace(n, 1_500);
        let bern_cmp = compare_bufferless(cfg, demux, &bern).expect("run");
        (
            atk.model_exact_bound,
            attack_cmp.relative_delay().max,
            bern_cmp.relative_delay().max,
            attack_cmp.relative_delay().pps_undelivered,
            bern_cmp.relative_delay().pps_undelivered,
        )
    });
    for (&n, (lower, attack_delay, bern_delay, atk_undeliv, bern_undeliv)) in
        plan.points().iter().zip(results)
    {
        let upper = (n * r_prime) as i64;
        let ok = attack_delay as u64 >= lower
            && attack_delay <= upper
            && bern_delay <= upper
            && atk_undeliv == 0
            && bern_undeliv == 0;
        pass &= ok;
        table.row_display(&[
            n.to_string(),
            lower.to_string(),
            upper.to_string(),
            attack_delay.to_string(),
            bern_delay.to_string(),
            if ok { "yes".into() } else { "NO".to_string() },
        ]);
    }
    ExperimentOutput {
        id: "e11",
        title: "Tightness — lower bound meets the Iyer-McKeown N*R/r upper bound: Theta((R/r)N)"
            .into(),
        tables: vec![table],
        notes: vec![
            "the same algorithm exhibits both sides: worst-case traffic drives it to \
             the lower bound, while no traffic pushes it past N*R/r"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_reaches_lower_bound_but_not_past_upper() {
        let n = 16;
        let cfg = PpsConfig::bufferless(n, 8, 4);
        let demux = PerFlowRoundRobinDemux::new(n, 8);
        let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 32);
        assert_eq!(atk.d, n, "per-flow RR is unpartitioned: all inputs align");
        let cmp = compare_bufferless(cfg, demux, &atk.trace).unwrap();
        let d = cmp.relative_delay().max;
        assert!(d as u64 >= atk.model_exact_bound);
        assert!(d <= (n * 4) as i64, "upper bound violated: {d}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
