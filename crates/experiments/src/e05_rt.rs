//! E5 — Corollary 11: *any* real-time distributed demultiplexing algorithm
//! (i.e. `u`-RT with the minimal `u = 1`) on a bufferless PPS has relative
//! queuing delay and jitter at least `(1 − r/R)·N/S`, under leaky-bucket
//! traffic with burstiness `N/K − 1`.
//!
//! This is E4 specialized to `u = 1`, swept over the switch size instead:
//! even one slot of information lag is enough for the bound.

use crate::attack::AttackPoint;
use crate::claim::Claims;
use crate::e04_urt;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::run::Sink;
use pps_core::sweep::SweepPlan;

/// Run the default sweep over N.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (k, r_prime) = (8, 8); // S = 1
    let premise = "premise B = N/K-1";
    let mut table = Table::new(
        format!("Corollary 11 sweep: K={k}, r'={r_prime}, u=1 (bound = (1-r/R)*N/S)"),
        &[&["N", "m = N/K"][..], &AttackPoint::HEADERS, &[premise]].concat(),
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e5", vec![16usize, 32, 64, 128], sink);
    let results = plan.run(|pt| e04_urt::point(*pt.params, k, r_prime, 1, pt.sink));
    for (&n, a) in plan.points().iter().zip(results) {
        a.check(claims.at(format!("N = {n}")), "=", premise);
        let key = [n.to_string(), a.aligned.to_string()];
        table.row_display(&[&key[..], &a.cells(), &[a.premise.to_string()]].concat());
    }
    ExperimentOutput::new(
        "e5",
        "Corollary 11 — any real-time distributed algorithm: (1-r/R)*N/S",
        vec![table],
        &[
            "u = 1 is the strongest realistic information model short of centralized; \
             the bound still grows linearly in N",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_at_u_equals_one() {
        let a = e04_urt::point(64, 8, 8, 1, &Sink::default());
        assert_eq!(a.aligned, 8);
        assert!(a.burstiness <= a.premise);
        assert_eq!((a.delay, a.jitter), (a.exact as i64, a.exact as i64));
        // Paper closed form: (1 - r/R) * N/S = (1 - 1/8) * 64 = 56.
        assert_eq!(a.paper, 56);
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
