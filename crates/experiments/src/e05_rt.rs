//! E5 — Corollary 11: *any* real-time distributed demultiplexing algorithm
//! (i.e. `u`-RT with the minimal `u = 1`) on a bufferless PPS has relative
//! queuing delay and jitter at least `(1 − r/R)·N/S`, under leaky-bucket
//! traffic with burstiness `N/K − 1`.
//!
//! This is E4 specialized to `u = 1`, swept over the switch size instead:
//! even one slot of information lag is enough for the bound.

use crate::e04_urt;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::sweep::SweepPlan;

/// Run the default sweep over N.
pub(crate) fn run() -> ExperimentOutput {
    let (k, r_prime) = (8, 8); // S = 1
    let mut table = Table::new(
        format!("Corollary 11 sweep: K={k}, r'={r_prime}, u=1 (bound = (1-r/R)*N/S)"),
        &[
            "N",
            "m = N/K",
            "bound (paper)",
            "bound (exact)",
            "measured delay",
            "measured jitter",
            "traffic B",
            "premise B = N/K-1",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new("e5", vec![16usize, 32, 64, 128]);
    let results = plan.run(|pt| e04_urt::point(*pt.params, k, r_prime, 1));
    for (&n, (_u_eff, m, paper, exact, delay, jitter, b, premise)) in
        plan.points().iter().zip(results)
    {
        pass &= delay as u64 >= exact && jitter as u64 >= exact && b <= premise;
        table.row_display(&[
            n.to_string(),
            m.to_string(),
            paper.to_string(),
            exact.to_string(),
            delay.to_string(),
            jitter.to_string(),
            b.to_string(),
            premise.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e5",
        title: "Corollary 11 — any real-time distributed algorithm: (1-r/R)*N/S".into(),
        tables: vec![table],
        notes: vec![
            "u = 1 is the strongest realistic information model short of centralized; \
             the bound still grows linearly in N"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_at_u_equals_one() {
        let (_u, m, paper, exact, delay, jitter, b, premise) = e04_urt::point(64, 8, 8, 1);
        assert_eq!(m, 8);
        assert!(b <= premise);
        assert!(delay as u64 >= exact, "{delay} < {exact}");
        assert!(jitter as u64 >= exact);
        // Paper closed form: (1 - r/R) * N/S = (1 - 1/8) * 64 = 56.
        assert_eq!(paper, 56);
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
