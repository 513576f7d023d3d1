//! E4 — Theorem 10: a bufferless PPS with a `u`-RT demultiplexing
//! algorithm has relative queuing delay and jitter at least
//! `(1 − u'·r/R)·u'·N/S` under leaky-bucket traffic with burstiness
//! `u'²·N/K − u'`, where `u' = min(u, r'/2)`.
//!
//! Victim: the stale-least-loaded demultiplexor. The burst hides inside
//! the `u`-slot information blind spot, so the symmetric inputs pick
//! identical plane sequences and concentrate `m = u'·N/K` cells per plane.
//! Sweep: the information delay `u`.

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::StaleLeastLoadedDemux;
use pps_traffic::adversary::urt_burst_attack;
use pps_traffic::min_burstiness;

/// One sweep point; returns `(u', m, paper bound, exact bound, measured
/// delay, measured jitter, burstiness, premise burstiness)`.
pub(crate) fn point(
    n: usize,
    k: usize,
    r_prime: usize,
    u: Slot,
    sink: &Sink,
) -> (Slot, usize, u64, u64, i64, i64, u64, u64) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    cfg.validate().expect("valid sweep point");
    let atk = urt_burst_attack(&cfg, u);
    let b = min_burstiness(&atk.trace, n).overall();
    let demux = StaleLeastLoadedDemux::new(n, k, u);
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, sink).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    (
        atk.u_eff,
        atk.m,
        atk.predicted_bound,
        atk.model_exact_bound,
        rd.max,
        cmp.relative_jitter(),
        b,
        atk.predicted_burstiness,
    )
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (32, 8, 8); // S = 1
    let mut table = Table::new(
        format!("Theorem 10 sweep: N={n}, K={k}, r'={r_prime}, S=1 (bound = (1-u'r/R)*u'N/S)"),
        &[
            "u",
            "u'",
            "m",
            "bound (paper)",
            "bound (exact)",
            "measured delay",
            "measured jitter",
            "traffic B",
            "premise B",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new_in("e4", vec![1u64, 2, 3, 4, 8], sink);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, pt.sink));
    for (&u, (u_eff, m, paper, exact, delay, jitter, b, premise)) in
        plan.points().iter().zip(results)
    {
        pass &= delay as u64 >= exact && jitter as u64 >= exact && b <= premise;
        table.row_display(&[
            u.to_string(),
            u_eff.to_string(),
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
        id: "e4",
        title: "Theorem 10 — u-RT lower bound (1-u'r/R)*u'N/S with burstiness u'^2 N/K - u'".into(),
        tables: vec![table],
        notes: vec![
            "the burst is invisible to the stale global view, so all m inputs walk the \
             same plane sequence — Definition 9's blind spot made concrete"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blind_spot_forces_concentration() {
        let (_u_eff, m, _paper, exact, delay, jitter, b, premise) =
            point(32, 8, 8, 4, &Sink::default());
        assert_eq!(m, 16);
        assert!(b <= premise, "traffic burstier than the theorem allows");
        assert!(delay as u64 >= exact, "delay {delay} < exact {exact}");
        assert!(jitter as u64 >= exact, "jitter {jitter} < exact {exact}");
    }

    #[test]
    fn larger_u_hurts_until_the_cap() {
        let d1 = point(32, 8, 8, 1, &Sink::default()).4;
        let d4 = point(32, 8, 8, 4, &Sink::default()).4;
        let d8 = point(32, 8, 8, 8, &Sink::default()).4; // capped at u' = 4
        assert!(d4 > d1, "more staleness, more concentration: {d1} !< {d4}");
        assert_eq!(d4, d8, "u' caps at r'/2");
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
