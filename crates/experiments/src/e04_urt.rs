//! E4 — Theorem 10: a bufferless PPS with a `u`-RT demultiplexing
//! algorithm has relative queuing delay and jitter at least
//! `(1 − u'·r/R)·u'·N/S` under leaky-bucket traffic with burstiness
//! `u'²·N/K − u'`, where `u' = min(u, r'/2)`.
//!
//! Victim: the stale-least-loaded demultiplexor. The burst hides inside
//! the `u`-slot information blind spot, so the symmetric inputs pick
//! identical plane sequences and concentrate `m = u'·N/K` cells per plane.
//! Sweep: the information delay `u`.

use crate::attack::AttackPoint;
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::StaleLeastLoadedDemux;
use pps_traffic::adversary::urt_burst_attack;

/// One sweep point: the Theorem 10 burst against stale least-loaded at
/// information delay `u`.
pub(crate) fn point(n: usize, k: usize, r_prime: usize, u: Slot, sink: &Sink) -> AttackPoint {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let atk = urt_burst_attack(&cfg, u);
    let demux = StaleLeastLoadedDemux::new(n, k, u);
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, sink).expect("run");
    AttackPoint::new(atk, &cmp)
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (32, 8, 8); // S = 1
    let mut table = Table::new(
        format!("Theorem 10 sweep: N={n}, K={k}, r'={r_prime}, S=1 (bound = (1-u'r/R)*u'N/S)"),
        &[&["u", "u'", "m"][..], &AttackPoint::HEADERS, &["premise B"]].concat(),
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e4", vec![1u64, 2, 3, 4, 8], sink);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, pt.sink));
    for (&u, a) in plan.points().iter().zip(results) {
        a.check(claims.at(format!("u = {u}")), "≥", "premise B");
        let u_eff = bounds::u_effective(r_prime, u);
        let key = [u.to_string(), u_eff.to_string(), a.aligned.to_string()];
        table.row_display(&[&key[..], &a.cells(), &[a.premise.to_string()]].concat());
    }
    ExperimentOutput::new(
        "e4",
        "Theorem 10 — u-RT lower bound (1-u'r/R)*u'N/S with burstiness u'^2 N/K - u'",
        vec![table],
        &[
            "the burst is invisible to the stale global view, so all m inputs walk the \
             same plane sequence — Definition 9's blind spot made concrete",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blind_spot_forces_concentration() {
        let a = point(32, 8, 8, 4, &Sink::default());
        assert_eq!(a.aligned, 16);
        assert!(
            a.burstiness <= a.premise,
            "traffic burstier than the theorem allows"
        );
        assert!(
            a.delay as u64 >= a.exact,
            "delay {} < exact {}",
            a.delay,
            a.exact
        );
        assert!(
            a.jitter as u64 >= a.exact,
            "jitter {} < exact {}",
            a.jitter,
            a.exact
        );
    }

    #[test]
    fn larger_u_hurts_until_the_cap() {
        let d1 = point(32, 8, 8, 1, &Sink::default()).delay;
        let d4 = point(32, 8, 8, 4, &Sink::default()).delay;
        let d8 = point(32, 8, 8, 8, &Sink::default()).delay; // capped at u' = 4
        assert!(d4 > d1, "more staleness, more concentration: {d1} !< {d4}");
        assert_eq!(d4, d8, "u' caps at r'/2");
    }

    #[test]
    fn the_worst_cell_is_dispatched_inside_the_blind_window() {
        let (n, k, r_prime) = (32, 8, 8);
        for u in [1, 2, 3, 4, 8] {
            let (a, summary) = crate::tests::traced(|sink| point(n, k, r_prime, u, sink));
            let blocks = crate::tests::blocks(&summary);
            let [(_, lines)] = &blocks[..] else {
                panic!("one PPS run: {summary}");
            };
            // Every cell's delay is line + plane wait.
            let all = &lines[1];
            assert_eq!((all.get("input-wait"), all.get("output-hold")), (0, 0));
            let (worst, timeline) = (&lines[3], &lines[4]);
            assert_eq!(worst.get("relative"), a.delay, "{summary}");
            // The plane was chosen on a view older than the burst.
            let atk = urt_burst_attack(&PpsConfig::bufferless(n, k, r_prime), u);
            let window = atk.burst_start..atk.burst_start + atk.u_eff;
            let demux = timeline.get("demux") as Slot;
            assert!(
                window.contains(&demux),
                "u = {u}: {demux} outside {window:?}"
            );
        }
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
