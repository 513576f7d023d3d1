//! E16 — Section 4's small-buffer regime: *"it can be shown that a
//! globally FCFS input-buffered PPS [with buffers smaller than u] has
//! relative queuing delay of (1 − r/R)·N/S time-slots"*, i.e. buffers
//! below the information delay do not rescue a `u`-RT algorithm.
//!
//! The sweep makes the mechanism visible: a buffered stale-least-loaded
//! demultiplexor holds every cell `hold ≤ u` slots before dispatching.
//! Holding delays the *decision* as much as the *information*, so the
//! blind spot never closes — the Theorem 10 burst concentrates identically
//! at every `hold`, and the relative delay even *grows* by the holding
//! time itself. What actually dissolves the bound at buffer `u` is not
//! waiting but *coordination*: Theorem 12's delayed CPA uses the wait to
//! acquire the exact global arrival order (legally, since by then it is
//! `u` slots old) and assigns conflict-free deadlines — final row of the
//! table.

use crate::attack::AttackPoint;
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{compare_buffered_in, compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{BufferedStaleDemux, DelayedCpaDemux, StaleLeastLoadedDemux};
use pps_traffic::adversary::urt_burst_attack;

/// One sweep point: the Theorem 10 burst against the buffered stale demux
/// holding each cell `hold` slots (0: the bufferless dispatcher).
fn stale_point(
    n: usize,
    k: usize,
    r_prime: usize,
    u: Slot,
    hold: Slot,
    sink: &Sink,
) -> AttackPoint {
    let atk = urt_burst_attack(&PpsConfig::bufferless(n, k, r_prime), u);
    let cmp = if hold == 0 {
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        compare_bufferless_in(cfg, StaleLeastLoadedDemux::new(n, k, u), &atk.trace, sink)
    } else {
        let cfg = PpsConfig::buffered(n, k, r_prime, hold as usize + 1);
        compare_buffered_in(
            cfg,
            BufferedStaleDemux::new(n, k, u, hold),
            &atk.trace,
            sink,
        )
    };
    AttackPoint::new(atk, &cmp.expect("run"))
}

/// The Theorem 12 endpoint: delayed CPA with buffer = u on the same burst.
fn cpa_point(n: usize, k: usize, r_prime: usize, u: Slot, sink: &Sink) -> i64 {
    let atk = urt_burst_attack(&PpsConfig::bufferless(n, k, r_prime), u);
    let cfg = PpsConfig::buffered(n, k, r_prime, u as usize);
    let cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
    let cmp = compare_buffered_in(
        cfg,
        DelayedCpaDemux::new(n, k, r_prime, u),
        &atk.trace,
        sink,
    );
    AttackPoint::new(atk, &cmp.expect("run")).delay
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime, u) = (32, 8, 8, 4u64); // S = 1 for the stale family
    let plan = SweepPlan::new_in("e16", (0..=u).collect(), sink);
    let stale = plan.run(|pt| stale_point(n, k, r_prime, u, *pt.params, pt.sink));
    let bound = stale[0].exact;
    let mut table = Table::new(
        format!(
            "Small buffers vs the Theorem 10 burst at N={n}, K={k}, r'={r_prime}, u={u} \
             (u-RT bound: {bound} slots)"
        ),
        &[
            "algorithm",
            "hold/buffer",
            "measured rel delay",
            "bound status",
        ],
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e16", (0..=u).collect(), sink);
    for (i, (&hold, a)) in plan.points().iter().zip(&stale).enumerate() {
        let d = a.delay;
        claims.at(format!("hold/buffer = {hold}"));
        let holds = claims.check("measured rel delay ≥ u-RT bound", d, bound);
        // Holding cannot shrink the concentration delay (it adds its own).
        if i > 0 {
            let grows = "measured rel delay ≥ that at the previous hold";
            claims.check(grows, d, stale[i - 1].delay);
        }
        table.row_display(&[
            "buffered-stale-LL".into(),
            hold.to_string(),
            d.to_string(),
            if holds { "bound persists" } else { "BROKEN" }.to_string(),
        ]);
    }
    // The CPA endpoint needs S >= 2: use K = 2r' for it.
    let k_cpa = 2 * r_prime;
    let d_cpa = cpa_point(n, k_cpa, r_prime, u, sink);
    let cpa = format!("delayed-CPA (K={k_cpa}, S=2)");
    let ok = claims.at(&cpa).check("measured rel delay ≤ u", d_cpa, u);
    table.row_display(&[
        format!("delayed-CPA (K={k_cpa}, S=2)"),
        format!("{u}"),
        d_cpa.to_string(),
        if ok {
            "<= u (Thm 12)".into()
        } else {
            "VIOLATED".to_string()
        },
    ]);
    ExperimentOutput::new(
        "e16",
        "Section 4 — buffers below the information delay do not help; coordination does",
        vec![table],
        &[
            "holding cells delays the decisions exactly as much as the information, \
             so the blind spot never closes for a least-loaded dispatcher — the \
             measured delay is flat-to-growing in the hold time",
            "Theorem 12's delayed CPA turns the same buffer into exact (u-old) \
             knowledge of the global arrival order and collapses the delay to <= u",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holding_does_not_break_the_bound() {
        let (n, k, r_prime, u) = (32, 8, 8, 2u64);
        for hold in [0u64, 1, 2] {
            let a = stale_point(n, k, r_prime, u, hold, &Sink::default());
            assert!(a.delay as u64 >= a.exact, "hold={hold}: {a:?}");
        }
    }

    #[test]
    fn coordination_at_buffer_u_collapses_the_delay() {
        let d = cpa_point(16, 8, 4, 3, &Sink::default());
        assert!(d <= 3, "delayed CPA must stay within u: {d}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
