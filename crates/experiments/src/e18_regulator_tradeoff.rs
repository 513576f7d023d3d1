//! E18 — the jitter-vs-buffer trade-off (paper §6): *"Jitter regulators …
//! use an internal buffer to shape the traffic; Mansour and Patt-Shamir
//! present competitive analysis of jitter regulators with bounded internal
//! buffer size. It might be possible to translate our lower bounds on the
//! relative queuing delay to bounds on the size of this internal
//! buffer."*
//!
//! The translation, measured: take the Corollary 7 attack run (relative
//! delay and jitter `(R/r − 1)(N − 1)`), put a causal bounded-buffer
//! regulator behind the hot output, and sweep the buffer cap. The achieved
//! jitter falls from the unregulated worst case to zero exactly when the
//! buffer reaches the offline requirement — which E15 showed is `Θ(N)`.
//! A jitter target below the switch's relative delay is thus unreachable
//! with `o(N)` regulator memory: the delay lower bound *is* a buffer lower
//! bound.

use crate::attack::concentration;
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_reference::regulator::{min_feasible_delay, regulate, regulate_online};
use pps_switch::demux::RoundRobinDemux;

/// The attacked run to regulate: Corollary 7 on round robin.
fn attacked_log(n: usize, k: usize, r_prime: usize, sink: &Sink) -> RunLog {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let (_, cmp) = concentration(cfg, RoundRobinDemux::new(n, k), n, 4 * k, sink);
    cmp.pps.log
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (64, 8, 4);
    let log = attacked_log(n, k, r_prime, sink);
    let target = min_feasible_delay(&log);
    let offline = regulate(&log, target);
    let unregulated = {
        let j = pps_analysis::metrics::flow_jitters(&log);
        j.values().copied().max().unwrap_or(0)
    };
    let mut table = Table::new(
        format!(
            "Jitter vs regulator buffer on the Corollary 7 run (N={n}, target D={target}, \
             offline buffer requirement {})",
            offline.buffer_required
        ),
        &["buffer cap", "achieved jitter", "forced releases"],
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e18", vec![1usize, 2, 4, 8, 16, 32, 48, 64], sink);
    let reports = plan.run(|pt| regulate_online(&log, target, *pt.params));
    // The monotonicity check compares adjacent caps, post-merge.
    let mut flattened_at = None;
    for (i, (&cap, rep)) in plan.points().iter().zip(reports.iter()).enumerate() {
        if i > 0 {
            let shrinks = "achieved jitter ≤ that at the previous cap";
            let previous = reports[i - 1].achieved_jitter;
            claims.at(format!("buffer cap = {cap}"));
            claims.check(shrinks, rep.achieved_jitter, previous);
        }
        if rep.achieved_jitter == 0 && flattened_at.is_none() {
            flattened_at = Some(cap);
        }
        table.row_display(&[
            cap.to_string(),
            rep.achieved_jitter.to_string(),
            rep.forced_releases.to_string(),
        ]);
    }
    // The curve must start near the unregulated jitter and flatten only
    // once the cap reaches the offline (Theta(N)) requirement.
    claims.at("the unregulated run");
    claims.check("unregulated jitter > 0", unregulated, 0);
    // A curve that never flattens reads as cap -1.
    let late = "first buffer cap with zero achieved jitter ≥ min(offline buffer requirement, 48)";
    let first = flattened_at.map_or(-1, |c| c as i64);
    claims.at("buffer cap = 1..64");
    claims.check(late, first, offline.buffer_required.min(48));
    ExperimentOutput::new(
        "e18",
        "§6 translation — the delay lower bound as a jitter-regulator buffer bound",
        vec![table],
        &[
            &format!(
                "unregulated per-flow jitter of the run: {unregulated} slots; offline \
                 regulator needs {} cells of buffer to flatten it",
                offline.buffer_required
            ),
            "zero jitter is unreachable below the offline buffer requirement, which \
             grows linearly in N (E15): the Omega(N) delay bound priced in regulator \
             memory",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_curve_shape() {
        let log = attacked_log(16, 8, 4, &Sink::default());
        let target = min_feasible_delay(&log);
        let tiny = regulate_online(&log, target, 1).achieved_jitter;
        let offline = regulate(&log, target);
        let roomy = regulate_online(&log, target, offline.buffer_required + 1).achieved_jitter;
        assert!(
            tiny > 0,
            "a one-cell regulator cannot flatten Theta(N) jitter"
        );
        assert_eq!(roomy, 0, "the offline requirement suffices online too");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
