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

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_reference::regulator::{min_feasible_delay, regulate, regulate_online};
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack;

/// The attacked run to regulate: Corollary 7 on round robin.
fn attacked_log(n: usize, k: usize, r_prime: usize) -> RunLog {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);
    let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
    let cmp = compare_bufferless(cfg, demux, &atk.trace).expect("run");
    cmp.pps.log
}

/// Run the default sweep.
pub(crate) fn run() -> ExperimentOutput {
    let (n, k, r_prime) = (64, 8, 4);
    let log = attacked_log(n, k, r_prime);
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
    let mut pass = true;
    let plan = SweepPlan::new("e18", vec![1usize, 2, 4, 8, 16, 32, 48, 64]);
    let reports = plan.run(|pt| regulate_online(&log, target, *pt.params));
    // The monotonicity check compares adjacent caps, post-merge.
    let mut prev = u64::MAX;
    let mut flattened_at = None;
    for (&cap, rep) in plan.points().iter().zip(reports.iter()) {
        pass &= rep.achieved_jitter <= prev;
        prev = rep.achieved_jitter;
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
    pass &= flattened_at.is_some_and(|cap| cap >= offline.buffer_required.min(48));
    pass &= unregulated > 0;
    ExperimentOutput {
        id: "e18",
        title: "§6 translation — the delay lower bound as a jitter-regulator buffer bound".into(),
        tables: vec![table],
        notes: vec![
            format!(
                "unregulated per-flow jitter of the run: {unregulated} slots; offline \
                 regulator needs {} cells of buffer to flatten it",
                offline.buffer_required
            ),
            "zero jitter is unreachable below the offline buffer requirement, which \
             grows linearly in N (E15): the Omega(N) delay bound priced in regulator \
             memory"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_curve_shape() {
        let log = attacked_log(16, 8, 4);
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
        assert!(run().pass);
    }
}
