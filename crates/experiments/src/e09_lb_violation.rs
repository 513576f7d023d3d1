//! E9 — Proposition 15: any traffic that sustains congestion (the premise
//! of Theorem 14) is **not** `(R, B)` leaky-bucket for any `B` independent
//! of the congestion duration.
//!
//! Measured: the exact minimal burstiness of the E8 congestion traffic as
//! a function of its duration — it grows linearly, `B_min = (rate − 1)·T`,
//! so no fixed `B` covers all durations. This is why Theorem 14 does not
//! contradict Theorem 8.
//!
//! The congestion generator depends only on the slot index, so every
//! shorter duration's trace is an exact prefix of the longest one. One
//! [`IncrementalBurstiness`] pass over the longest trace therefore yields
//! every sweep point's `B_min` as a running checkpoint — linear in the
//! longest duration, where rescanning per point was quadratic over the
//! sweep.

use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::run::Sink;
use pps_core::sweep::SweepPlan;
use pps_core::time::Slot;
use pps_traffic::adversary::congestion_traffic;
use pps_traffic::IncrementalBurstiness;

/// `B_min` of the `durations[i]`-slot congestion trace, for every `i`, from
/// a single scan of the longest duration's trace. `checkpoints[i]` equals
/// `min_burstiness(congestion_traffic(n, 0, senders, durations[i]).trace,
/// n).overall()` (pinned by a test) because shorter traces are prefixes and
/// the calculator's running maxima are valid at any prefix.
fn duration_checkpoints(n: usize, senders: usize, durations: &[Slot], sink: &Sink) -> Vec<u64> {
    let longest = durations.iter().copied().max().unwrap_or(0);
    let c = congestion_traffic(n, 0, senders, longest);
    // Meter the single pass as the run's slots: no engine runs in e9 —
    // the experiment *is* the trace validation — so this is what keeps
    // --bench-json from reporting a bogus 0 slots.
    sink.slots(c.trace.horizon());
    // Checkpoint order must follow each duration's boundary, so walk the
    // durations smallest-first but write results back in declared order.
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_by_key(|&i| durations[i]);
    let mut checkpoints = vec![0u64; durations.len()];
    let mut inc = IncrementalBurstiness::new(n);
    let mut next = order.iter().copied().peekable();
    for (slot, group) in c.trace.by_slot() {
        while next.peek().is_some_and(|&i| slot >= durations[i]) {
            checkpoints[next.next().unwrap()] = inc.overall();
        }
        inc.observe_slot(slot, group);
    }
    for i in next {
        checkpoints[i] = inc.overall();
    }
    checkpoints
}

/// Run the duration sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let n = 16;
    let senders = 2;
    let mut table = Table::new(
        "Proposition 15: minimal burstiness of congestion traffic vs duration (2 cells/slot)",
        &[
            "duration T",
            "predicted B = (rate-1)*T",
            "measured B_min",
            "B_min / T",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new_in("e9", vec![50u64, 100, 200, 400, 800], sink);
    let checkpoints = duration_checkpoints(n, senders, plan.points(), sink);
    let results = plan.run(|pt| {
        let duration = *pt.params;
        let expected = (senders as u64 - 1) * duration;
        (expected, checkpoints[pt.index])
    });
    // Cross-point monotonicity runs after the merge, over ordered results.
    let mut prev_b = 0u64;
    for (&duration, (expected, b)) in plan.points().iter().zip(results) {
        pass &= b == expected && b > prev_b;
        prev_b = b;
        table.row_display(&[
            duration.to_string(),
            expected.to_string(),
            b.to_string(),
            format!("{:.2}", b as f64 / duration as f64),
        ]);
    }
    ExperimentOutput {
        id: "e9",
        title: "Proposition 15 — congestion traffic violates every fixed leaky-bucket bound".into(),
        tables: vec![table],
        notes: vec![
            "B_min/T converges to rate-1: burstiness is proportional to the congested \
             period's length, hence unbounded for sustained congestion"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_traffic::min_burstiness;

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }

    #[test]
    fn checkpoints_match_one_shot_scans() {
        // Unsorted durations with a duplicate: each checkpoint must equal a
        // fresh full scan of that duration's own trace.
        let n = 8;
        let durations = [40u64, 10, 25, 25, 60];
        let got = duration_checkpoints(n, 3, &durations, &Sink::default());
        for (&d, &b) in durations.iter().zip(&got) {
            let c = congestion_traffic(n, 0, 3, d);
            assert_eq!(
                b,
                min_burstiness(&c.trace, n).overall(),
                "checkpoint for duration {d}"
            );
        }
    }
}
