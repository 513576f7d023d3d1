//! E17 — the related-work anchor (§1.3): Chuang, Goel, McKeown &
//! Prabhakar's result that a combined input-output-queued (CIOQ) crossbar
//! needs speedup ≈ 2 (`2 − 1/N`) to mimic an output-queued switch.
//!
//! We sweep the CIOQ fabric speedup under fan-in-heavy admissible traffic
//! and record the max relative delay versus the FCFS-OQ reference. The
//! paper leans on this landscape: *every* architecture needs either a
//! rate-R centralized element (CIOQ arbiter, CPA) or pays delay — the PPS
//! merely relocates the trade-off into the demultiplexors.
//!
//! Expected shape: visible misses at `s = 1`, at most a one-slot slip at
//! `s = 2` (our scheduler is greedy EDF, not the exact
//! critical-cells-first of the theorem), and clean mimicking from `s = 3`.

use crate::ExperimentOutput;
use pps_analysis::{metrics, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_cioq_in, CioqPolicy};
use pps_reference::oq::run_oq_in;
use pps_traffic::gen::{BernoulliGen, TrafficPattern};

fn fanin_trace(n: usize, slots: Slot, seed: u64) -> Trace {
    BernoulliGen {
        load: 0.95,
        pattern: TrafficPattern::Hotspot {
            target: 0,
            hot: 0.35,
        },
        seed,
    }
    .trace(n, slots)
}

/// One speedup point: `(max relative delay, mean relative delay)`.
fn point(n: usize, speedup: usize, trace: &Trace, sink: &Sink) -> (i64, f64) {
    let oq = run_oq_in(trace, n, sink);
    let cioq = run_cioq_in(trace, n, speedup, CioqPolicy::CriticalFirst, sink);
    assert_eq!(cioq.undelivered(), 0, "CIOQ must drain");
    let rd = metrics::relative_delay(&cioq, &oq);
    (rd.max, rd.mean)
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let n = 16;
    let trace = fanin_trace(n, 3_000, 61);
    let mut table = Table::new(
        format!("CIOQ speedup sweep at N={n}, hotspot fan-in load 0.95 (threshold ~2)"),
        &["speedup s", "max rel delay", "mean rel delay"],
    );
    let mut pass = true;
    let plan = SweepPlan::new_in("e17", vec![1usize, 2, 3, 4], sink);
    let results = plan.run(|pt| point(n, *pt.params, &trace, pt.sink));
    for (&s, &(max_rd, mean_rd)) in plan.points().iter().zip(results.iter()) {
        table.row_display(&[s.to_string(), max_rd.to_string(), format!("{mean_rd:.3}")]);
    }
    // Shape: s = 1 misses clearly; s >= 2 within a one-slot greedy slip;
    // monotone non-increasing.
    pass &= results[0].0 > 1;
    pass &= results.iter().skip(1).all(|&(d, _)| d <= 1);
    pass &= results.windows(2).all(|w| w[1].0 <= w[0].0);
    ExperimentOutput {
        id: "e17",
        title: "Related work — CIOQ crossbar speedup threshold for OQ mimicking (~2)".into(),
        tables: vec![table],
        notes: vec![
            "greedy earliest-deadline matching, not the exact critical-cells-first \
             schedule of Chuang et al., hence the <= 1-slot slip allowance at s = 2"
                .into(),
            "same economics as the PPS: exactness costs a centralized rate-R element \
             (here the arbiter at speedup 2, there CPA at S >= 2)"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_shape_at_small_n() {
        let trace = fanin_trace(8, 1_500, 7);
        let (d1, _) = point(8, 1, &trace, &Sink::default());
        let (d2, _) = point(8, 2, &trace, &Sink::default());
        let (d4, _) = point(8, 4, &trace, &Sink::default());
        assert!(d1 > d2, "speedup must help: {d1} !> {d2}");
        assert!(d2 <= 1, "s=2 should mimic within a slot: {d2}");
        assert!(d4 <= d2);
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
