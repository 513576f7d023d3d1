//! E23 — SW-QPS: sliding-window batching without the batching delay.
//!
//! Meng, Gong & Xu (arXiv:2010.08620) observe that batch crossbar
//! schedulers buy matching quality by amortizing work over `T` slots but
//! pay an `Ω(T)` batching delay, and propose the *sliding-window* repair:
//! keep a window of `T` partial matchings in flight, emit (and execute)
//! the head matching every slot, and admit each new cell into the
//! earliest window slot that still has its input and output free. Every
//! slot ships a matching that has been refined for `T` slots — batch
//! quality, zero batching delay.
//!
//! This experiment sweeps the window size `T ∈ {1, 2, 4, 8}` at two
//! uniform Bernoulli loads, with QPS-1 (the window-less ancestor, = SW-QPS
//! at `T = 1` up to proposal order) and the ideal OQ shadow as references.
//! The headline claim to reproduce: delay *falls* as the window grows —
//! the opposite of classic batching — and the whole family stays inside
//! the maximal-matching conflict envelope where that is a theorem
//! (`λc = 2ρ(N−1)/N < 1`, arXiv cs/0605030; see E22).

use crate::e22_qps_crossbar::{conflict_load, envelope, fmt_p99, tails, N};
use crate::ExperimentOutput;
use pps_analysis::{Table, TailQuantiles};
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_crossbar_with, QpsRScheduler, SwQpsScheduler};
use pps_reference::oq::run_oq;
use pps_traffic::gen::BernoulliGen;

/// Slots per load point.
const HORIZON: u64 = 10_000;
/// Window sizes under test.
const WINDOWS: [usize; 4] = [1, 2, 4, 8];

/// One load point: QPS-1 reference, SW-QPS per window, OQ mean.
#[derive(Clone, Debug)]
struct LoadPoint {
    /// Offered per-input load.
    pub load: f64,
    /// Ideal OQ mean delay.
    pub oq_mean: f64,
    /// QPS-1 delay tails (the ancestor).
    pub qps1: TailQuantiles,
    /// SW-QPS delay tails, one per entry of [`WINDOWS`].
    pub sw: Vec<TailQuantiles>,
    /// Undelivered cells across all runs.
    pub undelivered: usize,
}

/// Measure one load level.
fn measure(load: f64, seed: u64) -> LoadPoint {
    let trace = BernoulliGen::uniform(load, seed).trace(N, HORIZON);
    let mode = pps_core::stepping::process_default();
    let oq = run_oq(&trace, N);
    let (qps_log, _) = run_crossbar_with(&trace, QpsRScheduler::new(N, 1, seed ^ 0xE23), mode);
    let mut undelivered = qps_log.undelivered();
    let sw: Vec<TailQuantiles> = WINDOWS
        .iter()
        .map(|&w| {
            let (log, _) =
                run_crossbar_with(&trace, SwQpsScheduler::new(N, w, seed ^ w as u64), mode);
            undelivered += log.undelivered();
            tails(&log)
        })
        .collect();
    LoadPoint {
        load,
        oq_mean: oq.mean_delay().unwrap_or(0.0),
        qps1: tails(&qps_log),
        sw,
        undelivered,
    }
}

/// Run the sweep.
pub(crate) fn run() -> ExperimentOutput {
    let loads = [0.5, 0.75];
    let mut table = Table::new(
        format!(
            "SW-QPS window sweep vs QPS-1 and ideal OQ, uniform Bernoulli (N={N}, \
             {HORIZON} slots); envelope = Cogill–Lall λc/(1−λc), blank where λc ≥ 1"
        ),
        &[
            "load",
            "envelope",
            "OQ mean",
            "qps-1 mean/p99",
            "T=1 mean/p99",
            "T=2 mean/p99",
            "T=4 mean/p99",
            "T=8 mean/p99",
        ],
    );
    let plan = SweepPlan::new("e23", loads.to_vec());
    let points = plan.run(|pt| measure(*pt.params, 2300 + pt.index as u64));
    let mut pass = true;
    for p in &points {
        pass &= p.undelivered == 0;
        let widest = p.sw.last().expect("windows");
        // The sliding-window claim: the widest window beats (or matches)
        // both the narrowest and the window-less ancestor on mean delay —
        // batch quality with zero batching delay. A 5% slack absorbs
        // sampling noise at low load, where all means are fractions of a
        // slot.
        pass &= widest.mean <= p.sw[0].mean * 1.05 + 0.05;
        pass &= widest.mean <= p.qps1.mean * 1.05 + 0.05;
        if let Some(env) = envelope(p.load) {
            for q in &p.sw {
                pass &= q.mean - p.oq_mean <= env;
            }
        }
        let fmt = |q: &TailQuantiles| format!("{:.2}/{}", q.mean, fmt_p99(q));
        let mut row = vec![
            format!("{:.2}", p.load),
            envelope(p.load).map_or("—".into(), |e| format!("{e:.2}")),
            format!("{:.2}", p.oq_mean),
            fmt(&p.qps1),
        ];
        row.extend(p.sw.iter().map(fmt));
        table.row_display(&row);
    }
    ExperimentOutput {
        id: "e23",
        title: "SW-QPS — sliding-window matching: batch quality, zero batching delay".into(),
        tables: vec![table],
        notes: vec![
            format!(
                "classic T-slot batching adds Ω(T) delay; the sliding window inverts the \
                 sign — mean delay falls (or holds) as T grows from {} to {}",
                WINDOWS[0],
                WINDOWS[WINDOWS.len() - 1]
            ),
            format!(
                "λc at the loads charted: {:.2} and {:.2} — the envelope row is a theorem \
                 only at the first",
                conflict_load(0.5),
                conflict_load(0.75)
            ),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }

    #[test]
    fn wide_window_never_loses_to_narrow() {
        let p = measure(0.75, 4);
        assert_eq!(p.undelivered, 0);
        let widest = p.sw.last().unwrap();
        assert!(
            widest.mean <= p.sw[0].mean * 1.05 + 0.05,
            "T=8 mean {} vs T=1 mean {}",
            widest.mean,
            p.sw[0].mean
        );
    }
}
