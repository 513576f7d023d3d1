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

use crate::claim::Claims;
use crate::e22_qps_crossbar::{conflict_load, envelope, mean_p99, measure, LoadPoint, HORIZON, N};
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::run::Sink;
use pps_core::sweep::SweepPlan;
use pps_crossbar::{run_crossbar_in, QpsRScheduler, SwQpsScheduler};

/// Window sizes under test.
const WINDOWS: [usize; 4] = [1, 2, 4, 8];

/// QPS-1 (the ancestor), then SW-QPS at every window of [`WINDOWS`].
fn point(load: f64, seed: u64, sink: &Sink) -> LoadPoint {
    measure(load, seed, sink, |trace| {
        let qps = QpsRScheduler::new(N, 1, seed ^ 0xE23);
        let mut logs = vec![run_crossbar_in(trace, qps, sink).0];
        for w in WINDOWS {
            let sw = SwQpsScheduler::new(N, w, seed ^ w as u64);
            logs.push(run_crossbar_in(trace, sw, sink).0);
        }
        logs
    })
}

/// Run the sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
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
    let plan = SweepPlan::new_in("e23", loads.to_vec(), sink);
    let points = plan.run(|pt| point(*pt.params, 2300 + pt.index as u64, pt.sink));
    let mut claims = Claims::default();
    for p in &points {
        claims.at(format!("load = {:.2}", p.load));
        claims.check("undelivered = 0", p.undelivered, 0);
        let (qps1, sw) = (&p.runs[0], &p.runs[1..]);
        let widest = sw.last().expect("windows");
        // The sliding-window claim: the widest window beats (or matches)
        // both the narrowest and the window-less ancestor on mean delay —
        // batch quality with zero batching delay. A 5% slack absorbs
        // sampling noise at low load, where all means are fractions of a
        // slot.
        let (t1, qps1_mean) = (sw[0].mean * 1.05 + 0.05, qps1.mean * 1.05 + 0.05);
        claims.check("T=8 mean ≤ 1.05 T=1 mean + 0.05", widest.mean, t1);
        claims.check("T=8 mean ≤ 1.05 qps-1 mean + 0.05", widest.mean, qps1_mean);
        if let Some(env) = envelope(p.load) {
            let extra = sw
                .iter()
                .map(|q| q.mean - p.oq_mean)
                .fold(f64::MIN, f64::max);
            claims.check("max over T of T mean - OQ mean ≤ envelope", extra, env);
        }
        let mut row = vec![
            format!("{:.2}", p.load),
            envelope(p.load).map_or("—".into(), |e| format!("{e:.2}")),
            format!("{:.2}", p.oq_mean),
        ];
        row.extend(p.runs.iter().map(mean_p99));
        table.row_display(&row);
    }
    ExperimentOutput::new(
        "e23",
        "SW-QPS — sliding-window matching: batch quality, zero batching delay",
        vec![table],
        &[
            &format!(
                "classic T-slot batching adds Ω(T) delay; the sliding window inverts the \
                 sign — mean delay falls (or holds) as T grows from {} to {}",
                WINDOWS[0],
                WINDOWS[WINDOWS.len() - 1]
            ),
            &format!(
                "λc at the loads charted: {:.2} and {:.2} — the envelope row is a theorem \
                 only at the first",
                conflict_load(0.5),
                conflict_load(0.75)
            ),
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }

    #[test]
    fn wide_window_never_loses_to_narrow() {
        let p = point(0.75, 4, &Sink::default());
        assert_eq!(p.undelivered, 0);
        let (narrowest, widest) = (&p.runs[1], p.runs.last().unwrap());
        assert!(
            widest.mean <= narrowest.mean * 1.05 + 0.05,
            "T=8 mean {} vs T=1 mean {}",
            widest.mean,
            narrowest.mean
        );
    }
}
