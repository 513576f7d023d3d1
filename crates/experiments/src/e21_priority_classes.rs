//! E21 — multi-class cells through a priority-aware output mux.
//!
//! Egress priority queueing (Kogan et al., arXiv:1207.5959) bounds how
//! much a strict-priority scheduler can shelter high classes at the
//! expense of low ones. Here the `pps-workload` multi-class path tags a
//! Zipf-heavy trace with per-flow service classes and plays it through
//! two output-queued muxes over the same arrivals:
//!
//! * plain FCFS — the classless shadow reference
//!   (`pps_reference::fcfs_departures`);
//! * strict priority — `pps_workload::classes::priority_oq_delay_counts`,
//!   always serving the lowest-numbered class with backlog.
//!
//! Both sides count each class's delays as the cells depart
//! (`counts[class][delay]`) and rank the counts
//! (`TailQuantiles::from_counts`), so no per-cell delay set is stored.
//!
//! Work conservation fixes the *multiset* of departure slots per output —
//! the schedulers only redistribute who takes each slot — so the table is
//! a zero-sum ledger: class 0's tail collapses toward zero, the bottom
//! class absorbs exactly the delay the top sheds, and the aggregate mean
//! is identical under both schedulers.

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{Table, TailQuantiles};
use pps_core::run::Sink;
use pps_reference::fcfs_departures;
use pps_workload::{priority_oq_delay_counts, ClassedTrace, WorkloadSpec};

/// Ports (also the trace's geometry; this experiment is OQ-only).
const N: usize = 16;
/// Service classes.
const CLASSES: u8 = 3;

/// Build the classed workload: Zipf flows near saturation, so hot
/// outputs have real queues for the schedulers to disagree over.
fn classed_workload(seed: u64) -> ClassedTrace {
    let spec = WorkloadSpec::parse(&format!(
        "zipf:n={N},load=0.95,s=1.1,flows=65536,seed={seed},horizon=20000"
    ))
    .expect("spec");
    ClassedTrace::per_flow(spec.trace().expect("materialize"), CLASSES, seed)
}

/// Per-class tails under both schedulers: `(fcfs, priority)` per class.
/// Each side counts its delays per class as the cells depart, so no
/// per-cell delay set is stored.
fn per_class_tails(classed: &ClassedTrace) -> Vec<(TailQuantiles, TailQuantiles)> {
    let mut fcfs: Vec<Vec<usize>> = vec![Vec::new(); CLASSES as usize];
    let arrivals = classed.trace.arrivals().zip(&classed.classes);
    for ((a, &class), depart) in arrivals.zip(fcfs_departures(&classed.trace, N)) {
        let counts = &mut fcfs[class as usize];
        let delay = (depart - a.slot) as usize;
        if delay >= counts.len() {
            counts.resize(delay + 1, 0);
        }
        counts[delay] += 1;
    }
    let tails = |counts: &Vec<usize>| TailQuantiles::from_counts(counts).expect("class has cells");
    let prio = priority_oq_delay_counts(classed, N);
    fcfs.iter().map(tails).zip(prio.iter().map(tails)).collect()
}

/// Run the study.
pub(crate) fn run(_sink: &Sink) -> ExperimentOutput {
    let classed = classed_workload(31);
    let tails = per_class_tails(&classed);
    let mut table = Table::new(
        format!(
            "Per-class OQ delay, FCFS vs strict priority (N={N}, {CLASSES} classes, \
             Zipf load 0.95, {} cells)",
            classed.trace.len()
        ),
        &[
            "class",
            "cells",
            "fcfs mean",
            "fcfs p99",
            "prio mean",
            "prio p99",
            "prio p999",
            "prio max",
        ],
    );
    let mut claims = Claims::default();
    for (c, (f, p)) in tails.iter().enumerate() {
        claims.at(format!("class = {c}"));
        claims.check("cells (prio) = cells (fcfs)", p.count, f.count);
        claims.check("cells > 0", f.count, 0);
        table.row_display(&[
            c.to_string(),
            p.count.to_string(),
            format!("{:.2}", f.mean),
            f.p99.to_string(),
            format!("{:.2}", p.mean),
            p.p99.to_string(),
            p.p999.to_string(),
            p.max.to_string(),
        ]);
    }
    // Priority must shelter the top class relative to FCFS and order the
    // classes among themselves; work conservation must hold exactly
    // (same total delay under both schedulers — the ledger balances).
    let (top, bottom) = (&tails[0], &tails[CLASSES as usize - 1]);
    let total_fcfs: f64 = tails.iter().map(|(f, _)| f.mean * f.count as f64).sum();
    let total_prio: f64 = tails.iter().map(|(_, p)| p.mean * p.count as f64).sum();
    let [sheltered, ordered, absorbs, conserved] = [
        "top prio mean ≤ top fcfs mean",
        "top prio mean ≤ bottom prio mean",
        "bottom prio mean ≥ bottom fcfs mean",
        "total delay (prio) within 1e-6 of total delay (fcfs)",
    ];
    claims.at(format!("top class 0, bottom class {}", CLASSES - 1));
    claims.check(sheltered, top.1.mean, top.0.mean);
    claims.check(ordered, top.1.mean, bottom.1.mean);
    claims.check(absorbs, bottom.1.mean, bottom.0.mean);
    claims.at("all classes");
    claims.check(conserved, total_prio, total_fcfs);
    ExperimentOutput::new(
        "e21",
        "Egress priority queueing — per-class tails under strict priority vs FCFS",
        vec![table],
        &[
            &format!(
                "work conservation is exact: total queueing delay {total_fcfs:.0} slots under \
                 both schedulers — priority only redistributes it across classes"
            ),
            "class 0's mean and p99 drop below FCFS, the bottom class absorbs the \
             difference; the redistribution pattern is the qualitative content of the \
             egress priority-queueing bounds (Kogan et al.)",
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
    fn work_conservation_is_exact() {
        let classed = classed_workload(5);
        let tails = per_class_tails(&classed);
        let f: f64 = tails.iter().map(|(f, _)| f.mean * f.count as f64).sum();
        let p: f64 = tails.iter().map(|(_, p)| p.mean * p.count as f64).sum();
        assert!((f - p).abs() < 1e-6, "fcfs {f} vs priority {p}");
    }

    #[test]
    fn top_class_never_loses_from_priority() {
        let classed = classed_workload(6);
        let tails = per_class_tails(&classed);
        assert!(tails[0].1.mean <= tails[0].0.mean);
        assert!(tails[0].1.p99 <= tails[0].0.p99);
    }
}
