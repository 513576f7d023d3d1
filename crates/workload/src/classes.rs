//! Multi-class cells and the priority-aware output mux path.
//!
//! The engines treat every cell as best-effort FCFS; real egress
//! schedulers differentiate. This module adds the *workload half* of that
//! story without touching the switch fabric: [`ClassedTrace`] tags each
//! arrival with a service class (a pure hash of its `(input, output)` flow
//! — all cells of a flow share a class, as DiffServ marking would), and
//! [`priority_oq_delay_counts`] runs the tagged trace through a
//! strict-priority output-queued mux at rate `R`, one departure per output
//! per slot, always serving the lowest class with backlog, and counts each
//! class's delays as the cells depart.
//!
//! Comparing the per-class delay distributions against the plain FCFS
//! shadow (`pps_reference::fcfs_departures`) reproduces the
//! qualitative shape of the egress priority-queueing bounds in Kogan
//! et al. (arXiv:1207.5959): high classes buy near-zero tails, low
//! classes absorb the queueing the high classes shed — while total work
//! is conserved, so the *aggregate* delay matches FCFS slot for slot.

use pps_core::prelude::*;
use pps_core::rng::mix64;
use std::collections::VecDeque;

/// A trace whose cells carry service classes `0..n_classes`, class 0
/// highest priority.
pub struct ClassedTrace {
    /// The underlying arrival sequence (shared with the classless path).
    pub trace: Trace,
    /// `classes[i]` tags `trace.arrivals()[i]`.
    pub classes: Vec<u8>,
    /// Number of distinct classes.
    pub n_classes: u8,
}

impl ClassedTrace {
    /// Tag `trace` with per-flow classes: cells of flow `(input, output)`
    /// all get class `mix64(flow ^ salt) % n_classes`.
    pub fn per_flow(trace: Trace, n_classes: u8, seed: u64) -> Self {
        assert!(n_classes >= 1, "need at least one class");
        let salt = mix64(seed ^ 0x0C1A_55E5);
        let classes = trace
            .arrivals()
            .map(|a| {
                let flow = ((a.input.idx() as u64) << 32) | a.output.idx() as u64;
                (mix64(flow ^ salt) % n_classes as u64) as u8
            })
            .collect();
        ClassedTrace {
            trace,
            classes,
            n_classes,
        }
    }
}

/// Per-class queueing-delay counts (`depart − arrival`) under a
/// strict-priority output-queued mux (same arrival model and zero minimum
/// transit as `pps_reference::oq::ShadowOq`; within a class, FCFS by
/// arrival order): `result[c][d]` class-`c` cells waited `d` slots.
///
/// A queue holds each waiting cell's arrival slot, so the mux stores
/// nothing per cell beyond its backlog.
pub fn priority_oq_delay_counts(classed: &ClassedTrace, n: usize) -> Vec<Vec<usize>> {
    let nc = classed.n_classes as usize;
    // queues[output][class] holds arrival slots.
    let mut queues: Vec<Vec<VecDeque<Slot>>> = vec![vec![VecDeque::new(); nc]; n];
    let mut backlog = 0usize;
    let mut counts = vec![Vec::new(); nc];
    let mut now: Slot = 0;

    let depart_one_slot = |queues: &mut Vec<Vec<VecDeque<Slot>>>,
                           backlog: &mut usize,
                           counts: &mut Vec<Vec<usize>>,
                           slot: Slot| {
        for output_queues in queues.iter_mut() {
            for (class, q) in output_queues.iter_mut().enumerate() {
                if let Some(arrival) = q.pop_front() {
                    count_delay(&mut counts[class], slot - arrival);
                    *backlog -= 1;
                    break;
                }
            }
        }
    };

    let mut classes = classed.classes.iter();
    for (slot, group) in classed.trace.by_slot() {
        // Drain the backlog up to this arrival slot; once idle, jump.
        while now < slot && backlog > 0 {
            depart_one_slot(&mut queues, &mut backlog, &mut counts, now);
            now += 1;
        }
        now = slot;
        // by_slot yields consecutive runs of the trace's cells, so the
        // classes walked beside it tag each cell.
        for (a, &class) in group.zip(classes.by_ref()) {
            queues[a.output.idx()][class as usize].push_back(slot);
            backlog += 1;
        }
        // Cut-through: a cell may depart in its arrival slot.
        depart_one_slot(&mut queues, &mut backlog, &mut counts, now);
        now += 1;
    }
    while backlog > 0 {
        depart_one_slot(&mut queues, &mut backlog, &mut counts, now);
        now += 1;
    }
    counts
}

/// Add one cell that waited `delay` slots to `counts`.
fn count_delay(counts: &mut Vec<usize>, delay: Slot) {
    let d = delay as usize;
    if d >= counts.len() {
        counts.resize(d + 1, 0);
    }
    counts[d] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    fn burst_to_one_output(n: usize, cells: usize) -> Trace {
        // `cells` arrivals in slot 0, all to output 0, one per input
        // round-robin over later slots as needed.
        let arrivals = (0..cells)
            .map(|i| Arrival::new((i / n) as Slot, (i % n) as u32, 0))
            .collect();
        Trace::build(arrivals, n).unwrap()
    }

    /// The strict-priority mux cell by cell, as a reference for
    /// [`priority_oq_delay_counts`]: queues of cell indices and a departure
    /// slot per cell, returned in `trace.arrivals()` order.
    fn priority_departure_times(classed: &ClassedTrace, n: usize) -> Vec<Slot> {
        let nc = classed.n_classes as usize;
        // queues[output][class] holds cell indices.
        let mut queues: Vec<Vec<VecDeque<usize>>> = vec![vec![VecDeque::new(); nc]; n];
        let mut backlog = 0usize;
        let mut departs = vec![0 as Slot; classed.trace.len()];
        let mut now: Slot = 0;

        let depart_one_slot = |queues: &mut Vec<Vec<VecDeque<usize>>>,
                               backlog: &mut usize,
                               departs: &mut Vec<Slot>,
                               slot: Slot| {
            for output_queues in queues.iter_mut() {
                if let Some(q) = output_queues.iter_mut().find(|q| !q.is_empty()) {
                    let idx = q.pop_front().unwrap();
                    departs[idx] = slot;
                    *backlog -= 1;
                }
            }
        };

        let mut next_idx = 0usize;
        for (slot, group) in classed.trace.by_slot() {
            while now < slot && backlog > 0 {
                depart_one_slot(&mut queues, &mut backlog, &mut departs, now);
                now += 1;
            }
            now = slot;
            for a in group {
                let idx = next_idx;
                next_idx += 1;
                let class = classed.classes[idx] as usize;
                queues[a.output.idx()][class].push_back(idx);
                backlog += 1;
            }
            depart_one_slot(&mut queues, &mut backlog, &mut departs, now);
            now += 1;
        }
        while backlog > 0 {
            depart_one_slot(&mut queues, &mut backlog, &mut departs, now);
            now += 1;
        }
        departs
    }

    /// Per-class delay counts of `departs` (in `trace.arrivals()` order).
    fn counts_of(classed: &ClassedTrace, departs: impl Iterator<Item = Slot>) -> Vec<Vec<usize>> {
        let mut counts = vec![Vec::new(); classed.n_classes as usize];
        let cells = classed.trace.arrivals().zip(&classed.classes);
        for ((a, &class), depart) in cells.zip(departs) {
            count_delay(&mut counts[class as usize], depart - a.slot);
        }
        counts
    }

    /// The FCFS shadow's delay counts, per class.
    fn fcfs_counts(classed: &ClassedTrace, n: usize) -> Vec<Vec<usize>> {
        counts_of(classed, pps_reference::fcfs_departures(&classed.trace, n))
    }

    /// `(cells, Σ delay)` over every class.
    fn totals(counts: &[Vec<usize>]) -> (usize, usize) {
        let cells = counts.iter().flatten().sum();
        let delay = counts
            .iter()
            .flat_map(|c| c.iter().enumerate())
            .map(|(d, &c)| d * c)
            .sum();
        (cells, delay)
    }

    #[test]
    fn priority_counts_match_the_per_cell_reference() {
        for seed in 1..=4 {
            let spec = format!("zipf:n=6,load=0.95,s=1.1,flows=64,seed={seed},horizon=400");
            let trace = WorkloadSpec::parse(&spec).unwrap().trace().unwrap();
            for n_classes in 1..=3 {
                let classed = ClassedTrace::per_flow(trace.clone(), n_classes, seed);
                let got = priority_oq_delay_counts(&classed, 6);
                let departs = priority_departure_times(&classed, 6);
                let want = counts_of(&classed, departs.into_iter());
                assert_eq!(got, want, "seed {seed}, {n_classes} classes");
                assert!(got.iter().any(|c| c.len() > 3), "the mux queued nothing");
            }
        }
    }

    #[test]
    fn single_class_matches_fcfs_shadow() {
        let t = burst_to_one_output(4, 16);
        let classed = ClassedTrace::per_flow(t, 1, 9);
        let got = priority_oq_delay_counts(&classed, 4);
        assert_eq!(got, fcfs_counts(&classed, 4));
    }

    #[test]
    fn work_conservation_holds_across_classes() {
        // The multiset of departure slots per output is schedule-
        // independent for work-conserving muxes: priority vs FCFS differ
        // only in *which* cell takes each slot, so Σ delay·count agrees.
        let t = burst_to_one_output(4, 20);
        let classed = ClassedTrace::per_flow(t, 3, 5);
        let prio = priority_oq_delay_counts(&classed, 4);
        let fcfs = fcfs_counts(&classed, 4);
        assert_eq!(totals(&prio), totals(&fcfs));
        assert_ne!(prio, fcfs, "priority moved no delay between classes");
    }

    #[test]
    fn high_class_waits_less() {
        // Saturating burst into one output: class-0 cells must finish no
        // later on average than class-(nc-1) cells.
        let t = burst_to_one_output(8, 64);
        let classed = ClassedTrace::per_flow(t, 2, 17);
        let counts = priority_oq_delay_counts(&classed, 8);
        let cells = |c: &Vec<usize>| c.iter().sum::<usize>();
        let mean = |c: &Vec<usize>| {
            let total: usize = c.iter().enumerate().map(|(d, &n)| d * n).sum();
            total as f64 / cells(c).max(1) as f64
        };
        assert!(
            cells(&counts[0]) > 0 && cells(&counts[1]) > 0,
            "hash degenerated to one class"
        );
        assert!(
            mean(&counts[0]) < mean(&counts[1]),
            "priority inversion: {:?} vs {:?}",
            mean(&counts[0]),
            mean(&counts[1])
        );
    }

    #[test]
    fn classes_are_per_flow_stable() {
        let t = Trace::build(
            vec![
                Arrival::new(0, 0, 1),
                Arrival::new(3, 0, 1),
                Arrival::new(9, 0, 1),
            ],
            2,
        )
        .unwrap();
        let classed = ClassedTrace::per_flow(t, 4, 77);
        assert!(classed.classes.windows(2).all(|w| w[0] == w[1]));
    }
}
