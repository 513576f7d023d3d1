//! Multi-class cells and the priority-aware output mux path.
//!
//! The engines treat every cell as best-effort FCFS; real egress
//! schedulers differentiate. This module adds the *workload half* of that
//! story without touching the switch fabric: [`ClassedTrace`] tags each
//! arrival with a service class (a pure hash of its `(input, output)` flow
//! — all cells of a flow share a class, as DiffServ marking would), and
//! [`priority_oq_delays`] runs the tagged trace through a strict-priority
//! output-queued mux at rate `R`, one departure per output per slot,
//! always serving the lowest class with backlog.
//!
//! Comparing the per-class delay distributions against the plain FCFS
//! shadow (`pps_reference::fcfs_departure_times`) reproduces the
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

/// Departure slot of every cell under a strict-priority output-queued mux
/// (same arrival model and zero minimum transit as
/// `pps_reference::oq::ShadowOq`; within a class, FCFS by arrival
/// order). Returned in `trace.arrivals()` order.
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
        // Drain the backlog up to this arrival slot; once idle, jump.
        while now < slot && backlog > 0 {
            depart_one_slot(&mut queues, &mut backlog, &mut departs, now);
            now += 1;
        }
        now = slot;
        // by_slot yields consecutive runs of the trace's cells, so the
        // running index identifies each cell.
        for a in group {
            let idx = next_idx;
            next_idx += 1;
            let class = classed.classes[idx] as usize;
            queues[a.output.idx()][class].push_back(idx);
            backlog += 1;
        }
        // Cut-through: a cell may depart in its arrival slot.
        depart_one_slot(&mut queues, &mut backlog, &mut departs, now);
        now += 1;
    }
    while backlog > 0 {
        depart_one_slot(&mut queues, &mut backlog, &mut departs, now);
        now += 1;
    }
    departs
}

/// Per-class queueing-delay samples (`depart − arrival`) under the
/// strict-priority mux: `result[c]` lists every class-`c` cell's delay in
/// arrival order.
pub fn priority_oq_delays(classed: &ClassedTrace, n: usize) -> Vec<Vec<u64>> {
    let departs = priority_departure_times(classed, n);
    let mut per_class = vec![Vec::new(); classed.n_classes as usize];
    for (i, a) in classed.trace.arrivals().enumerate() {
        per_class[classed.classes[i] as usize].push(departs[i] - a.slot);
    }
    per_class
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_to_one_output(n: usize, cells: usize) -> Trace {
        // `cells` arrivals in slot 0, all to output 0, one per input
        // round-robin over later slots as needed.
        let arrivals = (0..cells)
            .map(|i| Arrival::new((i / n) as Slot, (i % n) as u32, 0))
            .collect();
        Trace::build(arrivals, n).unwrap()
    }

    #[test]
    fn single_class_matches_fcfs_shadow() {
        let t = burst_to_one_output(4, 16);
        let classed = ClassedTrace::per_flow(t.clone(), 1, 9);
        let got = priority_departure_times(&classed, 4);
        let want = pps_reference::fcfs_departure_times(&t, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn work_conservation_holds_across_classes() {
        // The multiset of departure slots per output is schedule-
        // independent for work-conserving muxes: priority vs FCFS differ
        // only in *which* cell takes each slot.
        let t = burst_to_one_output(4, 20);
        let classed = ClassedTrace::per_flow(t.clone(), 3, 5);
        let mut a = priority_departure_times(&classed, 4);
        let mut b = pps_reference::fcfs_departure_times(&t, 4);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn high_class_waits_less() {
        // Saturating burst into one output: class-0 cells must finish no
        // later on average than class-(nc-1) cells.
        let t = burst_to_one_output(8, 64);
        let classed = ClassedTrace::per_flow(t, 2, 17);
        let delays = priority_oq_delays(&classed, 8);
        let mean = |v: &Vec<u64>| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        assert!(
            !delays[0].is_empty() && !delays[1].is_empty(),
            "hash degenerated to one class"
        );
        assert!(
            mean(&delays[0]) < mean(&delays[1]),
            "priority inversion: {:?} vs {:?}",
            mean(&delays[0]),
            mean(&delays[1])
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
