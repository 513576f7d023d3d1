//! Post-hoc run verifiers.
//!
//! Two model obligations are checked against any [`RunLog`]:
//!
//! * **Work conservation** (the defining property of the reference switch,
//!   and of the PPS output stage during congested periods in Section 5):
//!   *"if a cell is pending for output port j at time-slot t, then some cell
//!   leaves from output-port j at time-slot t"*.
//! * **Flow order**: cells of a flow depart in sequence-number order — the
//!   switch "should preserve the order of cells within a flow and not drop
//!   cells".

use pps_core::prelude::*;

/// A detected violation of a checked property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Output `output` was idle at `slot` although `pending` cells destined
    /// for it had arrived and not yet departed.
    IdleWithBacklog {
        /// The idle output port.
        output: PortId,
        /// The idle slot.
        slot: Slot,
        /// Number of cells that were pending.
        pending: usize,
    },
    /// Two cells of one flow departed out of order.
    FlowReorder {
        /// The affected flow.
        flow: FlowId,
        /// The earlier-sequence cell.
        earlier: CellId,
        /// The later-sequence cell that overtook it.
        later: CellId,
    },
    /// A cell never departed although the run was expected to drain.
    Undelivered {
        /// The stuck cell.
        cell: CellId,
    },
}

/// Check work conservation per output over the whole log.
///
/// `within` optionally restricts the check to slots in `[within.0,
/// within.1)` — used for Theorem 14, where the PPS is only claimed
/// work-conserving *during the congested period after warm-up*.
pub fn check_work_conserving(log: &RunLog, within: Option<(Slot, Slot)>) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Group cell events per output.
    let mut outputs: std::collections::BTreeMap<PortId, Vec<(Slot, Option<Slot>, CellId)>> =
        std::collections::BTreeMap::new();
    for (id, rec) in log.iter() {
        outputs
            .entry(rec.output)
            .or_default()
            .push((rec.arrival, rec.departure(), id));
    }
    for (output, mut cells) in outputs {
        cells.sort_by_key(|&(a, _, id)| (a, id));
        let horizon = cells.iter().filter_map(|&(_, d, _)| d).max().unwrap_or(0);
        let mut departures: std::collections::BTreeSet<Slot> =
            cells.iter().filter_map(|&(_, d, _)| d).collect();
        // Sweep slots; maintain pending count.
        let mut pending = 0usize;
        let mut next_arrival = 0usize;
        for slot in 0..=horizon {
            while next_arrival < cells.len() && cells[next_arrival].0 == slot {
                pending += 1;
                next_arrival += 1;
            }
            let departed = departures.remove(&slot);
            if departed {
                pending -= 1;
            }
            let in_window = within.is_none_or(|(lo, hi)| slot >= lo && slot < hi);
            if in_window && pending > 0 && !departed {
                violations.push(Violation::IdleWithBacklog {
                    output,
                    slot,
                    pending,
                });
            }
        }
    }
    violations
}

/// Check that every flow's cells depart in sequence order and that every
/// cell departed.
pub fn check_flow_order(log: &RunLog) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut flows: std::collections::BTreeMap<FlowId, Vec<(CellId, CellRecord)>> =
        std::collections::BTreeMap::new();
    for (id, rec) in log.iter() {
        if rec.departure().is_none() {
            violations.push(Violation::Undelivered { cell: id });
            continue;
        }
        flows.entry(rec.flow()).or_default().push((id, rec));
    }
    for (flow, mut recs) in flows {
        recs.sort_by_key(|(_, r)| r.seq);
        for w in recs.windows(2) {
            let ((earlier, a), (later, b)) = (w[0], w[1]);
            // Same-slot departure of two cells at one output is impossible
            // (one departure per output per slot), so strict inequality.
            if b.departure() <= a.departure() {
                violations.push(Violation::FlowReorder {
                    flow,
                    earlier,
                    later,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oq::run_oq_in;
    use pps_core::run::Sink;

    fn simple_trace() -> Trace {
        Trace::build(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
                Arrival::new(1, 0, 0),
                Arrival::new(9, 2, 1),
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn oq_switch_is_work_conserving_and_ordered() {
        let t = simple_trace();
        let log = run_oq_in(&t, 3, &Sink::default());
        assert!(check_work_conserving(&log, None).is_empty());
        assert!(check_flow_order(&log).is_empty());
    }

    #[test]
    fn idle_with_backlog_is_flagged() {
        let t = simple_trace();
        let cells = t.cells(3);
        let mut log = RunLog::with_cells(&cells);
        // Output 0 received cells at slots 0,0,1 but first departure at 2.
        log.set_departure(CellId(0), 2);
        log.set_departure(CellId(1), 3);
        log.set_departure(CellId(2), 4);
        log.set_departure(CellId(3), 9);
        let v = check_work_conserving(&log, None);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::IdleWithBacklog { slot: 0, .. })));
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::IdleWithBacklog {
                slot: 1,
                pending: 3,
                ..
            }
        )));
    }

    #[test]
    fn window_restriction_excuses_warmup() {
        let t = simple_trace();
        let cells = t.cells(3);
        let mut log = RunLog::with_cells(&cells);
        log.set_departure(CellId(0), 2);
        log.set_departure(CellId(1), 3);
        log.set_departure(CellId(2), 4);
        log.set_departure(CellId(3), 9);
        // Checking only after slot 2 ("after warm-up") passes.
        assert!(check_work_conserving(&log, Some((2, 100))).is_empty());
    }

    #[test]
    fn reorder_is_flagged() {
        let t = Trace::build(vec![Arrival::new(0, 0, 0), Arrival::new(1, 0, 0)], 1).unwrap();
        let cells = t.cells(1);
        let mut log = RunLog::with_cells(&cells);
        // seq 1 departs before seq 0.
        log.set_departure(CellId(0), 5);
        log.set_departure(CellId(1), 2);
        let v = check_flow_order(&log);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::FlowReorder { .. }));
    }

    #[test]
    fn undelivered_is_flagged() {
        let t = Trace::build(vec![Arrival::new(0, 0, 0)], 1).unwrap();
        let log = RunLog::with_cells(&t.cells(1));
        let v = check_flow_order(&log);
        assert!(matches!(v[0], Violation::Undelivered { cell: CellId(0) }));
    }
}
