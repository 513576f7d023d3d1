//! Graceful-degradation metrics for faulted runs.
//!
//! A fault-injection run (see `pps_core::fault`) degrades the PPS in two
//! measurable ways: cells are *lost* (to a failed plane, a degraded line,
//! or a watchdog skip), and surviving cells are *delayed* relative to the
//! shadow switch while the fabric routes around the fault. [`fault_impact`]
//! condenses both into a [`FaultImpact`]: how much was lost, how unevenly
//! the loss fell across inputs, and how long after the fault cleared the
//! relative delay returned to its pre-fault level.

use crate::metrics::{joined, relative};
use pps_core::prelude::*;

/// Degradation summary of one faulted PPS run against its shadow switch.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultImpact {
    /// The fault window `[from, until)` the metrics are phased around.
    pub fault_window: (Slot, Slot),
    /// Cells in the trace.
    pub total_cells: usize,
    /// Cells the PPS never delivered.
    pub lost: usize,
    /// `lost / total_cells` (0 for an empty trace).
    pub loss_fraction: f64,
    /// Lost cells per input port.
    pub loss_by_input: Vec<usize>,
    /// Largest per-input loss count.
    pub worst_input_loss: usize,
    /// `worst_input_loss / (lost / N)` — how concentrated the loss is on
    /// one input (1 = perfectly even, N = all loss on one input; 0 when
    /// nothing was lost). The paper's §3 fault-tolerance argument predicts
    /// partitioned dispatch concentrates loss and unpartitioned spreads it.
    pub loss_concentration: f64,
    /// Max relative delay over cells arriving before the fault.
    pub pre_fault_max_rd: i64,
    /// Max relative delay over cells arriving during the fault window.
    pub during_fault_max_rd: i64,
    /// Max relative delay over cells arriving after the fault cleared.
    pub post_fault_max_rd: i64,
    /// First slot from which every later-arriving cell is delivered with
    /// relative delay no worse than the pre-fault maximum; `None` if the
    /// run never settles back (or has no post-fault arrivals).
    pub recovery_slot: Option<Slot>,
}

impl FaultImpact {
    /// Slots from the end of the fault window until recovery, if recovery
    /// happened.
    pub fn recovery_time(&self) -> Option<Slot> {
        self.recovery_slot
            .map(|s| s.saturating_sub(self.fault_window.1))
    }
}

/// Compute the degradation metrics from a faulted PPS log and its
/// fault-free shadow-switch log (same trace, joined by cell id).
/// `fault_window` is `[first_fault_slot, recovery_event_slot)` — for a
/// `PlaneDown`/`PlaneUp` pair, their two activation slots.
pub fn fault_impact(
    pps: &RunLog,
    oq: &RunLog,
    n: usize,
    fault_window: (Slot, Slot),
) -> FaultImpact {
    let (from, until) = fault_window;
    let mut loss_by_input = vec![0usize; n];
    let mut phase_max = [i64::MIN; 3]; // pre / during / post
    let mut last_bad: Option<Slot> = None;
    let mut last_post_arrival: Option<Slot> = None;
    for (a, p, q) in joined(pps, oq) {
        let phase = if a.slot < from {
            0
        } else if a.slot < until {
            1
        } else {
            2
        };
        if phase == 2 {
            last_post_arrival = Some(last_post_arrival.map_or(a.slot, |l| l.max(a.slot)));
        }
        match (p, q) {
            (Some(p), Some(q)) => {
                phase_max[phase] = phase_max[phase].max(relative(p, q));
            }
            (None, _) => {
                loss_by_input[a.input.idx()] += 1;
            }
            (Some(_), None) => unreachable!("the OQ reference always drains"),
        }
    }
    let pre_baseline = if phase_max[0] == i64::MIN {
        0
    } else {
        phase_max[0]
    };
    // Second pass for recovery: a post-fault arrival is "bad" if it was
    // lost or delivered worse than the pre-fault baseline.
    for (a, p, q) in joined(pps, oq) {
        if a.slot < until {
            continue;
        }
        let bad = match (p, q) {
            (Some(p), Some(q)) => relative(p, q) > pre_baseline,
            (None, _) => true,
            (Some(_), None) => unreachable!("the OQ reference always drains"),
        };
        if bad {
            last_bad = Some(last_bad.map_or(a.slot, |l| l.max(a.slot)));
        }
    }
    let recovery_slot = match (last_post_arrival, last_bad) {
        (None, _) => None,              // nothing arrived after the fault: can't tell
        (Some(_), None) => Some(until), // clean from the first post-fault slot
        (Some(last), Some(bad)) if last > bad => Some(bad + 1),
        _ => None, // still degraded at the end of the trace
    };
    let lost: usize = loss_by_input.iter().sum();
    let worst_input_loss = loss_by_input.iter().copied().max().unwrap_or(0);
    let total_cells = pps.len();
    FaultImpact {
        fault_window,
        total_cells,
        lost,
        loss_fraction: if total_cells == 0 {
            0.0
        } else {
            lost as f64 / total_cells as f64
        },
        loss_concentration: if lost == 0 {
            0.0
        } else {
            worst_input_loss as f64 / (lost as f64 / n as f64)
        },
        loss_by_input,
        worst_input_loss,
        pre_fault_max_rd: pre_baseline,
        during_fault_max_rd: if phase_max[1] == i64::MIN {
            0
        } else {
            phase_max[1]
        },
        post_fault_max_rd: if phase_max[2] == i64::MIN {
            0
        } else {
            phase_max[2]
        },
        recovery_slot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (id, arrival, departure, input)
    fn log_with(rows: &[(u64, Slot, Option<Slot>, u32)]) -> RunLog {
        let cells: Vec<Cell> = rows
            .iter()
            .map(|&(id, arrival, _, input)| Cell {
                id: CellId(id),
                input: PortId(input),
                output: PortId(0),
                seq: 0,
                arrival,
            })
            .collect();
        let mut log = RunLog::with_cells(&cells);
        for &(id, _, dep, _) in rows {
            if let Some(d) = dep {
                log.set_departure(CellId(id), d);
            }
        }
        log
    }

    #[test]
    fn loss_accounting_and_concentration() {
        // 4 cells, 2 inputs; input 1 loses both of its cells.
        let pps = log_with(&[
            (0, 0, Some(0), 0),
            (1, 0, None, 1),
            (2, 1, Some(1), 0),
            (3, 1, None, 1),
        ]);
        let oq = log_with(&[
            (0, 0, Some(0), 0),
            (1, 0, Some(1), 1),
            (2, 1, Some(2), 0),
            (3, 1, Some(3), 1),
        ]);
        let fi = fault_impact(&pps, &oq, 2, (0, 2));
        assert_eq!(fi.lost, 2);
        assert_eq!(fi.loss_fraction, 0.5);
        assert_eq!(fi.loss_by_input, vec![0, 2]);
        assert_eq!(fi.worst_input_loss, 2);
        // All loss on one of two inputs: concentration = 2 / (2/2) = 2 = N.
        assert_eq!(fi.loss_concentration, 2.0);
    }

    #[test]
    fn phases_split_by_arrival_slot() {
        // Fault window [10, 20): one cell per phase, relative delays 1/7/2.
        let pps = log_with(&[
            (0, 5, Some(6), 0),
            (1, 12, Some(19), 0),
            (2, 25, Some(27), 0),
        ]);
        let oq = log_with(&[
            (0, 5, Some(5), 0),
            (1, 12, Some(12), 0),
            (2, 25, Some(25), 0),
        ]);
        let fi = fault_impact(&pps, &oq, 1, (10, 20));
        assert_eq!(fi.pre_fault_max_rd, 1);
        assert_eq!(fi.during_fault_max_rd, 7);
        assert_eq!(fi.post_fault_max_rd, 2);
        // The slot-25 cell is worse than the pre-fault baseline (2 > 1) and
        // is the last arrival: the run never demonstrably recovers.
        assert_eq!(fi.recovery_slot, None);
    }

    #[test]
    fn recovery_is_first_slot_after_the_last_bad_arrival() {
        let pps = log_with(&[
            (0, 0, Some(0), 0),   // pre baseline rd 0
            (1, 30, Some(39), 0), // post, rd 9 — still degraded
            (2, 40, Some(40), 0), // post, rd 0 — recovered
            (3, 41, Some(41), 0),
        ]);
        let oq = log_with(&[
            (0, 0, Some(0), 0),
            (1, 30, Some(30), 0),
            (2, 40, Some(40), 0),
            (3, 41, Some(41), 0),
        ]);
        let fi = fault_impact(&pps, &oq, 1, (10, 20));
        assert_eq!(fi.recovery_slot, Some(31));
        assert_eq!(fi.recovery_time(), Some(11));
        assert_eq!(fi.lost, 0);
        assert_eq!(fi.loss_concentration, 0.0);
    }

    #[test]
    fn clean_post_fault_recovers_immediately() {
        let pps = log_with(&[(0, 0, Some(1), 0), (1, 25, Some(26), 0)]);
        let oq = log_with(&[(0, 0, Some(0), 0), (1, 25, Some(25), 0)]);
        let fi = fault_impact(&pps, &oq, 1, (10, 20));
        assert_eq!(fi.recovery_slot, Some(20));
        assert_eq!(fi.recovery_time(), Some(0));
    }

    #[test]
    fn lost_post_fault_cells_block_recovery() {
        let pps = log_with(&[(0, 0, Some(0), 0), (1, 25, None, 0)]);
        let oq = log_with(&[(0, 0, Some(0), 0), (1, 25, Some(25), 0)]);
        let fi = fault_impact(&pps, &oq, 1, (10, 20));
        assert_eq!(fi.recovery_slot, None);
        assert_eq!(fi.lost, 1);
    }
}
