//! Runtime invariant oracles.
//!
//! The paper's central claim — a PPS cannot beat an inherent relative
//! queuing delay versus the ideal OQ switch — is only as trustworthy as
//! the simulator's conservation and ordering guarantees. This module turns
//! those guarantees into machine-checkable predicates over the model types
//! every engine already produces ([`RunLog`], per-slot counters, sampled
//! occupancy series). The chaos harness (`pps-chaos`) evaluates them every
//! slot against randomized fault/traffic schedules; experiments reuse the
//! same checks as pass criteria (e8's congestion-window shape assertion).
//!
//! Event-stream oracles — phantom delivery, dispatch to a known-down
//! plane, watchdog accounting — need the telemetry vocabulary and live in
//! the chaos harness (`pps-chaos`), their one caller; they report through
//! the same [`OracleViolation`] type.
//!
//! Every check is **fault-aware**: cells legitimately lost to failed
//! planes, input starvation under link degradation, or watchdog skips are
//! accounted, not flagged. A violation therefore always indicates a
//! simulator bug (or an injected one), never an unlucky schedule.

use crate::record::RunLog;
use crate::time::Slot;
use std::fmt;

/// Which invariant a violation breaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// Cells in ≠ cells out + queued + dropped (the conservation ledger).
    Conservation,
    /// Two delivered cells of one flow departed out of arrival order.
    FlowOrder,
    /// A cell departed before it arrived (or twice).
    Causality,
    /// A departure event for a cell that never arrived.
    PhantomDeparture,
    /// A demultiplexor dispatched to a plane its information class knew
    /// was down while a believed-up plane with a free line existed.
    DownPlaneDispatch,
    /// Watchdog counters disagree with the event stream.
    WatchdogAccounting,
    /// A delivered cell exceeded the relative-delay envelope vs the OQ
    /// shadow (fault-free bufferless runs only).
    RelativeDelayBound,
    /// A sampled occupancy series left the predicted linear envelope.
    OccupancyShape,
}

impl OracleKind {
    /// Stable short name for reports.
    fn name(&self) -> &'static str {
        match self {
            OracleKind::Conservation => "conservation",
            OracleKind::FlowOrder => "flow-order",
            OracleKind::Causality => "causality",
            OracleKind::PhantomDeparture => "phantom-departure",
            OracleKind::DownPlaneDispatch => "down-plane-dispatch",
            OracleKind::WatchdogAccounting => "watchdog-accounting",
            OracleKind::RelativeDelayBound => "relative-delay-bound",
            OracleKind::OccupancyShape => "occupancy-shape",
        }
    }
}

/// One oracle breach, anchored at the first slot where it was observable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleViolation {
    /// The invariant breached.
    pub kind: OracleKind,
    /// First slot at which the breach was observable.
    pub slot: Slot,
    /// Human-readable specifics (counters, cell ids).
    pub detail: String,
}

impl OracleViolation {
    /// Ordering key: earliest slot first, then kind, then detail — a total
    /// order so "first violation" is well-defined and run-order free.
    pub fn sort_key(&self) -> (Slot, OracleKind, &str) {
        (self.slot, self.kind, &self.detail)
    }
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @slot {}: {}",
            self.kind.name(),
            self.slot,
            self.detail
        )
    }
}

/// The per-slot conservation ledger: every cell that has entered the
/// switch is either out, still inside, or accounted lost.
///
/// `arrivals == departures + backlog + dropped + late_dropped` must hold
/// at the end of every slot. `dropped` covers fabric-level losses (failed
/// planes, input starvation under degradation); `late_dropped` covers
/// cells discarded at an output after the watchdog skipped past them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConservationLedger {
    /// Cells offered to the switch so far.
    pub arrivals: u64,
    /// Cells emitted by the output multiplexors so far.
    pub departures: u64,
    /// Cells currently inside (input buffers + plane queues + output muxes).
    pub backlog: u64,
    /// Cells lost at the fabric (failed planes, starved inputs).
    pub dropped: u64,
    /// Cells discarded at outputs after a watchdog skip.
    pub late_dropped: u64,
}

impl ConservationLedger {
    /// Check the ledger at the end of `slot`.
    pub fn check(&self, slot: Slot) -> Option<OracleViolation> {
        let out = self.departures + self.backlog + self.dropped + self.late_dropped;
        if self.arrivals != out {
            Some(OracleViolation {
                kind: OracleKind::Conservation,
                slot,
                detail: format!(
                    "arrivals {} != departures {} + backlog {} + dropped {} + late {}",
                    self.arrivals, self.departures, self.backlog, self.dropped, self.late_dropped
                ),
            })
        } else {
            None
        }
    }
}

/// Per-flow FIFO at every output, over the **delivered** cells only.
///
/// Within a flow, the trace numbers ids (and seqs) in
/// arrival order, so delivered cells must depart in strictly increasing
/// id order — strictly, because a flow's cells share one output and an
/// output emits at most one cell per slot. Undelivered cells (lost to
/// faults, skipped by the watchdog, still queued at the horizon) are
/// ignored: a gap is legal, an inversion never is.
pub fn check_flow_order(log: &RunLog) -> Vec<OracleViolation> {
    use std::collections::HashMap;
    let mut last: HashMap<(u32, u32), (u64, Slot)> = HashMap::new();
    let mut violations = Vec::new();
    // iter() walks in id order == per-flow arrival order.
    for (id, rec) in log.iter() {
        let Some(dep) = rec.departure() else { continue };
        let key = (rec.input.0, rec.output.0);
        if let Some(&(prev_id, prev_dep)) = last.get(&key) {
            if dep <= prev_dep {
                violations.push(OracleViolation {
                    kind: OracleKind::FlowOrder,
                    slot: dep.max(prev_dep),
                    detail: format!(
                        "flow {}->{}: cell {} departed at {} not after cell {} at {}",
                        rec.input.0, rec.output.0, id.0, dep, prev_id, prev_dep
                    ),
                });
            }
        }
        last.insert(key, (id.0, dep));
    }
    violations
}

/// Relative-delay envelope versus the shadow OQ switch: every cell
/// delivered by both switches satisfies
/// `delay_pps(c) - delay_oq(c) <= bound`.
///
/// Only meaningful for fault-free bufferless runs; the caller picks the
/// envelope (the chaos harness uses `r'·(N + K + B)` plus slack — generous
/// against the paper's Section 3–4 worst cases, which are `Θ(N·r')` for
/// fully-distributed algorithms under burstiness `B`).
pub fn check_relative_delay(pps: &RunLog, oq: &RunLog, bound: u64) -> Vec<OracleViolation> {
    let mut violations = Vec::new();
    for (id, rec) in pps.iter() {
        let (Some(dep), Some(oq_dep)) = (rec.departure(), oq.get(id).departure()) else {
            continue;
        };
        let (d_pps, d_oq) = (dep - rec.arrival, oq_dep - rec.arrival);
        if d_pps > d_oq && d_pps - d_oq > bound {
            violations.push(OracleViolation {
                kind: OracleKind::RelativeDelayBound,
                slot: dep,
                detail: format!(
                    "cell {}: PPS delay {} vs OQ delay {} exceeds envelope {}",
                    id.0, d_pps, d_oq, bound
                ),
            });
        }
    }
    violations
}

/// Check a sampled occupancy series against a linear ramp: for samples
/// `(slot, occupancy)`, the deviation of `occupancy - occupancy₀` from
/// `slope × (slot - slot₀)` must stay within `tolerance`.
///
/// This is the executable shape of Theorem 14: inside a congested window
/// the hot output is work-conserving (drains exactly one cell per slot),
/// so its in-switch occupancy ramps linearly at `inflow − 1` per slot.
/// Returns the first sample outside the envelope, with the maximum
/// deviation observed appended to the detail.
pub fn check_linear_ramp(
    series: &[(Slot, u64)],
    slope: i64,
    tolerance: u64,
) -> Option<OracleViolation> {
    let &(slot0, occ0) = series.first()?;
    let mut first_breach: Option<(Slot, u64)> = None;
    let mut max_dev = 0u64;
    for &(slot, occ) in series {
        let predicted = occ0 as i64 + slope * (slot - slot0) as i64;
        let dev = (occ as i64 - predicted).unsigned_abs();
        max_dev = max_dev.max(dev);
        if dev > tolerance && first_breach.is_none() {
            first_breach = Some((slot, dev));
        }
    }
    first_breach.map(|(slot, dev)| OracleViolation {
        kind: OracleKind::OccupancyShape,
        slot,
        detail: format!(
            "occupancy off the slope-{slope} ramp by {dev} (> tolerance {tolerance}; \
             max deviation {max_dev})"
        ),
    })
}

/// Maximum deviation of a sampled series from the linear ramp anchored at
/// its first sample — the scalar e8 reports alongside the pass/fail.
pub fn max_ramp_deviation(series: &[(Slot, u64)], slope: i64) -> u64 {
    let Some(&(slot0, occ0)) = series.first() else {
        return 0;
    };
    series
        .iter()
        .map(|&(slot, occ)| {
            let predicted = occ0 as i64 + slope * (slot - slot0) as i64;
            (occ as i64 - predicted).unsigned_abs()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::ids::{CellId, PortId};

    fn cell(id: u64, input: u32, output: u32, arrival: Slot) -> Cell {
        Cell {
            id: CellId(id),
            input: PortId(input),
            output: PortId(output),
            seq: id as u32,
            arrival,
        }
    }

    #[test]
    fn ledger_balances_and_flags_leaks() {
        let ok = ConservationLedger {
            arrivals: 10,
            departures: 4,
            backlog: 3,
            dropped: 2,
            late_dropped: 1,
        };
        assert!(ok.check(5).is_none());
        let leak = ConservationLedger {
            arrivals: 10,
            departures: 4,
            backlog: 3,
            dropped: 1,
            late_dropped: 1,
        };
        let v = leak.check(5).expect("one cell unaccounted");
        assert_eq!(v.kind, OracleKind::Conservation);
        assert_eq!(v.slot, 5);
    }

    #[test]
    fn flow_order_ignores_gaps_but_flags_inversions() {
        let cells = [cell(0, 0, 0, 0), cell(1, 0, 0, 1), cell(2, 0, 0, 2)];
        let mut log = RunLog::with_cells(&cells);
        // Cell 1 lost (no departure); 0 then 2 in order: fine.
        log.set_departure(CellId(0), 3);
        log.set_departure(CellId(2), 5);
        assert!(check_flow_order(&log).is_empty());

        let mut bad = RunLog::with_cells(&cells);
        bad.set_departure(CellId(0), 6);
        bad.set_departure(CellId(2), 5);
        let vs = check_flow_order(&bad);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, OracleKind::FlowOrder);
        assert_eq!(vs[0].slot, 6);
    }

    #[test]
    fn relative_delay_envelope() {
        let cells = [cell(0, 0, 0, 0), cell(1, 1, 0, 0)];
        let mut pps = RunLog::with_cells(&cells);
        let mut oq = RunLog::with_cells(&cells);
        pps.set_departure(CellId(0), 10);
        oq.set_departure(CellId(0), 1);
        pps.set_departure(CellId(1), 3);
        oq.set_departure(CellId(1), 2);
        assert!(check_relative_delay(&pps, &oq, 9).is_empty());
        let vs = check_relative_delay(&pps, &oq, 8);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, OracleKind::RelativeDelayBound);
    }

    #[test]
    fn ramp_shape_accepts_noise_within_tolerance() {
        let series: Vec<(Slot, u64)> = (0..20).map(|t| (t, 10 + 2 * t + (t % 2))).collect();
        assert!(check_linear_ramp(&series, 2, 1).is_none());
        assert_eq!(max_ramp_deviation(&series, 2), 1);
        let v = check_linear_ramp(&series, 3, 1).expect("wrong slope breaks out");
        assert_eq!(v.kind, OracleKind::OccupancyShape);
    }
}
