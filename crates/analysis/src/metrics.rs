//! Relative queuing delay and relative delay jitter.

use pps_core::prelude::*;
use std::collections::BTreeMap;

/// Distribution of per-cell relative delay `delay_PPS − delay_OQ`.
#[derive(Clone, Debug, PartialEq)]
pub struct RelativeDelay {
    /// The paper's headline figure: the maximum over cells, in slots
    /// (negative would mean the PPS beat the reference for every cell —
    /// impossible for the maximum under a work-conserving reference, but
    /// kept signed for honesty).
    pub max: i64,
    /// Mean over delivered cells.
    pub mean: f64,
    /// Cells delivered by both switches.
    pub compared: usize,
    /// Cells the PPS failed to deliver within the horizon (each a delay of
    /// at least the remaining horizon; reported separately, not folded into
    /// `max`).
    pub pps_undelivered: usize,
}

/// `a − b` of two slot counts, signed: `delay_PPS − delay_OQ` of one cell
/// from its two delays, or the gap between two departure slots. The
/// difference is taken in `u64` before the sign goes on, so it is exact
/// anywhere in `Slot`'s range — departures on both sides of 2⁶³ included.
#[inline]
pub(crate) fn relative(a: Slot, b: Slot) -> i64 {
    if a >= b {
        (a - b) as i64
    } else {
        -((b - a) as i64)
    }
}

/// Per cell of two logs over one trace, in id order: its PPS delay and
/// its OQ delay — the columns every join streams. The shared arrival
/// cancels, so a cell's relative delay is the difference of its two
/// delays, and a join that does not select cells reads no arrival.
///
/// # Panics
/// Panics if the logs do not cover the same cells.
pub(crate) fn delay_pairs<'a>(
    pps: &'a RunLog,
    oq: &'a RunLog,
) -> impl Iterator<Item = (Option<Slot>, Option<Slot>)> + 'a {
    assert_eq!(pps.len(), oq.len(), "logs must cover the same trace");
    pps.delays().zip(oq.delays())
}

/// [`delay_pairs`] beside each cell's arrival, for a join that selects or
/// groups cells by it.
pub(crate) fn joined<'a>(
    pps: &'a RunLog,
    oq: &'a RunLog,
) -> impl Iterator<Item = (Arrival, Option<Slot>, Option<Slot>)> + 'a {
    let pairs = delay_pairs(pps, oq);
    pps.arrivals().zip(pairs).map(|(a, (p, q))| (a, p, q))
}

/// Fold the relative delay of each cell of `pairs` (its PPS and OQ delay).
fn fold_relative(pairs: impl Iterator<Item = (Option<Slot>, Option<Slot>)>) -> RelativeDelay {
    let mut max = i64::MIN;
    let mut sum = 0i128;
    let mut compared = 0usize;
    let mut undelivered = 0usize;
    for (p, q) in pairs {
        match (p, q) {
            (Some(p), Some(q)) => {
                let d = relative(p, q);
                max = max.max(d);
                sum += d as i128;
                compared += 1;
            }
            (None, _) => undelivered += 1,
            (Some(_), None) => unreachable!("the OQ reference always drains"),
        }
    }
    RelativeDelay {
        max: if compared == 0 { 0 } else { max },
        mean: if compared == 0 {
            0.0
        } else {
            sum as f64 / compared as f64
        },
        compared,
        pps_undelivered: undelivered,
    }
}

/// Compute the relative-delay distribution from two logs over the same
/// trace (joined by cell id).
pub fn relative_delay(pps: &RunLog, oq: &RunLog) -> RelativeDelay {
    fold_relative(delay_pairs(pps, oq))
}

/// Relative delay restricted to the cells of one output port.
///
/// The paper's bounds are per-output (the concentration happens on one
/// hot output); composite multi-output attacks are checked output by
/// output with this.
pub fn relative_delay_for_output(pps: &RunLog, oq: &RunLog, output: PortId) -> RelativeDelay {
    let cells = joined(pps, oq).filter(|(a, ..)| a.output == output);
    fold_relative(cells.map(|(_, p, q)| (p, q)))
}

/// Per-flow delay jitter: the maximal difference in queuing delay between
/// two delivered cells of the flow (0 for flows with fewer than two
/// delivered cells).
pub fn flow_jitters(log: &RunLog) -> BTreeMap<FlowId, u64> {
    let mut minmax: BTreeMap<FlowId, (Slot, Slot)> = BTreeMap::new();
    for (a, d) in log.arrivals().zip(log.delays()) {
        if let Some(d) = d {
            minmax
                .entry(FlowId {
                    input: a.input,
                    output: a.output,
                })
                .and_modify(|(lo, hi)| {
                    *lo = (*lo).min(d);
                    *hi = (*hi).max(d);
                })
                .or_insert((d, d));
        }
    }
    minmax
        .into_iter()
        .map(|(f, (lo, hi))| (f, hi - lo))
        .collect()
}

/// Relative delay jitter: `max_f (jitter_PPS(f) − jitter_OQ(f))` over
/// flows present in either log (missing = 0).
pub fn relative_jitter(pps: &RunLog, oq: &RunLog) -> i64 {
    let jp = flow_jitters(pps);
    let jq = flow_jitters(oq);
    let mut flows: std::collections::BTreeSet<FlowId> = jp.keys().copied().collect();
    flows.extend(jq.keys().copied());
    flows
        .into_iter()
        .map(|f| *jp.get(&f).unwrap_or(&0) as i64 - *jq.get(&f).unwrap_or(&0) as i64)
        .max()
        .unwrap_or(0)
}

/// Departure-rank relative delay for one output inside a window: compare
/// the slot of the `k`-th departure from `output` in each switch,
/// restricted to cells that *arrived* within `[window.0, window.1)`.
///
/// This is the congestion-period metric of Theorem 14: during a congested
/// period both switches emit one cell per slot from the hot output, so the
/// rank-wise difference is zero even if the cell *identities* at each rank
/// differ (the PPS may serve flows in a different interleaving).
pub fn rank_relative_delay(
    pps: &RunLog,
    oq: &RunLog,
    output: PortId,
    window: (Slot, Slot),
) -> Vec<i64> {
    let departures = |log: &RunLog| -> Vec<Slot> {
        let mut d: Vec<Slot> = log
            .arrivals()
            .zip(log.departures())
            .filter(|(a, _)| a.output == output && a.slot >= window.0 && a.slot < window.1)
            .filter_map(|(_, d)| d)
            .collect();
        d.sort_unstable();
        d
    };
    let dp = departures(pps);
    let dq = departures(oq);
    dp.iter()
        .zip(dq.iter())
        .map(|(&a, &b)| relative(a, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (id, arrival, departure, input, output, seq)
    type Row = (u64, Slot, Option<Slot>, u32, u32, u32);

    fn log_with(delays: &[Row]) -> RunLog {
        // (id, arrival, departure, input, output, seq)
        let cells: Vec<Cell> = delays
            .iter()
            .map(|&(id, arrival, _, input, output, seq)| Cell {
                id: CellId(id),
                input: PortId(input),
                output: PortId(output),
                seq,
                arrival,
            })
            .collect();
        let mut log = RunLog::with_cells(&cells);
        for &(id, _, dep, _, _, _) in delays {
            if let Some(d) = dep {
                log.set_departure(CellId(id), d);
            }
        }
        log
    }

    #[test]
    fn relative_delay_max_and_mean() {
        let pps = log_with(&[
            (0, 0, Some(5), 0, 0, 0), // delay 5
            (1, 0, Some(1), 1, 0, 0), // delay 1
        ]);
        let oq = log_with(&[
            (0, 0, Some(0), 0, 0, 0), // delay 0
            (1, 0, Some(1), 1, 0, 0), // delay 1
        ]);
        let rd = relative_delay(&pps, &oq);
        assert_eq!(rd.max, 5);
        assert_eq!(rd.mean, 2.5);
        assert_eq!(rd.compared, 2);
        assert_eq!(rd.pps_undelivered, 0);
    }

    #[test]
    fn undelivered_cells_are_counted_not_compared() {
        let pps = log_with(&[(0, 0, None, 0, 0, 0)]);
        let oq = log_with(&[(0, 0, Some(0), 0, 0, 0)]);
        let rd = relative_delay(&pps, &oq);
        assert_eq!(rd.pps_undelivered, 1);
        assert_eq!(rd.compared, 0);
    }

    #[test]
    fn per_output_restriction() {
        let pps = log_with(&[
            (0, 0, Some(9), 0, 0, 0), // output 0, delay 9
            (1, 0, Some(1), 1, 1, 0), // output 1, delay 1
        ]);
        let oq = log_with(&[(0, 0, Some(0), 0, 0, 0), (1, 0, Some(0), 1, 1, 0)]);
        assert_eq!(relative_delay_for_output(&pps, &oq, PortId(0)).max, 9);
        assert_eq!(relative_delay_for_output(&pps, &oq, PortId(1)).max, 1);
        assert_eq!(relative_delay_for_output(&pps, &oq, PortId(2)).compared, 0);
    }

    #[test]
    fn jitter_is_max_delay_spread_per_flow() {
        let log = log_with(&[
            (0, 0, Some(0), 0, 0, 0),  // flow (0,0) delay 0
            (1, 5, Some(12), 0, 0, 1), // flow (0,0) delay 7
            (2, 0, Some(3), 1, 0, 0),  // flow (1,0) delay 3 (single cell)
        ]);
        let j = flow_jitters(&log);
        assert_eq!(j[&FlowId::new(0, 0)], 7);
        assert_eq!(j[&FlowId::new(1, 0)], 0);
    }

    #[test]
    fn relative_jitter_subtracts_reference() {
        let pps = log_with(&[
            (0, 0, Some(0), 0, 0, 0),
            (1, 1, Some(9), 0, 0, 1), // jitter 8
        ]);
        let oq = log_with(&[
            (0, 0, Some(0), 0, 0, 0),
            (1, 1, Some(4), 0, 0, 1), // jitter 3
        ]);
        assert_eq!(relative_jitter(&pps, &oq), 5);
    }

    #[test]
    fn rank_relative_delay_ignores_identity() {
        // PPS swaps which cell departs when, but ranks line up: zero.
        let pps = log_with(&[(0, 0, Some(1), 0, 0, 0), (1, 0, Some(0), 1, 0, 0)]);
        let oq = log_with(&[(0, 0, Some(0), 0, 0, 0), (1, 0, Some(1), 1, 0, 0)]);
        let ranks = rank_relative_delay(&pps, &oq, PortId(0), (0, 10));
        assert_eq!(ranks, vec![0, 0]);
    }

    #[test]
    fn rank_relative_delay_is_exact_across_2_pow_63() {
        // Two cells arriving just below 2⁶³: the PPS departs them past it,
        // the OQ below it, so `as i64` on either slot would overflow.
        let a = (1 << 63) - 2;
        let pps = log_with(&[(0, a, Some(a + 5), 0, 0, 0), (1, a, Some(a + 6), 1, 0, 0)]);
        let oq = log_with(&[(0, a, Some(a), 0, 0, 0), (1, a, Some(a + 1), 1, 0, 0)]);
        let window = (a, a + 1);
        assert_eq!(
            rank_relative_delay(&pps, &oq, PortId(0), window),
            vec![5, 5]
        );
        assert_eq!(
            rank_relative_delay(&oq, &pps, PortId(0), window),
            vec![-5, -5]
        );
        assert_eq!(relative_delay(&pps, &oq).max, 5);
    }
}
