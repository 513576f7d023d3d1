//! Relative queuing delay and relative delay jitter.

use pps_core::prelude::*;
use std::collections::HashMap;

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

/// Per cell of two logs over one trace, in id order: its arrival, its PPS
/// delay and its OQ delay, for a join that selects or groups cells by
/// arrival, read cell by cell. The shared arrival cancels, so a cell's
/// relative delay is the difference of its two delays; a join that does
/// not select cells reads no arrival ([`RunLog::fold_pairs`]).
///
/// # Panics
/// Panics if the logs do not cover the same cells.
pub(crate) fn joined<'a>(
    pps: &'a RunLog,
    oq: &'a RunLog,
) -> impl Iterator<Item = (Arrival, Option<Slot>, Option<Slot>)> + 'a {
    assert_eq!(pps.len(), oq.len(), "logs must cover the same trace");
    pps.arrivals()
        .zip(pps.delays().zip(oq.delays()))
        .map(|(a, (p, q))| (a, p, q))
}

/// The running fold of [`RelativeDelay`] over cells.
struct RelativeFold {
    max: i64,
    sum: i128,
    compared: usize,
    undelivered: usize,
}

impl RelativeFold {
    const EMPTY: RelativeFold = RelativeFold {
        max: i64::MIN,
        sum: 0,
        compared: 0,
        undelivered: 0,
    };

    /// Fold in one cell from its PPS and OQ delay.
    #[inline]
    fn add(mut self, p: Option<Slot>, q: Option<Slot>) -> Self {
        match (p, q) {
            (Some(p), Some(q)) => {
                let d = relative(p, q);
                self.max = self.max.max(d);
                self.sum += d as i128;
                self.compared += 1;
            }
            (None, _) => self.undelivered += 1,
            (Some(_), None) => unreachable!("the OQ reference always drains"),
        }
        self
    }

    fn finish(self) -> RelativeDelay {
        let compared = self.compared;
        RelativeDelay {
            max: if compared == 0 { 0 } else { self.max },
            mean: if compared == 0 {
                0.0
            } else {
                self.sum as f64 / compared as f64
            },
            compared,
            pps_undelivered: self.undelivered,
        }
    }
}

/// Compute the relative-delay distribution from two logs over the same
/// trace (joined by cell id), in one [`RunLog::fold_pairs`] pass.
///
/// # Panics
/// Panics if the logs do not cover the same cells.
pub fn relative_delay(pps: &RunLog, oq: &RunLog) -> RelativeDelay {
    pps.fold_pairs(oq, RelativeFold::EMPTY, RelativeFold::add)
        .finish()
}

/// Relative delay restricted to the cells of one output port.
///
/// The paper's bounds are per-output (the concentration happens on one
/// hot output); composite multi-output attacks are checked output by
/// output with this.
pub fn relative_delay_for_output(pps: &RunLog, oq: &RunLog, output: PortId) -> RelativeDelay {
    joined(pps, oq)
        .filter(|(a, ..)| a.output == output)
        .fold(RelativeFold::EMPTY, |f, (_, p, q)| f.add(p, q))
        .finish()
}

/// Relative delay jitter: `max_f (jitter_PPS(f) − jitter_OQ(f))` over the
/// trace's flows, in one pass. A flow's jitter is the maximal difference in
/// queuing delay between two of its delivered cells (0 with fewer than two).
///
/// `oq` is the reference's departure slot of each cell of `pps`' trace, in
/// id order: a shadow log's [`RunLog::departures`], or the FCFS departures
/// streamed from the trace (`pps_reference::fcfs_departures`). Against a
/// reference that forwards each cell in its arrival slot (every jitter 0),
/// it is the log's own worst per-flow jitter.
pub fn relative_jitter(pps: &RunLog, oq: impl IntoIterator<Item = Option<Slot>>) -> i64 {
    // Per flow: the least and greatest PPS delay, then the reference's.
    let mut spans: HashMap<FlowId, [Slot; 4]> = HashMap::new();
    for ((a, p), q) in pps.arrivals().zip(pps.delays()).zip(oq) {
        let flow = FlowId::new(a.input.0, a.output.0);
        let span = spans.entry(flow).or_insert([Slot::MAX, 0, Slot::MAX, 0]);
        for (i, d) in [(0, p), (2, q.map(|q| q - a.slot))] {
            if let Some(d) = d {
                span[i] = span[i].min(d);
                span[i + 1] = span[i + 1].max(d);
            }
        }
    }
    let jitter = |lo: Slot, hi: Slot| hi.saturating_sub(lo) as i64;
    spans
        .into_values()
        .map(|[p_lo, p_hi, q_lo, q_hi]| jitter(p_lo, p_hi) - jitter(q_lo, q_hi))
        .max()
        .unwrap_or(0)
}

/// Largest number of cells one plane carried for one output — the
/// measured concentration `c` of Lemma 4, reconstructed from a PPS log: its
/// plane column, folded beside the table's outputs into a flat counter
/// indexed `output · K + plane`.
pub fn max_concentration(pps: &RunLog) -> usize {
    let Some(k) = pps.planes().flatten().map(|p| p.idx() + 1).max() else {
        return 0;
    };
    let mut counts: Vec<usize> = Vec::new();
    for (a, plane) in pps.arrivals().zip(pps.planes()) {
        if let Some(p) = plane {
            let at = a.output.idx() * k + p.idx();
            if at >= counts.len() {
                counts.resize(at + 1, 0);
            }
            counts[at] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0)
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

    /// A log's worst per-flow jitter: relative to a reference that forwards
    /// each cell in its arrival slot.
    fn own_jitter(log: &RunLog) -> i64 {
        relative_jitter(log, log.arrivals().map(|a| Some(a.slot)))
    }

    #[test]
    fn jitter_is_max_delay_spread_per_flow() {
        let log = log_with(&[
            (0, 0, Some(0), 0, 0, 0),  // flow (0,0) delay 0
            (1, 5, Some(12), 0, 0, 1), // flow (0,0) delay 7
            (2, 0, Some(3), 1, 0, 0),  // flow (1,0) delay 3 (single cell)
        ]);
        assert_eq!(own_jitter(&log), 7);
        // A flow with one delivered cell has jitter 0, not its delay.
        let one = log_with(&[(0, 0, Some(3), 1, 0, 0), (1, 4, None, 1, 0, 1)]);
        assert_eq!(own_jitter(&one), 0);
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
        assert_eq!(relative_jitter(&pps, oq.departures()), 5);
    }

    #[test]
    fn relative_jitter_reads_a_streamed_reference_as_a_shadow_log() {
        // Flow (0,0) is delivered, flow (1,0) is not: jitter 0 less the
        // reference's, never a flow missing from the join.
        let rows = [
            (0, 0, Some(3), 0, 0, 0),
            (1, 0, None, 1, 0, 0),
            (2, 1, Some(9), 0, 0, 1),
            (3, 1, None, 1, 0, 1),
            (4, 2, Some(2), 1, 1, 0),
        ];
        let pps = log_with(&rows);
        let arrivals: Vec<Arrival> = pps.arrivals().collect();
        let trace = Trace::build(arrivals, 2).unwrap();
        let shadow = pps_reference::oq::run_oq_in(&trace, 2, &Sink::default());
        let stream = pps_reference::fcfs_departures(&trace, 2).map(Some);
        let from_log = relative_jitter(&pps, shadow.departures());
        assert_eq!(relative_jitter(&pps, stream), from_log);
        // PPS (0,0) delays 3 and 8; the reference's 0 and 1.
        assert_eq!(from_log, 5 - 1);
        assert_eq!(own_jitter(&shadow), 1);
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
