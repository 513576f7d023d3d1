//! Per-slot time series reconstructed from run logs.
//!
//! The logs record per-cell arrival/departure instants; several
//! experiment narratives need the *dynamics* instead — backlog growth
//! during the Theorem 14 warm-up, departure-rate plateaus during
//! congestion, the concentration spike of the Figure 2 burst. These
//! series are exact reconstructions (no sampling): backlog(t) = arrivals
//! in [0, t] − departures in [0, t].

use pps_core::prelude::*;

/// One output's reconstructed dynamics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputSeries {
    /// The output port.
    pub output: PortId,
    /// First slot of the series (0) .. last departure.
    pub horizon: Slot,
    /// Cells arrived (switch-wide, destined here) per slot.
    pub arrivals: Vec<u32>,
    /// Cells departed per slot (0 or 1 by the model).
    pub departures: Vec<u32>,
}

impl OutputSeries {
    /// Reconstruct the series of `output` from a log.
    pub fn of(log: &RunLog, output: PortId) -> OutputSeries {
        let horizon = log
            .records()
            .iter()
            .filter(|r| r.output == output)
            .filter_map(|r| r.departure().max(Some(r.arrival)))
            .max()
            .unwrap_or(0);
        let len = horizon as usize + 1;
        let mut arrivals = vec![0u32; len];
        let mut departures = vec![0u32; len];
        for r in log.records() {
            if r.output != output {
                continue;
            }
            arrivals[r.arrival as usize] += 1;
            if let Some(d) = r.departure() {
                departures[d as usize] += 1;
            }
        }
        OutputSeries {
            output,
            horizon,
            arrivals,
            departures,
        }
    }

    /// Backlog (inside the switch, destined here) at the *end* of each
    /// slot.
    pub fn backlog(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.arrivals.len());
        let mut b = 0i64;
        for (a, d) in self.arrivals.iter().zip(&self.departures) {
            b += *a as i64 - *d as i64;
            out.push(b);
        }
        out
    }

    /// Longest run of consecutive slots with a departure — the measured
    /// work-conserving plateau (Theorem 14's congested service period).
    pub fn longest_busy_run(&self) -> usize {
        let mut best = 0usize;
        let mut cur = 0usize;
        for &d in &self.departures {
            if d > 0 {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }

    /// Peak backlog and the slot it occurred.
    pub fn peak_backlog(&self) -> (i64, Slot) {
        self.backlog()
            .into_iter()
            .enumerate()
            .map(|(t, b)| (b, t as Slot))
            .max()
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_reference::oq::run_oq;

    fn log_for(arrivals: Vec<Arrival>, n: usize) -> RunLog {
        run_oq(&Trace::build(arrivals, n).unwrap(), n)
    }

    #[test]
    fn backlog_tracks_fanin() {
        // 3 same-slot cells to output 0: backlog after slot 0 is 2, then
        // drains one per slot.
        let log = log_for(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
                Arrival::new(0, 2, 0),
            ],
            3,
        );
        let s = OutputSeries::of(&log, PortId(0));
        assert_eq!(s.backlog(), vec![2, 1, 0]);
        assert_eq!(s.peak_backlog(), (2, 0));
        assert_eq!(s.longest_busy_run(), 3);
    }

    #[test]
    fn idle_outputs_are_flat() {
        let log = log_for(vec![Arrival::new(0, 0, 0)], 2);
        let s = OutputSeries::of(&log, PortId(1));
        assert_eq!(s.horizon, 0);
        assert_eq!(s.backlog(), vec![0]);
        assert_eq!(s.longest_busy_run(), 0);
    }

    #[test]
    fn busy_runs_split_on_gaps() {
        let log = log_for(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(1, 0, 0),
                Arrival::new(5, 0, 0),
            ],
            1,
        );
        let s = OutputSeries::of(&log, PortId(0));
        assert_eq!(s.longest_busy_run(), 2);
        assert_eq!(s.departures[5], 1);
    }

    #[test]
    fn congestion_dynamics_show_the_plateau() {
        // Overload at 2/slot for 50 slots into an OQ switch: backlog ramps
        // to ~50 and the output is busy for ~100 consecutive slots.
        let c = pps_traffic::adversary::congestion_traffic(4, 0, 2, 50);
        let log = run_oq(&c.trace, 4);
        let s = OutputSeries::of(&log, PortId(0));
        let (peak, at) = s.peak_backlog();
        assert!(peak >= 48, "peak {peak}");
        assert_eq!(at, 49, "peak at the end of the overload");
        assert_eq!(s.longest_busy_run(), 100);
    }
}
