//! Trace statistics: load matrices and offered-load summaries.
//!
//! Complements the leaky-bucket admissibility check with the quantities a
//! switching paper reports about a workload: offered load per port, the
//! flow (traffic) matrix, and the number of active flows.

use crate::leaky_bucket::min_burstiness;
use pps_core::prelude::*;

/// Aggregate statistics of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Ports of the switch the trace targets.
    pub n: usize,
    /// Total cells.
    pub cells: usize,
    /// Slots spanned (`horizon + 1` for non-empty traces).
    pub duration: Slot,
    /// Cells per input port.
    pub per_input: Vec<u64>,
    /// Cells per output port.
    pub per_output: Vec<u64>,
    /// Number of distinct flows with at least one cell.
    pub flows: usize,
    /// Minimal leaky-bucket burstiness.
    pub burstiness: u64,
}

impl TraceStats {
    /// Compute statistics for `trace`.
    pub fn of(trace: &Trace, n: usize) -> TraceStats {
        let mut per_input = vec![0u64; n];
        let mut per_output = vec![0u64; n];
        let mut flows = std::collections::BTreeSet::new();
        for a in trace.arrivals() {
            per_input[a.input.idx()] += 1;
            per_output[a.output.idx()] += 1;
            flows.insert((a.input, a.output));
        }
        TraceStats {
            n,
            cells: trace.len(),
            duration: if trace.is_empty() {
                0
            } else {
                trace.horizon() + 1
            },
            per_input,
            per_output,
            flows: flows.len(),
            burstiness: min_burstiness(trace, n).overall(),
        }
    }

    /// Mean offered load per input (cells per slot per port).
    fn offered_load(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.cells as f64 / (self.duration as f64 * self.n as f64)
    }

    /// Highest per-output arrival rate (cells per slot) — above 1.0 the
    /// traffic is inadmissible over its duration (congestion regime).
    fn hottest_output_rate(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.per_output
            .iter()
            .map(|&c| c as f64 / self.duration as f64)
            .fold(0.0, f64::max)
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{} cells over {} slots on {} ports (load {:.3}/port, {} flows, B_min = {}, \
             hottest output {:.3}/slot)",
            self.cells,
            self.duration,
            self.n,
            self.offered_load(),
            self.flows,
            self.burstiness,
            self.hottest_output_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::BernoulliGen;

    #[test]
    fn counts_and_load() {
        let t = Trace::build(
            vec![
                Arrival::new(0, 0, 1),
                Arrival::new(1, 0, 1),
                Arrival::new(1, 1, 0),
            ],
            2,
        )
        .unwrap();
        let s = TraceStats::of(&t, 2);
        assert_eq!(s.cells, 3);
        assert_eq!(s.duration, 2);
        assert_eq!(s.per_input, vec![2, 1]);
        assert_eq!(s.per_output, vec![1, 2]);
        assert_eq!(s.flows, 2);
        assert!((s.offered_load() - 0.75).abs() < 1e-9);
        assert!((s.hottest_output_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::of(&Trace::empty(), 4);
        assert_eq!(s.cells, 0);
        assert_eq!(s.offered_load(), 0.0);
        assert_eq!(s.hottest_output_rate(), 0.0);
    }

    #[test]
    fn generator_load_shows_up() {
        let t = BernoulliGen::uniform(0.6, 5).trace(8, 2_000);
        let s = TraceStats::of(&t, 8);
        assert!(
            (s.offered_load() - 0.6).abs() < 0.03,
            "{}",
            s.offered_load()
        );
        assert!(s.flows > 8, "uniform destinations create many flows");
        assert!(s.summary().contains("ports"));
    }

    #[test]
    fn congestion_rate_exceeds_one() {
        let c = crate::adversary::congestion_traffic(8, 0, 3, 100);
        let s = TraceStats::of(&c.trace, 8);
        assert!(s.hottest_output_rate() > 2.5);
    }
}
