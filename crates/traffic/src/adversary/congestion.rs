//! Congestion traffic (Section 5: Theorem 14 and Proposition 15).
//!
//! A period is *congested* for output `j` when every plane's queue of
//! cells destined for `j` is continuously backlogged. Theorem 14's
//! extended-FTD demultiplexor keeps the output work-conserving throughout
//! such a period (after a warm-up), so the PPS introduces no relative
//! queuing delay *while congestion lasts*. Proposition 15 observes the
//! flip side: traffic that sustains congestion must overdrive the output
//! and therefore cannot be `(R, B)` leaky-bucket for any `B` independent
//! of the congestion duration — its minimal burstiness grows linearly.
//!
//! The generator overloads one output at rate `senders ≥ 2` cells/slot
//! from round-robin sets of inputs (each input still sends at most one
//! cell per slot).

use pps_core::time::Slot;
use pps_core::trace::{Arrival, Trace};

/// A built congestion workload.
#[derive(Clone, Debug)]
pub struct CongestionTraffic {
    /// The overload trace.
    pub trace: Trace,
    /// The congested output.
    pub hot_output: u32,
    /// Cells per slot offered to the hot output.
    pub senders: usize,
    /// Overload duration in slots.
    pub duration: Slot,
    /// Expected minimal burstiness `(senders − 1) · duration` — the
    /// Proposition 15 witness that this is not leaky-bucket for fixed `B`.
    pub expected_burstiness: u64,
}

/// Overload output `hot_output` of an `n`-port switch at `senders`
/// cells/slot for `duration` slots. Sender sets rotate so that no single
/// input exceeds one cell per slot and all inputs participate.
pub fn congestion_traffic(
    n: usize,
    hot_output: u32,
    senders: usize,
    duration: Slot,
) -> CongestionTraffic {
    assert!(senders >= 2, "congestion needs overload: senders >= 2");
    assert!(senders <= n, "cannot use more senders than inputs");
    let mut arrivals = Vec::new();
    for slot in 0..duration {
        // Rotate the sender set each slot for symmetry.
        let base = (slot as usize * senders) % n;
        for s in 0..senders {
            let input = ((base + s) % n) as u32;
            arrivals.push(Arrival::new(slot, input, hot_output));
        }
    }
    let trace = Trace::build(arrivals, n).expect("distinct inputs per slot by construction");
    CongestionTraffic {
        trace,
        hot_output,
        senders,
        duration,
        expected_burstiness: (senders as u64 - 1) * duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaky_bucket::min_burstiness;

    #[test]
    fn overload_rate_is_exact() {
        let c = congestion_traffic(8, 3, 2, 50);
        assert_eq!(c.trace.len(), 100);
        for (slot, group) in c.trace.by_slot() {
            assert_eq!(group.len(), 2, "slot {slot}");
            assert!(group.clone().all(|a| a.output.0 == 3));
        }
    }

    #[test]
    fn proposition_15_burstiness_grows_linearly() {
        let mut prev = 0;
        for duration in [10u64, 40, 160] {
            let c = congestion_traffic(8, 0, 2, duration);
            let b = min_burstiness(&c.trace, 8).overall();
            assert_eq!(b, c.expected_burstiness, "duration {duration}");
            assert!(b > prev, "burstiness must grow with duration");
            prev = b;
        }
    }

    #[test]
    fn no_input_sends_twice_per_slot() {
        let c = congestion_traffic(4, 0, 4, 20);
        for (_, group) in c.trace.by_slot() {
            let inputs: std::collections::BTreeSet<u32> =
                group.clone().map(|a| a.input.0).collect();
            assert_eq!(inputs.len(), group.len());
        }
    }

    #[test]
    #[should_panic(expected = "senders >= 2")]
    fn single_sender_is_not_congestion() {
        let _ = congestion_traffic(4, 0, 1, 10);
    }
}
