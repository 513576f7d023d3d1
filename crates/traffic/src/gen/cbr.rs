//! Constant-bit-rate arrivals.
//!
//! Input `i` emits a cell every `period` slots (with a per-input phase
//! offset), always to the pattern's destination. CBR at period ≥ 1 is
//! burst-free by construction on the input side, and with a permutation or
//! diagonal pattern also on the output side — the smoothest admissible
//! traffic, used as the control workload.

use super::TrafficPattern;
use pps_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Constant-bit-rate generator.
#[derive(Clone, Debug)]
pub struct CbrGen {
    /// One cell per `period` slots per input (`period ≥ 1`).
    pub period: Slot,
    /// Stagger input phases (`input % period`) to avoid synchronized
    /// arrivals; with `false` all inputs fire in the same slots.
    pub staggered: bool,
    /// Destination pattern (sampled with a per-trace RNG for the random
    /// patterns).
    pub pattern: TrafficPattern,
    /// RNG seed for random destination patterns.
    pub seed: u64,
}

impl CbrGen {
    /// Diagonal CBR at the given period — the zero-contention control.
    pub fn diagonal(period: Slot) -> Self {
        CbrGen {
            period,
            staggered: true,
            pattern: TrafficPattern::Diagonal,
            seed: 0,
        }
    }

    /// Generate `slots` slots for an `n`-port switch.
    pub fn trace(&self, n: usize, slots: Slot) -> Trace {
        assert!(self.period >= 1, "period must be >= 1");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut arrivals = Vec::new();
        for input in 0..n {
            let phase = if self.staggered {
                input as Slot % self.period
            } else {
                0
            };
            let mut slot = phase;
            while slot < slots {
                let output = self.pattern.destination(input, n, &mut rng);
                arrivals.push(Arrival::new(slot, input as u32, output));
                slot += self.period;
            }
        }
        Trace::build(arrivals, n).expect("one cell per (slot, input) by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaky_bucket::min_burstiness;

    #[test]
    fn period_and_phase() {
        let t = CbrGen::diagonal(4).trace(2, 16);
        let slots0: Vec<Slot> = t
            .arrivals()
            .filter(|a| a.input == PortId(0))
            .map(|a| a.slot)
            .collect();
        assert_eq!(slots0, vec![0, 4, 8, 12]);
        let slots1: Vec<Slot> = t
            .arrivals()
            .filter(|a| a.input == PortId(1))
            .map(|a| a.slot)
            .collect();
        assert_eq!(slots1, vec![1, 5, 9, 13]);
    }

    #[test]
    fn diagonal_cbr_is_burst_free() {
        let t = CbrGen::diagonal(2).trace(8, 200);
        assert!(min_burstiness(&t, 8).burst_free());
    }

    #[test]
    fn full_rate_cbr_is_one_cell_per_slot() {
        let t = CbrGen::diagonal(1).trace(4, 50);
        assert_eq!(t.len(), 200);
    }
}
