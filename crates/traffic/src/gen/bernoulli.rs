//! Bernoulli i.i.d. arrivals.

use super::TrafficPattern;
use pps_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bernoulli i.i.d. generator: each input independently receives a cell
/// with probability `load` per slot; destinations follow the pattern.
#[derive(Clone, Debug)]
pub struct BernoulliGen {
    /// Offered load per input, `0.0 ..= 1.0`.
    pub load: f64,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl BernoulliGen {
    /// Uniform-destination Bernoulli traffic at `load`.
    pub fn uniform(load: f64, seed: u64) -> Self {
        BernoulliGen {
            load,
            pattern: TrafficPattern::Uniform,
            seed,
        }
    }

    /// Generate `slots` slots of traffic for an `n`-port switch.
    pub fn trace(&self, n: usize, slots: Slot) -> Trace {
        assert!((0.0..=1.0).contains(&self.load), "load must be in [0, 1]");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut arrivals = Vec::new();
        for slot in 0..slots {
            for input in 0..n {
                if rng.random_bool(self.load) {
                    let output = self.pattern.destination(input, n, &mut rng);
                    arrivals.push(Arrival::new(slot, input as u32, output));
                }
            }
        }
        Trace::build(arrivals, n).expect("generator emits at most one cell per (slot, input)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaky_bucket::min_burstiness;

    #[test]
    fn load_is_respected() {
        let t = BernoulliGen::uniform(0.5, 7).trace(8, 4000);
        let rate = t.len() as f64 / (8.0 * 4000.0);
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn zero_load_is_empty() {
        assert!(BernoulliGen::uniform(0.0, 7).trace(4, 100).is_empty());
    }

    #[test]
    fn full_load_fills_every_slot() {
        let t = BernoulliGen::uniform(1.0, 7).trace(4, 100);
        assert_eq!(t.len(), 400);
    }

    #[test]
    fn reproducible_for_a_seed() {
        let a = BernoulliGen::uniform(0.3, 9).trace(4, 200);
        let b = BernoulliGen::uniform(0.3, 9).trace(4, 200);
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_traffic_is_burst_free() {
        let g = BernoulliGen {
            load: 1.0,
            pattern: TrafficPattern::rotation(8, 3),
            seed: 1,
        };
        let t = g.trace(8, 500);
        assert_eq!(min_burstiness(&t, 8), 0);
    }
}
