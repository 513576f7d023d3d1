//! Stochastic workload generators.
//!
//! The paper's bounds are worst-case, but the experiment suite also
//! measures *typical* behaviour (and the CPA/FTD upper bounds) under
//! admissible stochastic loads — the standard switching workloads:
//!
//! * [`bernoulli::BernoulliGen`] — i.i.d. Bernoulli arrivals at load `ρ`;
//! * [`onoff::OnOffGen`] — bursty on/off (geometric burst lengths), the
//!   classic stress for output contention.
//!
//! Destinations follow a [`TrafficPattern`]: uniform, hotspot (a fraction
//! of traffic aimed at one output), a fixed permutation, or diagonal
//! (input `i` → output `i`, the zero-contention baseline).

mod bernoulli;
mod onoff;

pub use bernoulli::BernoulliGen;
pub use onoff::OnOffGen;

use rand::rngs::StdRng;
use rand::Rng;

/// Destination-selection pattern shared by the generators.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Destination uniform over all `N` outputs.
    Uniform,
    /// With probability `hot`, the destination is output `target`;
    /// otherwise uniform — models the hot output the lower bounds revolve
    /// around.
    Hotspot {
        /// The hot output port.
        target: u32,
        /// Fraction of traffic aimed at it (0.0 ..= 1.0).
        hot: f64,
    },
    /// Input `i` always sends to `perm[i]` — admissible at any load
    /// (every output receives from exactly one input).
    Permutation(Vec<u32>),
    /// Input `i` sends to output `i`.
    Diagonal,
}

impl TrafficPattern {
    /// Sample a destination for a cell from `input` in an `n`-port switch.
    fn destination(&self, input: usize, n: usize, rng: &mut StdRng) -> u32 {
        match self {
            TrafficPattern::Uniform => rng.random_range(0..n as u32),
            TrafficPattern::Hotspot { target, hot } => {
                if rng.random_bool(*hot) {
                    *target
                } else {
                    rng.random_range(0..n as u32)
                }
            }
            TrafficPattern::Permutation(perm) => perm[input],
            TrafficPattern::Diagonal => input as u32,
        }
    }

    /// A rotation-by-`shift` permutation pattern.
    pub fn rotation(n: usize, shift: usize) -> Self {
        TrafficPattern::Permutation((0..n).map(|i| ((i + shift) % n) as u32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn diagonal_and_permutation_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(TrafficPattern::Diagonal.destination(3, 8, &mut rng), 3);
        let rot = TrafficPattern::rotation(4, 1);
        assert_eq!(rot.destination(3, 4, &mut rng), 0);
    }

    #[test]
    fn hotspot_concentrates() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = TrafficPattern::Hotspot {
            target: 2,
            hot: 0.9,
        };
        let hits = (0..1000)
            .filter(|_| p.destination(0, 16, &mut rng) == 2)
            .count();
        assert!(hits > 850, "hotspot too cold: {hits}");
    }

    #[test]
    fn uniform_covers_all_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            seen.insert(TrafficPattern::Uniform.destination(0, 8, &mut rng));
        }
        assert_eq!(seen.len(), 8);
    }
}
