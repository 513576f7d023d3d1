//! Randomized dispatch.
//!
//! Each input picks uniformly at random among its currently free planes.
//! The paper's discussion (Section 6) notes that its worst-case traffics
//! apply to randomized demultiplexors too: randomization changes the
//! *distribution* of the concentration, not its possibility. The experiment
//! suite uses this algorithm to measure that distribution — under the
//! Corollary 7 attack traffic the expected concentration on the most loaded
//! plane is `Θ(N/K)` (balls into bins), so the measured relative delay
//! lands between the deterministic round-robin worst case and the CPA
//! optimum.
//!
//! Determinism: every input port owns its own seeded RNG, so a run is
//! reproducible and per-input state remains independent (the algorithm
//! stays fully distributed).

use pps_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform-over-free-planes demultiplexor.
#[derive(Clone, Debug)]
pub struct RandomDemux {
    rngs: Vec<StdRng>,
}

impl RandomDemux {
    /// A randomized demultiplexor with one RNG per input, derived from
    /// `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        RandomDemux {
            rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(seed ^ ((i as u64) << 32) ^ 0x9e37_79b9))
                .collect(),
        }
    }
}

impl Demultiplexor for RandomDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let i = cell.input.idx();
        let free_count = ctx.local.free_planes().count();
        debug_assert!(
            free_count > 0,
            "valid bufferless config guarantees a free plane"
        );
        let pick = self.rngs[i].random_range(0..free_count);
        let p = ctx
            .local
            .free_planes()
            .nth(pick)
            .expect("pick < free_count");
        PlaneId(p as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::demux::probe_dispatch;

    fn cell(input: u32) -> Cell {
        Cell {
            id: CellId(0),
            input: PortId(input),
            output: PortId(0),
            seq: 0,
            arrival: 0,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let free = vec![0u64; 8];
        let run = |seed| -> Vec<u32> {
            let mut d = RandomDemux::new(1, seed);
            (0..32)
                .map(|_| probe_dispatch(&mut d, &cell(0), 0, &free).0)
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn only_free_planes_are_chosen() {
        let mut d = RandomDemux::new(1, 1);
        let busy = vec![10u64, 0, 10, 0]; // only planes 1 and 3 free
        let ctx = DispatchCtx {
            local: LocalView {
                now: 0,
                input: PortId(0),
                link_busy_until: &busy,
            },
            global: None,
        };
        for _ in 0..64 {
            let p = d.dispatch(&cell(0), &ctx);
            assert!(p == PlaneId(1) || p == PlaneId(3));
        }
    }

    #[test]
    fn roughly_uniform_over_planes() {
        let mut d = RandomDemux::new(1, 42);
        let free = vec![0u64; 4];
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[probe_dispatch(&mut d, &cell(0), 0, &free).idx()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed counts: {counts:?}");
        }
    }
}
