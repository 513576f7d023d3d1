//! Load-balancing dispatch heuristics from the switching literature,
//! transplanted to the PPS demultiplexor seat.
//!
//! * [`TwoStageLbDemux`] — the Chang–Lee load-balanced two-stage idea in
//!   demultiplexor form: stage 1 spreads arrivals over planes by a
//!   periodic, destination-oblivious rotation (each input walks the
//!   planes in a slot-synchronous cycle, offset by its own port id so the
//!   inputs stay desynchronized); stage 2 adds a per-destination offset so
//!   cells of one output fan out across planes instead of marching in
//!   lockstep. Both stages are pure functions of `(slot, input, output)` —
//!   no stored state at all — so the automaton is trivially
//!   fully-distributed and skip-ahead-safe.
//! * [`LeastLoadedOfDDemux`] — power-of-`d`-choices dispatch (Mitzenmacher
//!   et al.): sample `d` free planes from a seeded per-input stream and
//!   send to the least-loaded of the `d` by the input's own decaying load
//!   estimate (`OwnLoad`, the estimator of
//!   [`LeastLoadedLocalDemux`](super::LeastLoadedLocalDemux), sampled
//!   instead of scanned). Draws happen **only on dispatch**, so skipped
//!   idle slots consume no randomness and dense/skip runs stay
//!   byte-identical.
//!
//! Both remain fully distributed, so Theorem 8's `Ω((R/r − 1)·N/S)` lower
//! bound still applies — they are ablation victims like the rest of the
//! fully-distributed family, just with better constants under benign
//! traffic.

use super::local_heuristics::OwnLoad;
use pps_core::prelude::*;
use pps_core::rng::{mix64, SplitMix64};

/// Two-stage load-balancing dispatch (stateless).
#[derive(Clone, Debug)]
pub struct TwoStageLbDemux {
    k: usize,
}

impl TwoStageLbDemux {
    /// Two-stage balanced dispatch over `k` planes.
    pub fn new(k: usize) -> Self {
        TwoStageLbDemux { k }
    }

    /// The plane the two stages nominate for a cell of `(input, output)`
    /// arriving at `now`, before busy-line deviation.
    fn nominal_plane(&self, now: Slot, input: usize, output: usize) -> usize {
        let k = self.k as u64;
        // Stage 1: slot-synchronous rotation, desynchronized per input.
        let stage1 = (now + input as u64) % k;
        // Stage 2: fixed per-destination offset (mixed so adjacent outputs
        // do not land on adjacent planes).
        let stage2 = mix64(output as u64) % k;
        ((stage1 + stage2) % k) as usize
    }
}

impl Demultiplexor for TwoStageLbDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let want = self.nominal_plane(ctx.local.now, cell.input.idx(), cell.output.idx());
        let p = ctx
            .local
            .next_free_from(want)
            .expect("valid bufferless config guarantees a free plane");
        PlaneId(p as u32)
    }
}

/// Power-of-`d`-choices dispatch over seeded per-input sample streams.
#[derive(Clone, Debug)]
pub struct LeastLoadedOfDDemux {
    d: usize,
    /// Per-input sample stream (substreams of one master seed, so an
    /// input's draws depend only on its own arrival history).
    rngs: Vec<SplitMix64>,
    load: OwnLoad,
    /// Scratch: the free planes visible this dispatch.
    free: Vec<usize>,
}

impl LeastLoadedOfDDemux {
    /// Power-of-`d` dispatch for `n` inputs over `k` planes with slowdown
    /// `r_prime`, sampling `d ≥ 1` candidates per cell from `seed`.
    pub fn new(n: usize, k: usize, r_prime: usize, d: usize, seed: u64) -> Self {
        let master = SplitMix64::new(seed).derive(0xD0);
        LeastLoadedOfDDemux {
            d: d.clamp(1, k),
            rngs: (0..n as u64).map(|i| master.derive(i)).collect(),
            load: OwnLoad::new(n, k, r_prime),
            free: Vec::with_capacity(k),
        }
    }
}

impl Demultiplexor for LeastLoadedOfDDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let i = cell.input.idx();
        self.free.clear();
        self.free.extend(ctx.local.free_planes());
        debug_assert!(
            !self.free.is_empty(),
            "valid bufferless config guarantees a free plane"
        );
        // Sample min(d, |free|) distinct candidates by partial
        // Fisher–Yates over the free list — exactly that many draws, only
        // here, on an actual dispatch.
        let picks = self.d.min(self.free.len());
        for s in 0..picks {
            let j = s + self.rngs[i].below((self.free.len() - s) as u64) as usize;
            self.free.swap(s, j);
        }
        let p = self
            .load
            .take_least(i, ctx.local.now, self.free[..picks].iter().copied())
            .expect("picks >= 1");
        PlaneId(p as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::demux::probe_dispatch;

    fn cell(input: u32, output: u32, arrival: Slot) -> Cell {
        Cell {
            id: CellId(0),
            input: PortId(input),
            output: PortId(output),
            seq: 0,
            arrival,
        }
    }

    #[test]
    fn two_stage_rotates_across_slots() {
        let mut d = TwoStageLbDemux::new(4);
        let free = vec![0u64; 4];
        let picks: Vec<u32> = (0..4)
            .map(|t| probe_dispatch(&mut d, &cell(0, 0, t), t, &free).0)
            .collect();
        let distinct: std::collections::BTreeSet<u32> = picks.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            4,
            "stage 1 must cycle all planes: {picks:?}"
        );
    }

    #[test]
    fn two_stage_desynchronizes_inputs() {
        // In one slot, different inputs nominate different planes — the
        // property that kills same-slot concentration on one plane.
        let d = TwoStageLbDemux::new(4);
        let picks: std::collections::BTreeSet<usize> =
            (0..4).map(|i| d.nominal_plane(7, i, 0)).collect();
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn two_stage_deviates_when_nominal_busy() {
        let mut d = TwoStageLbDemux::new(2);
        let want = d.nominal_plane(0, 0, 0);
        let mut busy = vec![0u64; 2];
        busy[want] = 100;
        let ctx = DispatchCtx {
            local: LocalView {
                now: 0,
                input: PortId(0),
                link_busy_until: &busy,
            },
            global: None,
        };
        let p = d.dispatch(&cell(0, 0, 0), &ctx);
        assert_ne!(p.idx(), want);
    }

    #[test]
    fn of_d_is_deterministic_per_seed_and_input() {
        let free = vec![0u64; 8];
        let run = |seed: u64| -> Vec<u32> {
            let mut d = LeastLoadedOfDDemux::new(2, 8, 2, 2, seed);
            (0..16)
                .map(|t| probe_dispatch(&mut d, &cell(0, 0, t), t, &free).0)
                .collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "seed must perturb the samples");
    }

    #[test]
    fn of_d_spreads_under_pressure() {
        // Back-to-back dispatches: with d = k the sampler sees every free
        // plane and the estimator forces round-robin-ish spreading.
        let mut d = LeastLoadedOfDDemux::new(1, 4, 4, 4, 9);
        let free = vec![0u64; 4];
        let picks: std::collections::BTreeSet<u32> = (0..4)
            .map(|t| probe_dispatch(&mut d, &cell(0, 0, t), t, &free).0)
            .collect();
        assert_eq!(picks.len(), 4, "estimates must force spreading");
    }

    #[test]
    fn of_d_inputs_are_independent() {
        // Input 1's stream and estimates are untouched by input 0's
        // dispatches: its picks match a fresh instance's input-1 picks.
        let free = vec![0u64; 8];
        let mut a = LeastLoadedOfDDemux::new(2, 8, 2, 3, 11);
        for t in 0..10 {
            probe_dispatch(&mut a, &cell(0, 0, t), t, &free);
        }
        let after: Vec<u32> = (10..20)
            .map(|t| probe_dispatch(&mut a, &cell(1, 3, t), t, &free).0)
            .collect();
        let mut b = LeastLoadedOfDDemux::new(2, 8, 2, 3, 11);
        let fresh: Vec<u32> = (10..20)
            .map(|t| probe_dispatch(&mut b, &cell(1, 3, t), t, &free).0)
            .collect();
        assert_eq!(after, fresh);
    }

    #[test]
    fn of_d_clamps_d_to_k() {
        let d = LeastLoadedOfDDemux::new(1, 3, 2, 100, 1);
        assert_eq!(d.d, 3);
    }
}
