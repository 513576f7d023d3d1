//! Additional fully-distributed heuristics.
//!
//! Theorem 8 binds *every* fully-distributed algorithm, however clever its
//! use of local information. These two round out the zoo on opposite ends
//! of the sophistication scale and feed the ablation experiments:
//!
//! * [`HashFlowDemux`] — each flow is statically hashed to one plane
//!   (deviating to the next free line only when forced). The distributed
//!   analogue of ECMP-style spreading: trivially order-preserving per
//!   flow, but d-partitioned with enormous `d` (all flows hashing to one
//!   plane share it), and at full per-flow rate it thrashes against the
//!   input constraint.
//! * [`LeastLoadedLocalDemux`] — tracks, per input, a decaying estimate of
//!   how much *it itself* has recently sent to each plane (`OwnLoad`),
//!   and picks the free plane with the smallest estimate. The best one can do with
//!   purely local knowledge — and still Ω((R/r − 1)·N/S), because other
//!   inputs' contributions are invisible.

use pps_core::prelude::*;

/// Static per-flow hashing demultiplexor.
#[derive(Clone, Debug)]
pub struct HashFlowDemux {
    n: usize,
    k: usize,
}

impl HashFlowDemux {
    /// Hash-based dispatch for an `n × n` switch over `k` planes.
    pub fn new(n: usize, k: usize) -> Self {
        HashFlowDemux { n, k }
    }

    /// The home plane of flow `(input, output)`.
    fn home_plane(&self, input: usize, output: usize) -> usize {
        // Fibonacci-style mixing of the dense flow index; deterministic
        // and spread across planes.
        let f = (input * self.n + output) as u64;
        ((f.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % self.k as u64) as usize
    }
}

impl Demultiplexor for HashFlowDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let home = self.home_plane(cell.input.idx(), cell.output.idx());
        let p = ctx
            .local
            .next_free_from(home)
            .expect("valid bufferless config guarantees a free plane");
        PlaneId(p as u32)
    }
}

/// Per input × plane, a decaying estimate of how much the input itself
/// has recently sent to the plane: each own dispatch charges `r'` (the
/// slots the cell occupies a plane→output line) and the estimate decays
/// one unit per elapsed slot. All a fully-distributed algorithm can know
/// about load.
#[derive(Clone, Debug)]
pub(super) struct OwnLoad {
    k: usize,
    r_prime: u64,
    /// `(estimate, last_update_slot)` per input × plane.
    est: Vec<(u64, Slot)>,
}

impl OwnLoad {
    pub(super) fn new(n: usize, k: usize, r_prime: usize) -> Self {
        OwnLoad {
            k,
            r_prime: r_prime as u64,
            est: vec![(0, 0); n * k],
        }
    }

    fn current(&self, input: usize, plane: usize, now: Slot) -> u64 {
        let (e, t) = self.est[input * self.k + plane];
        e.saturating_sub(now.saturating_sub(t))
    }

    /// The least-loaded of `candidates` by `input`'s estimate at `now`
    /// (lowest plane on ties), charged for the dispatch it is about to
    /// carry. `None` iff there are no candidates.
    pub(super) fn take_least(
        &mut self,
        input: usize,
        now: Slot,
        candidates: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let (cur, p) = candidates.map(|p| (self.current(input, p, now), p)).min()?;
        self.est[input * self.k + p] = (cur + self.r_prime, now);
        Some(p)
    }
}

/// Locally-estimated least-loaded dispatch.
#[derive(Clone, Debug)]
pub struct LeastLoadedLocalDemux {
    load: OwnLoad,
}

impl LeastLoadedLocalDemux {
    /// Local least-loaded dispatch for `n` inputs over `k` planes with
    /// slowdown `r_prime`.
    pub fn new(n: usize, k: usize, r_prime: usize) -> Self {
        LeastLoadedLocalDemux {
            load: OwnLoad::new(n, k, r_prime),
        }
    }
}

impl Demultiplexor for LeastLoadedLocalDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let p = self
            .load
            .take_least(cell.input.idx(), ctx.local.now, ctx.local.free_planes())
            .expect("valid bufferless config guarantees a free plane");
        PlaneId(p as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::demux::probe_dispatch;

    fn cell(input: u32, output: u32) -> Cell {
        Cell {
            id: CellId(0),
            input: PortId(input),
            output: PortId(output),
            seq: 0,
            arrival: 0,
        }
    }

    #[test]
    fn hash_is_stable_per_flow() {
        let mut d = HashFlowDemux::new(4, 8);
        let free = vec![0u64; 8];
        let p1 = probe_dispatch(&mut d, &cell(1, 2), 0, &free);
        let p2 = probe_dispatch(&mut d, &cell(1, 2), 100, &free);
        assert_eq!(p1, p2, "a flow always hashes to the same plane");
    }

    #[test]
    fn hash_spreads_flows() {
        let d = HashFlowDemux::new(16, 8);
        let planes: std::collections::BTreeSet<usize> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| d.home_plane(i, j))
            .collect();
        assert!(
            planes.len() >= 6,
            "hash should cover most planes: {planes:?}"
        );
    }

    #[test]
    fn hash_deviates_when_home_is_busy() {
        let mut d = HashFlowDemux::new(2, 2);
        let home = d.home_plane(0, 0);
        let mut busy = vec![0u64; 2];
        busy[home] = 100;
        let ctx = DispatchCtx {
            local: LocalView {
                now: 0,
                input: PortId(0),
                link_busy_until: &busy,
            },
            global: None,
        };
        let p = d.dispatch(&cell(0, 0), &ctx);
        assert_ne!(p.idx(), home);
    }

    #[test]
    fn least_loaded_local_spreads_own_traffic() {
        let mut d = LeastLoadedLocalDemux::new(1, 4, 4);
        let free = vec![0u64; 4];
        // Back-to-back dispatches in one slot-window spread over planes
        // because the local estimates charge r' per dispatch.
        let picks: std::collections::BTreeSet<u32> = (0..4)
            .map(|t| probe_dispatch(&mut d, &cell(0, 0), t, &free).0)
            .collect();
        assert_eq!(picks.len(), 4, "estimates must force spreading");
    }

    #[test]
    fn least_loaded_local_estimates_decay() {
        let mut d = LeastLoadedLocalDemux::new(1, 2, 4);
        let free = vec![0u64; 2];
        assert_eq!(probe_dispatch(&mut d, &cell(0, 0), 0, &free), PlaneId(0));
        // Long quiet period: estimates decay to zero, plane 0 is first
        // again by index tie-break.
        assert_eq!(probe_dispatch(&mut d, &cell(0, 0), 100, &free), PlaneId(0));
    }

    #[test]
    fn inputs_are_independent() {
        let mut d = LeastLoadedLocalDemux::new(2, 4, 4);
        let free = vec![0u64; 4];
        probe_dispatch(&mut d, &cell(0, 0), 0, &free);
        probe_dispatch(&mut d, &cell(0, 0), 0, &free);
        // Input 1's estimates are untouched: it starts at plane 0.
        assert_eq!(probe_dispatch(&mut d, &cell(1, 0), 0, &free), PlaneId(0));
    }
}
