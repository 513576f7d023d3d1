//! Per-flow round-robin dispatch.
//!
//! Each flow `(i, j)` keeps its own rotating pointer, so consecutive cells
//! of a flow ride consecutive planes. This is the spirit of Iyer &
//! McKeown's practical fully-distributed algorithm \[15\], which mimics a
//! FCFS output-queued switch with relative delay at most `N·R/r` when
//! `S ≥ 2` — the matching upper bound that makes Corollary 7 tight
//! (`Θ((R/r)·N)`). Spreading per flow also feeds every plane under a single
//! persistent flow, which is what keeps the relative delay bounded; it
//! remains unpartitioned and fully distributed, so the Ω((R/r − 1)·N) lower
//! bound still applies — experiment E11 measures both sides.

use pps_core::prelude::*;

/// Per-flow round-robin demultiplexor.
#[derive(Clone, Debug)]
pub struct PerFlowRoundRobinDemux {
    /// Pointer per dense flow index (`input * n + output`).
    next: Vec<u32>,
    n: usize,
    k: u32,
}

impl PerFlowRoundRobinDemux {
    /// Per-flow round robin for an `n × n` switch over `k` planes.
    pub fn new(n: usize, k: usize) -> Self {
        PerFlowRoundRobinDemux {
            next: vec![0; n * n],
            n,
            k: k as u32,
        }
    }
}

impl Demultiplexor for PerFlowRoundRobinDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let f = cell.input.idx() * self.n + cell.output.idx();
        let p = ctx
            .local
            .next_free_from(self.next[f] as usize)
            .expect("valid bufferless config guarantees a free plane (K >= r')");
        self.next[f] = (p as u32 + 1) % self.k;
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
    fn flows_rotate_independently() {
        let mut d = PerFlowRoundRobinDemux::new(2, 4);
        let free = vec![0u64; 4];
        assert_eq!(probe_dispatch(&mut d, &cell(0, 0), 0, &free), PlaneId(0));
        assert_eq!(probe_dispatch(&mut d, &cell(0, 1), 1, &free), PlaneId(0));
        assert_eq!(probe_dispatch(&mut d, &cell(0, 0), 2, &free), PlaneId(1));
        assert_eq!(d.next[0], 2);
        assert_eq!(d.next[1], 1);
        assert_eq!(d.next[2], 0);
    }

    #[test]
    fn consecutive_cells_of_a_flow_ride_distinct_planes() {
        let mut d = PerFlowRoundRobinDemux::new(1, 4);
        let free = vec![0u64; 4];
        let picks: Vec<u32> = (0..4)
            .map(|_| probe_dispatch(&mut d, &cell(0, 0), 0, &free).0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }
}
