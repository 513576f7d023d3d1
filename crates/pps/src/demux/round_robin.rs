//! Per-input round-robin dispatch.
//!
//! Each input port keeps a single rotating pointer over the `K` planes and
//! sends every arriving cell — regardless of destination — to the next free
//! plane from the pointer. This is the archetypal *unpartitioned
//! fully-distributed* algorithm (simple, stateless across ports, fault
//! tolerant: every plane is used by every input), and therefore exactly the
//! class Corollary 7 applies to: relative queuing delay and jitter at least
//! `(R/r − 1)·N` under burst-free leaky-bucket traffic.

use pps_core::prelude::*;

/// Per-input round-robin demultiplexor.
#[derive(Clone, Debug)]
pub struct RoundRobinDemux {
    next: Vec<u32>,
    k: u32,
}

impl RoundRobinDemux {
    /// A round-robin demultiplexor for `n` inputs over `k` planes, all
    /// pointers at plane 0.
    pub fn new(n: usize, k: usize) -> Self {
        RoundRobinDemux {
            next: vec![0; n],
            k: k as u32,
        }
    }
}

impl Demultiplexor for RoundRobinDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let i = cell.input.idx();
        let p = ctx
            .local
            .next_free_from(self.next[i] as usize)
            .expect("valid bufferless config guarantees a free plane (K >= r')");
        self.next[i] = (p as u32 + 1) % self.k;
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
    fn cycles_through_planes() {
        let mut d = RoundRobinDemux::new(1, 3);
        let free = vec![0u64; 3];
        let picks: Vec<u32> = (0..6)
            .map(|_| probe_dispatch(&mut d, &cell(0, 0), 0, &free).0)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_busy_planes() {
        let mut d = RoundRobinDemux::new(1, 3);
        let busy = vec![10u64, 0, 0]; // plane 0 busy until slot 10
        let ctx = DispatchCtx {
            local: LocalView {
                now: 0,
                input: PortId(0),
                link_busy_until: &busy,
            },
            global: None,
        };
        assert_eq!(d.dispatch(&cell(0, 0), &ctx), PlaneId(1));
        assert_eq!(d.next[0], 2);
    }

    #[test]
    fn inputs_are_independent_automata() {
        // Fully-distributed: traffic at input 0 must not move input 1's state.
        let mut d = RoundRobinDemux::new(2, 4);
        let free = vec![0u64; 4];
        probe_dispatch(&mut d, &cell(0, 0), 0, &free);
        probe_dispatch(&mut d, &cell(0, 0), 1, &free);
        assert_eq!(d.next[0], 2);
        assert_eq!(d.next[1], 0);
    }

    #[test]
    fn destination_does_not_matter() {
        let mut d = RoundRobinDemux::new(1, 4);
        let free = vec![0u64; 4];
        assert_eq!(probe_dispatch(&mut d, &cell(0, 3), 0, &free), PlaneId(0));
        assert_eq!(probe_dispatch(&mut d, &cell(0, 1), 1, &free), PlaneId(1));
    }
}
