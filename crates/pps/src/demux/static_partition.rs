//! Statically partitioned dispatch.
//!
//! Each input port is restricted to a fixed subset of the planes and
//! round-robins within it. The paper uses this family twice:
//!
//! * Theorem 6 lower-bounds any *d-partitioned* algorithm — one where some
//!   plane/output pair is shared by at least `d` demultiplexors — by
//!   `(R/r − 1)·d`;
//! * Theorem 8 observes that even with static partitioning, the input
//!   constraint forces each input to use at least `r'` planes, so some
//!   plane is shared by at least `r'·N/K = N/S` inputs, yielding
//!   `(R/r − 1)·N/S` for *every* fully-distributed algorithm.
//!
//! The paper also notes static partitioning is *failure-prone*: losing one
//! plane severs the inputs whose subset contained it. The fault-injection
//! experiment quantifies this against the unpartitioned round robin.

use pps_core::prelude::*;

/// Statically partitioned round-robin demultiplexor.
#[derive(Clone, Debug)]
pub struct StaticPartitionDemux {
    /// Plane subset per input.
    partition: Vec<Vec<u32>>,
    /// Round-robin position per input (index into its subset).
    next: Vec<u32>,
}

impl StaticPartitionDemux {
    /// Build from an explicit partition: `partition[i]` is the plane subset
    /// of input `i`. Subsets must be non-empty.
    pub fn new(partition: Vec<Vec<u32>>) -> Self {
        assert!(
            partition.iter().all(|s| !s.is_empty()),
            "every input needs a non-empty plane subset"
        );
        let n = partition.len();
        StaticPartitionDemux {
            partition,
            next: vec![0; n],
        }
    }

    /// The *minimal* legal partition of Theorem 8: each input uses exactly
    /// `r'` planes, subsets assigned contiguously so that the `K/r'` groups
    /// share the load. With `g = K/r'` groups, each plane/output pair is
    /// used by `⌈N/g⌉ = ⌈N·r'/K⌉ = ⌈N/S⌉` inputs — the concentration the
    /// theorem exploits.
    pub fn minimal(n: usize, k: usize, r_prime: usize) -> Self {
        assert!(
            k >= r_prime,
            "need K >= r' for a legal bufferless partition"
        );
        let groups = k / r_prime; // leftover planes stay unused — worst legal case
        let partition = (0..n)
            .map(|i| {
                let g = i % groups;
                ((g * r_prime) as u32..((g + 1) * r_prime) as u32).collect()
            })
            .collect();
        StaticPartitionDemux::new(partition)
    }

    /// The subset of input `i`.
    pub fn planes_of(&self, input: usize) -> &[u32] {
        &self.partition[input]
    }
}

impl Demultiplexor for StaticPartitionDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let i = cell.input.idx();
        let subset = &self.partition[i];
        let len = subset.len();
        let start = self.next[i] as usize;
        for off in 0..len {
            let pos = (start + off) % len;
            let p = subset[pos] as usize;
            if ctx.local.is_free(p) {
                self.next[i] = ((pos + 1) % len) as u32;
                return PlaneId(p as u32);
            }
        }
        // All subset lines busy: a bufferless input must still dispatch
        // somewhere; escape to any free plane.
        let p = ctx
            .local
            .next_free_from(0)
            .expect("valid bufferless config guarantees a free plane");
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
    fn stays_inside_its_subset() {
        let mut d = StaticPartitionDemux::new(vec![vec![2, 3]]);
        let free = vec![0u64; 4];
        let picks: Vec<u32> = (0..4)
            .map(|_| probe_dispatch(&mut d, &cell(0), 0, &free).0)
            .collect();
        assert_eq!(picks, vec![2, 3, 2, 3]);
    }

    #[test]
    fn minimal_partition_geometry() {
        // N = 8, K = 4, r' = 2 => 2 groups of 2 planes; 4 inputs per group.
        let d = StaticPartitionDemux::minimal(8, 4, 2);
        assert_eq!(d.planes_of(0), &[0, 1]);
        assert_eq!(d.planes_of(1), &[2, 3]);
        assert_eq!(d.planes_of(2), &[0, 1]);
        // Each plane is shared by N/S = 8/(4/2) inputs.
        let sharing_plane_0 = (0..8).filter(|&i| d.planes_of(i).contains(&0)).count();
        assert_eq!(sharing_plane_0, 4);
    }

    #[test]
    fn escape_when_whole_subset_busy() {
        let mut d = StaticPartitionDemux::new(vec![vec![0]]);
        let busy = vec![10u64, 0];
        let ctx = DispatchCtx {
            local: LocalView {
                now: 0,
                input: PortId(0),
                link_busy_until: &busy,
            },
            global: None,
        };
        assert_eq!(d.dispatch(&cell(0), &ctx), PlaneId(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_subset_is_rejected() {
        let _ = StaticPartitionDemux::new(vec![vec![]]);
    }
}
