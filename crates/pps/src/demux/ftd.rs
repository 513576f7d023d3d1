//! Fractional traffic dispatch (FTD) and its Section 5 extension.
//!
//! Khotimsky & Krishnan's FTD family \[17\] segments each flow `(i, j)` into
//! blocks and never sends two cells of one block through the same plane.
//! Section 5 of the paper parameterizes the block size as `h·R/r = h·r'`
//! with `h > 1` and proves (Theorem 14) that the resulting fully-distributed
//! algorithm introduces **zero relative queuing delay during congested
//! periods** — once every plane's queue for the hot output is continuously
//! backlogged, the `K` plane→output lines jointly deliver `K/r' = S ≥ h >
//! 1` cells per slot, so the output never idles — after a warm-up period
//! that shrinks as `h` grows.
//!
//! Correct operation requires speedup `S ≥ h` (so a block of `h·r'` cells
//! can find `h·r' ≤ K` distinct planes).

use pps_core::prelude::*;

/// Per-flow block-spreading state.
#[derive(Clone, Copy, Debug, Default)]
struct FlowBlock {
    /// Bitmask of planes already used in the current block.
    used: u128,
    /// Cells dispatched in the current block.
    count: u32,
    /// Last plane used (round-robin origin for the next pick).
    last: u32,
}

/// Fractional-traffic-dispatch demultiplexor with block size `h·r'`.
#[derive(Clone, Debug)]
pub struct FtdDemux {
    flows: Vec<FlowBlock>,
    n: usize,
    k: usize,
    block_size: u32,
    /// Dispatches that could not honour block-distinctness (all unused
    /// planes busy); counted, then dispatched to any free plane.
    violations: u64,
}

impl FtdDemux {
    /// FTD for an `n × n` switch over `k ≤ 128` planes with slowdown
    /// `r_prime` and block parameter `h ≥ 2`.
    ///
    /// # Panics
    /// Panics if `k > 128` (plane sets are u128 bitmasks) or if the block
    /// `h·r'` exceeds `k` (i.e. the speedup requirement `S ≥ h` fails).
    pub fn new(n: usize, k: usize, r_prime: usize, h: usize) -> Self {
        assert!(k <= 128, "FtdDemux supports at most 128 planes");
        assert!(h >= 2, "Section 5 requires h > 1");
        let block_size = (h * r_prime) as u32;
        assert!(
            block_size as usize <= k,
            "FTD requires S >= h, i.e. h*r' <= K (got h*r' = {block_size}, K = {k})"
        );
        FtdDemux {
            flows: vec![FlowBlock::default(); n * n],
            n,
            k,
            block_size,
            violations: 0,
        }
    }

    /// Block-distinctness violations forced by busy lines (0 in legal
    /// operation).
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

impl Demultiplexor for FtdDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let f = cell.input.idx() * self.n + cell.output.idx();
        let state = &mut self.flows[f];
        if state.count >= self.block_size {
            state.used = 0;
            state.count = 0;
        }
        // Round-robin scan from the successor of the last plane, skipping
        // planes already used in this block and busy lines.
        let start = (state.last as usize + 1) % self.k;
        let mut choice = None;
        for off in 0..self.k {
            let p = (start + off) % self.k;
            if state.used & (1u128 << p) == 0 && ctx.local.is_free(p) {
                choice = Some(p);
                break;
            }
        }
        let p = match choice {
            Some(p) => p,
            None => {
                // All unused planes busy: a bufferless input must still
                // dispatch; break distinctness and record it.
                self.violations += 1;
                ctx.local
                    .next_free_from(start)
                    .expect("valid bufferless config guarantees a free plane")
            }
        };
        state.used |= 1u128 << p;
        state.count += 1;
        state.last = p as u32;
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
    fn block_cells_ride_distinct_planes() {
        // k = 8, r' = 2, h = 2 => block = 4.
        let mut d = FtdDemux::new(1, 8, 2, 2);
        let free = vec![0u64; 8];
        let picks: Vec<u32> = (0..4)
            .map(|_| probe_dispatch(&mut d, &cell(0, 0), 0, &free).0)
            .collect();
        let set: std::collections::BTreeSet<u32> = picks.iter().copied().collect();
        assert_eq!(set.len(), 4, "block must use distinct planes: {picks:?}");
    }

    #[test]
    fn new_block_may_reuse_planes() {
        let mut d = FtdDemux::new(1, 4, 2, 2); // block = 4 = k
        let free = vec![0u64; 4];
        let picks: Vec<u32> = (0..8)
            .map(|_| probe_dispatch(&mut d, &cell(0, 0), 0, &free).0)
            .collect();
        // First block uses all 4 planes; second block starts over.
        let first: std::collections::BTreeSet<u32> = picks[..4].iter().copied().collect();
        let second: std::collections::BTreeSet<u32> = picks[4..].iter().copied().collect();
        assert_eq!(first.len(), 4);
        assert_eq!(second.len(), 4);
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn flows_have_independent_blocks() {
        let mut d = FtdDemux::new(2, 8, 2, 2);
        let free = vec![0u64; 8];
        // Interleave two flows; each must still keep distinctness.
        let mut per_flow: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for t in 0..8 {
            let j = t % 2;
            per_flow[j as usize].push(probe_dispatch(&mut d, &cell(0, j), t as u64, &free).0);
        }
        for picks in &per_flow {
            let set: std::collections::BTreeSet<u32> = picks.iter().copied().collect();
            assert_eq!(set.len(), 4, "{picks:?}");
        }
    }

    #[test]
    #[should_panic(expected = "S >= h")]
    fn speedup_requirement_checked() {
        let _ = FtdDemux::new(1, 4, 4, 2); // h*r' = 8 > K = 4
    }

    #[test]
    fn busy_lines_force_counted_violation() {
        let mut d = FtdDemux::new(1, 4, 2, 2);
        // Planes 0..3; all free initially. Use 0,1,2 in the block, then make
        // plane 3 busy: the 4th cell of the block must violate.
        let free = vec![0u64; 4];
        for _ in 0..3 {
            probe_dispatch(&mut d, &cell(0, 0), 0, &free);
        }
        let unused = (0..4).find(|&p| d.flows[0].used & (1 << p) == 0).unwrap();
        let mut b = vec![0u64; 4];
        b[unused] = 100;
        let ctx = DispatchCtx {
            local: LocalView {
                now: 0,
                input: PortId(0),
                link_busy_until: &b,
            },
            global: None,
        };
        let _ = d.dispatch(&cell(0, 0), &ctx);
        assert_eq!(d.violations(), 1);
    }
}
