//! The iSLIP iterative matching arbiter.
//!
//! Each slot the arbiter computes a conflict-free input/output matching
//! over the non-empty VOQs in up to `iterations` request–grant–accept
//! rounds:
//!
//! 1. **Request** — every unmatched input requests every output whose VOQ
//!    is non-empty.
//! 2. **Grant** — every unmatched output grants the requesting input
//!    closest (cyclically) to its grant pointer.
//! 3. **Accept** — every input accepts the granting output closest to its
//!    accept pointer.
//!
//! Pointers advance **only when a grant is accepted in the first
//! iteration** — the detail that makes iSLIP's pointers desynchronize and
//! deliver 100% throughput under uniform traffic (and slot-exact service
//! under admissible persistent patterns once desynchronized).

use crate::occupancy::{clear_bit, cyclic_bits, fill_ones, set_bit, words_for, Occupancy};

/// Round-robin grant/accept state for an `N × N` arbiter.
#[derive(Clone, Debug)]
pub struct IslipArbiter {
    n: usize,
    iterations: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    /// Scratch bitmap: inputs not yet matched this slot.
    in_free: Vec<u64>,
    /// Scratch bitmap: outputs not yet matched this slot.
    out_free: Vec<u64>,
    /// Scratch: input `i`'s bitmap of outputs granting it this iteration,
    /// at `i * words ..` (all clear between iterations).
    granted: Vec<u64>,
}

impl IslipArbiter {
    /// An arbiter for an `n × n` crossbar running `iterations` matching
    /// rounds per slot (1 is classic SLIP; log₂N is the usual practical
    /// choice).
    pub fn new(n: usize, iterations: usize) -> Self {
        let words = words_for(n);
        IslipArbiter {
            n,
            iterations: iterations.max(1),
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            in_free: vec![0; words],
            out_free: vec![0; words],
            granted: vec![0; n * words],
        }
    }

    /// The grant and accept pointer vectors, in that order — exposed so
    /// the stepping-equivalence tests can pin that dense and skip-ahead
    /// runs leave byte-identical arbiter state (pointers must not move
    /// across a skipped idle gap: a grant requires an occupied VOQ, so an
    /// all-empty request matrix cannot accept anything).
    pub fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }
}

impl crate::scheduler::CrossbarScheduler for IslipArbiter {
    fn n(&self) -> usize {
        self.n
    }

    fn schedule(&mut self, _now: pps_core::Slot, occ: &Occupancy, out: &mut [Option<usize>]) {
        if occ.is_empty() {
            return;
        }
        let n = self.n;
        let words = occ.words();
        fill_ones(&mut self.in_free, n);
        fill_ones(&mut self.out_free, n);
        for iter in 0..self.iterations {
            // Grant phase: each unmatched output grants the requesting
            // unmatched input closest (cyclically) to its grant pointer —
            // the first set bit of `col(j) & in_free` from the pointer.
            let mut any_grant = false;
            for j in cyclic_bits(&self.out_free, &self.out_free, 0) {
                let first = cyclic_bits(occ.col(j), &self.in_free, self.grant_ptr[j]).next();
                if let Some(i) = first {
                    set_bit(&mut self.granted[i * words..], j);
                    any_grant = true;
                }
            }
            if !any_grant {
                // No request joins two unmatched ports: later iterations
                // would see the same bitmaps and grant nothing either.
                break;
            }
            // Accept phase: each input accepts the granting output closest
            // to its accept pointer.
            for (i, matched) in out.iter_mut().enumerate() {
                let grants = &mut self.granted[i * words..(i + 1) * words];
                let Some(j) = cyclic_bits(grants, grants, self.accept_ptr[i]).next() else {
                    continue;
                };
                grants.fill(0);
                *matched = Some(j);
                clear_bit(&mut self.in_free, i);
                clear_bit(&mut self.out_free, j);
                // Pointer update only on first-iteration acceptance — the
                // desynchronization rule.
                if iter == 0 {
                    self.grant_ptr[j] = (i + 1) % n;
                    self.accept_ptr[i] = (j + 1) % n;
                }
            }
        }
    }

    fn state_digest(&self) -> u64 {
        use pps_core::rng::SplitMix64;
        let mut d = 0x15_117u64;
        for (&g, &a) in self.grant_ptr.iter().zip(&self.accept_ptr) {
            d = SplitMix64::fold_digest(d, ((g as u64) << 32) | a as u64);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::CrossbarScheduler;

    /// One `schedule` call over the matrix with a cell wherever `occupied`.
    fn matching<F: Fn(usize, usize) -> bool>(
        a: &mut IslipArbiter,
        occupied: F,
    ) -> Vec<Option<usize>> {
        let n = a.n();
        let lens: Vec<usize> = (0..n * n)
            .map(|x| occupied(x / n, x % n) as usize)
            .collect();
        let mut out = vec![None; n];
        a.schedule(0, &Occupancy::from_lens(n, &lens), &mut out);
        out
    }

    #[test]
    fn single_request_is_matched() {
        let mut a = IslipArbiter::new(4, 1);
        let m = matching(&mut a, |i, j| i == 2 && j == 3);
        assert_eq!(m, vec![None, None, Some(3), None]);
    }

    #[test]
    fn conflicting_requests_serialize() {
        // Inputs 0 and 1 both want output 0 only: exactly one wins per
        // call, and the pointer moves so they alternate.
        let mut a = IslipArbiter::new(2, 1);
        let occupied = |i: usize, j: usize| j == 0 && i < 2;
        let mut served = [0u8; 2];
        for _ in 0..4 {
            let m = matching(&mut a, occupied);
            for (i, mj) in m.iter().enumerate() {
                if mj.is_some() {
                    served[i] += 1;
                }
            }
        }
        assert_eq!(served, [2, 2], "round robin must alternate fairly");
    }

    #[test]
    fn full_demand_yields_perfect_matching_after_desync() {
        // All VOQs occupied: after a few slots the pointers desynchronize
        // and every slot matches all N inputs (the classic iSLIP result).
        let n = 8;
        let mut a = IslipArbiter::new(n, 1);
        let mut perfect = 0;
        for slot in 0..3 * n {
            let m = matching(&mut a, |_, _| true);
            let matched = m.iter().filter(|x| x.is_some()).count();
            if slot >= n {
                assert_eq!(matched, n, "slot {slot}: matching not perfect: {m:?}");
            }
            if matched == n {
                perfect += 1;
            }
        }
        assert!(perfect >= 2 * n);
    }

    #[test]
    fn matching_is_conflict_free() {
        let mut a = IslipArbiter::new(6, 3);
        for _ in 0..32 {
            let m = matching(&mut a, |i, j| (i + j) % 2 == 0);
            let outs: Vec<usize> = m.iter().flatten().copied().collect();
            let set: std::collections::BTreeSet<usize> = outs.iter().copied().collect();
            assert_eq!(outs.len(), set.len(), "two inputs matched one output");
        }
    }

    #[test]
    fn more_iterations_fill_the_matching() {
        // A demand pattern where 1 iteration underfills but 2 converge:
        // inputs {0,1} request {0,1} fully.
        let occupied = |i: usize, j: usize| i < 2 && j < 2;
        let mut a1 = IslipArbiter::new(4, 1);
        let mut a2 = IslipArbiter::new(4, 2);
        let m1 = matching(&mut a1, occupied).iter().flatten().count();
        let m2 = matching(&mut a2, occupied).iter().flatten().count();
        assert!(m2 >= m1);
        assert_eq!(m2, 2, "two iterations must saturate the 2x2 block");
    }
}
