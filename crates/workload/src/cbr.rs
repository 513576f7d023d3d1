//! Diagonal constant-bit-rate traffic, the zero-contention control.
//!
//! Input `i` sends one cell to output `i` every `period` slots, first at
//! slot `i mod period`, so the inputs' phases are staggered. The traffic is
//! burst-free on both sides and draws no random number: a slot's cells are
//! a function of the slot alone.

use crate::stream::ArrivalStream;
use pps_core::prelude::*;

/// One cell per `period` slots per input, input `i` to output `i`.
pub(crate) struct DiagonalCbr {
    pub(crate) n: usize,
    /// At least 1 (the spec parser refuses 0).
    pub(crate) period: Slot,
}

impl ArrivalStream for DiagonalCbr {
    fn ports(&self) -> usize {
        self.n
    }

    /// Slot `t` is active when some input `i < n` has `i ≡ t (mod period)`,
    /// i.e. when `t mod period < min(n, period)`; otherwise the next period
    /// starts the next active run.
    fn next_activity(&self, from: Slot) -> Option<Slot> {
        let phase = from % self.period;
        if phase < (self.n as Slot).min(self.period) {
            Some(from)
        } else {
            (from - phase)
                .checked_add(self.period)
                .filter(|_| self.n > 0)
        }
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        let first = slot % self.period;
        let inputs = (first..self.n as Slot).step_by(self.period as usize);
        out.extend(inputs.map(|i| Arrival::new(slot, i as u32, i as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, materialize_dense};

    #[test]
    fn period_and_phase() {
        let t = materialize(&mut DiagonalCbr { n: 2, period: 4 }, 16);
        let slots = |input| {
            t.arrivals()
                .filter(|a| a.input == PortId(input))
                .map(|a| a.slot)
                .collect::<Vec<_>>()
        };
        assert_eq!(slots(0), [0, 4, 8, 12]);
        assert_eq!(slots(1), [1, 5, 9, 13]);
    }

    #[test]
    fn diagonal_cbr_is_burst_free() {
        let t = materialize(&mut DiagonalCbr { n: 8, period: 2 }, 200);
        assert!(pps_traffic::min_burstiness(&t, 8).burst_free());
        assert_eq!(t.len(), 800);
    }

    #[test]
    fn full_rate_cbr_is_one_cell_per_slot() {
        let t = materialize(&mut DiagonalCbr { n: 4, period: 1 }, 50);
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn skip_and_dense_walks_agree() {
        for (n, period) in [(3, 7), (7, 3), (1, 1), (5, 5)] {
            let skip = materialize(&mut DiagonalCbr { n, period }, 60);
            let dense = materialize_dense(&mut DiagonalCbr { n, period }, 60);
            assert_eq!(skip, dense, "n = {n}, period = {period}");
        }
    }
}
