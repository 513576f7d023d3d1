//! Leaky-bucket shaping: admissible-by-construction stochastic traffic.
//!
//! The paper's delay theorems hold for *admissible* traffic — per-output
//! leaky-bucket conformance (Definition 3) — but a raw stochastic source
//! has no such promise: a Bernoulli stream at load 0.9 will eventually
//! aim `N` cells at one output in one slot. [`Shaped`] closes the gap by
//! policing any inner [`ArrivalStream`] through one `pps_traffic`
//! [`Bucket`] per output, dropping non-conforming cells at the source, so
//! the emitted trace provably satisfies the [`LbContract`] it is built
//! with and every envelope/ordering oracle downstream stays valid. The
//! policer admits a cell exactly when [`LbContract::admits`] would accept
//! it: both are [`Bucket::offer`].
//!
//! [`UniformGen`] is the plain memoryless source (Bernoulli slots, uniform
//! destinations) used both standalone and as the default shaping inner.

use crate::stream::ArrivalStream;
use pps_core::prelude::*;
use pps_core::rng::SplitMix64;
use pps_traffic::{Bucket, LbContract};

/// Memoryless source: each input fires with probability `load` per slot
/// (pre-drawn geometric gaps), destination uniform per cell.
pub struct UniformGen {
    n: usize,
    load: f64,
    inputs: Vec<UniformInput>,
}

struct UniformInput {
    gaps: SplitMix64,
    dests: SplitMix64,
    next: Slot,
}

impl UniformGen {
    /// A uniform Bernoulli generator over `n` inputs at per-input `load`.
    pub fn new(seed: u64, n: usize, load: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        let master = SplitMix64::new(seed);
        let inputs = (0..n)
            .map(|i| {
                let mut gaps = master.derive(0xBE2A).derive(i as u64);
                let dests = master.derive(0xD0D0).derive(i as u64);
                let first = gaps.geometric(load).min(Slot::MAX - 1);
                UniformInput {
                    gaps,
                    dests,
                    next: first,
                }
            })
            .collect();
        UniformGen { n, load, inputs }
    }
}

impl ArrivalStream for UniformGen {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_activity(&self, from: Slot) -> Option<Slot> {
        self.inputs.iter().map(|st| st.next.max(from)).min()
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        for (i, st) in self.inputs.iter_mut().enumerate() {
            if st.next != slot {
                continue;
            }
            let output = st.dests.below(self.n as u64) as u32;
            out.push(Arrival::new(slot, i as u32, output));
            let gap = st.gaps.geometric(self.load);
            st.next = slot.saturating_add(1).saturating_add(gap);
        }
    }
}

/// Polices an inner stream through per-output `(σ, ρ)` buckets; cells that
/// would breach the bucket are dropped before they reach the trace.
pub struct Shaped<S> {
    inner: S,
    contract: LbContract,
    buckets: Vec<Bucket>,
    scratch: Vec<Arrival>,
}

/// Whether a bucket of `contract` holds one cell (`burst·den + num ≥
/// den`): any burst at the line rate, where burst 0 is the paper's
/// burst-free `(R, 0)` traffic; below it, a burst of at least 1.
pub(crate) fn holds_a_cell(contract: &LbContract) -> bool {
    let (num, den) = (contract.rate.num(), contract.rate.den());
    contract.burst.saturating_mul(den).saturating_add(num) >= den
}

impl<S: ArrivalStream> Shaped<S> {
    /// Shape `inner` to `contract`, whose bucket must hold one cell.
    pub fn new(inner: S, contract: LbContract) -> Self {
        assert!(holds_a_cell(&contract), "the bucket holds no cell");
        Shaped {
            buckets: vec![Bucket::default(); inner.ports()],
            inner,
            contract,
            scratch: Vec::new(),
        }
    }
}

impl<S: ArrivalStream> ArrivalStream for Shaped<S> {
    fn ports(&self) -> usize {
        self.inner.ports()
    }

    /// Conservative: the inner stream's next candidate. Every cell there
    /// may be dropped, in which case the slot emits nothing and the
    /// materializer just asks again — allowed by the trait contract.
    fn next_activity(&self, from: Slot) -> Option<Slot> {
        self.inner.next_activity(from)
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        self.scratch.clear();
        self.inner.emit(slot, &mut self.scratch);
        for a in &self.scratch {
            if self.buckets[a.output.idx()].offer(slot, &self.contract) {
                out.push(*a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, materialize_dense};

    fn contract() -> LbContract {
        LbContract::new(3, 4, 4)
    }

    fn shaped(seed: u64) -> Shaped<UniformGen> {
        Shaped::new(UniformGen::new(seed, 4, 0.9), contract())
    }

    #[test]
    fn emitted_trace_satisfies_its_own_contract() {
        for seed in 0..20 {
            let t = materialize(&mut shaped(seed), 3_000);
            assert!(
                contract().admits(&t, 4),
                "seed {seed}: shaped trace breaches contract"
            );
        }
    }

    #[test]
    fn unshaped_high_load_breaches_where_shaped_does_not() {
        // Sanity that the test above is non-vacuous: the raw inner stream
        // at load 0.9 violates a 3/4-rate bucket.
        let mut raw = UniformGen::new(7, 4, 0.9);
        let t = materialize(&mut raw, 3_000);
        assert!(!LbContract::new(3, 4, 4).admits(&t, 4));
    }

    #[test]
    fn skip_and_dense_walks_agree() {
        let a = materialize(&mut shaped(13), 2_000);
        let b = materialize_dense(&mut shaped(13), 2_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn uniform_load_is_respected() {
        let mut g = UniformGen::new(2, 8, 0.5);
        let t = materialize(&mut g, 20_000);
        let rho = t.len() as f64 / (8.0 * 20_000.0);
        assert!((rho - 0.5).abs() < 0.02, "measured load {rho}");
    }

    #[test]
    fn shaping_drops_rather_than_delays() {
        // Shaped output is a subset of the raw output: same (slot, input)
        // cells, never re-timed.
        let raw = materialize(&mut UniformGen::new(9, 4, 0.9), 1_000);
        let mut g = Shaped::new(UniformGen::new(9, 4, 0.9), LbContract::new(1, 2, 2));
        let cut = materialize(&mut g, 1_000);
        assert!(cut.len() < raw.len());
        let set: std::collections::HashSet<_> = raw
            .arrivals()
            .map(|a| (a.slot, a.input, a.output))
            .collect();
        for a in cut.arrivals() {
            assert!(set.contains(&(a.slot, a.input, a.output)));
        }
    }
}
