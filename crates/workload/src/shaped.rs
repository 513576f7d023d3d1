//! Leaky-bucket shaping: admissible-by-construction stochastic traffic.
//!
//! The paper's delay theorems hold for *admissible* traffic — per-output
//! leaky-bucket conformance (Definition 3) — but a raw stochastic source
//! has no such promise: a Bernoulli stream at load 0.9 will eventually
//! aim `N` cells at one output in one slot. [`Shaped`] closes the gap by
//! policing any inner [`ArrivalStream`] through exact per-output token
//! buckets, dropping non-conforming cells at the source, so the emitted
//! trace provably satisfies the [`LbContract`] it advertises and every
//! envelope/ordering oracle downstream stays valid. The bucket arithmetic
//! is integer-exact over [`pps_core::rate::Ratio`] — the same recurrence
//! `pps_traffic::min_burstiness` measures, so shape-then-measure
//! round-trips exactly.
//!
//! [`UniformGen`] is the plain memoryless source (Bernoulli slots, uniform
//! destinations) used both standalone and as the default shaping inner.

use crate::stream::{ArrivalStream, LbContract};
use pps_core::prelude::*;
use pps_core::rng::SplitMix64;

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

/// Per-output token-bucket state in `den`-scaled integer units.
struct Lane {
    q: u64,
    last: Slot,
}

/// Polices an inner stream through per-output `(σ, ρ)` buckets; cells that
/// would breach the bucket are dropped before they reach the trace.
pub struct Shaped<S> {
    inner: S,
    contract: LbContract,
    lanes: Vec<Lane>,
    scratch: Vec<Arrival>,
}

impl<S: ArrivalStream> Shaped<S> {
    /// Shape `inner` to `contract` (burst must admit at least one cell).
    pub fn new(inner: S, contract: LbContract) -> Self {
        assert!(contract.burst >= 1, "burst 0 admits no cells at all");
        let lanes = (0..inner.ports()).map(|_| Lane { q: 0, last: 0 }).collect();
        Shaped {
            inner,
            contract,
            lanes,
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
        // Same `+num` arrival-slot credit as `LbContract::admits`, so the
        // policer admits exactly what the checker accepts.
        let (num, den) = (self.contract.rate.num(), self.contract.rate.den());
        let cap = self.contract.burst.saturating_mul(den).saturating_add(num);
        for a in &self.scratch {
            let lane = &mut self.lanes[a.output.idx()];
            let decay = (slot - lane.last).saturating_mul(num);
            lane.q = lane.q.saturating_sub(decay);
            lane.last = slot;
            if lane.q + den <= cap {
                lane.q += den;
                out.push(*a);
            }
        }
    }

    fn contract(&self) -> Option<LbContract> {
        Some(self.contract)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, materialize_dense};

    fn shaped(seed: u64) -> Shaped<UniformGen> {
        Shaped::new(UniformGen::new(seed, 4, 0.9), LbContract::new(3, 4, 4))
    }

    #[test]
    fn emitted_trace_satisfies_its_own_contract() {
        for seed in 0..20 {
            let mut g = shaped(seed);
            let c = g.contract().expect("shaped streams carry their contract");
            let t = materialize(&mut g, 3_000);
            assert!(
                c.admits(&t, 4),
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
