//! Zipf-distributed flow populations.
//!
//! Internet traffic is famously flow-skewed: a handful of elephant flows
//! carry most cells while millions of mice appear once. [`ZipfSampler`]
//! draws flow *ranks* from `P(k) ∝ 1/k^s` over populations of millions of
//! flow ids in O(1) expected time per draw — rejection-inversion after
//! Hörmann & Derflinger ("Rejection-inversion to generate variates from
//! monotone discrete distributions", 1996), the same scheme behind
//! `rand_distr::Zipf` and Apache Commons — no per-rank tables, so a
//! 10⁷-flow population costs five floats of state.
//!
//! [`ZipfGen`] turns the sampler into an [`ArrivalStream`]: each input
//! fires Bernoulli(`load`) slots (pre-drawn geometric gaps, so
//! `next_activity` is exact), each firing picks a flow rank, and the
//! destination output is a pure hash of the flow id — all cells of a flow
//! share one output, which is what makes flow skew *visible* to the
//! switch: hot flows become hot outputs, and per-flow demultiplexors see
//! realistic flow-table churn.

use crate::stream::ArrivalStream;
use pps_core::prelude::*;
use pps_core::rng::{mix64, Geometric, SplitMix64};

/// O(1) sampler for `P(k) ∝ 1/k^s`, `k ∈ 1..=n`, by rejection-inversion.
#[derive(Clone, Copy, Debug)]
struct ZipfSampler {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

/// `log(1+x)/x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0 + x * x / 3.0
    }
}

/// `(exp(x)-1)/x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0 + x * x / 6.0
    }
}

impl ZipfSampler {
    /// Sampler over ranks `1..=n` with exponent `s > 0` (any `s`,
    /// including the harmonic point `s = 1`, via the `expm1`/`log1p`
    /// helpers).
    fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf population must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive");
        let mut z = ZipfSampler {
            n,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        z.threshold = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// `H(x) = ∫ x^-s dx = (x^(1-s) − 1)/(1 − s)` (→ `ln x` at `s = 1`).
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.s) * log_x) * log_x
    }

    /// The density hull `h(x) = x^-s`.
    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    /// `H⁻¹(x)`.
    fn h_integral_inverse(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (helper1(t) * x).exp()
    }

    /// Draw a rank in `1..=n`; expected iterations < 2 for any `s`.
    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5) as u64;
            let k = k.clamp(1, self.n);
            if k as f64 - x <= self.threshold
                || u >= self.h_integral(k as f64 + 0.5) - self.h(k as f64)
            {
                return k;
            }
        }
    }
}

/// Zipf-flow [`ArrivalStream`]: per-input Bernoulli slot occupancy over a
/// shared rank-skewed flow population, destinations hashed from flow ids.
pub struct ZipfGen {
    n: usize,
    /// Gap sampler at the per-slot probability `load`.
    gap: Geometric,
    sampler: ZipfSampler,
    /// Salt mixed into the flow→output hash so different seeds shuffle
    /// which outputs are hot.
    flow_salt: u64,
    /// Per-input `(gap stream, flow stream, next arrival slot)`.
    inputs: Vec<InputState>,
}

struct InputState {
    gaps: SplitMix64,
    flows: SplitMix64,
    next: Slot,
}

impl ZipfGen {
    /// A generator for an `n`-port switch: each input fires a cell per
    /// slot with probability `load`, flow ranks drawn Zipf(`s`) over
    /// `flows` ids.
    pub fn new(seed: u64, n: usize, load: f64, s: f64, flows: u64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        let master = SplitMix64::new(seed);
        let sampler = ZipfSampler::new(flows, s);
        let gap = Geometric::new(load);
        let inputs = (0..n)
            .map(|i| {
                let mut gaps = master.derive(0x5A1F).derive(i as u64);
                let flows = master.derive(0xF10E).derive(i as u64);
                let first = gap.sample(&mut gaps);
                InputState {
                    gaps,
                    flows,
                    next: first.min(Slot::MAX - 1),
                }
            })
            .collect();
        ZipfGen {
            n,
            gap,
            sampler,
            flow_salt: mix64(seed ^ 0x0F10_3A17),
            inputs,
        }
    }

    /// Pin the flow→output hash salt instead of deriving it from the
    /// seed. Two generators sharing a salt map every flow id to the same
    /// output even when their arrival processes differ — the chaos
    /// harness pins one campaign-wide salt so consecutive cases replay
    /// the same flow universe and keep hammering the same per-output
    /// resequencer rings.
    pub fn with_flow_salt(mut self, salt: u64) -> Self {
        self.flow_salt = salt;
        self
    }
}

/// The output all cells of `flow` are destined to — a pure function of
/// `(flow, salt)`, shared across inputs and across chaos cases so flow-id
/// reuse really does revisit the same output rings.
fn flow_output(flow: u64, salt: u64, n: usize) -> u32 {
    (mix64(flow ^ salt) % n as u64) as u32
}

impl ArrivalStream for ZipfGen {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_activity(&self, from: Slot) -> Option<Slot> {
        self.inputs.iter().map(|st| st.next.max(from)).min()
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        let (salt, n) = (self.flow_salt, self.n);
        for (i, st) in self.inputs.iter_mut().enumerate() {
            if st.next != slot {
                continue;
            }
            let flow = self.sampler.sample(&mut st.flows);
            let output = flow_output(flow, salt, n);
            out.push(Arrival::new(slot, i as u32, output));
            let gap = self.gap.sample(&mut st.gaps);
            st.next = slot.saturating_add(1).saturating_add(gap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, materialize_dense};

    #[test]
    fn sampler_is_in_range_and_skewed() {
        let z = ZipfSampler::new(1_000_000, 1.1);
        let mut rng = SplitMix64::new(3);
        let mut ones = 0usize;
        for _ in 0..20_000 {
            let k = z.sample(&mut rng);
            assert!((1..=1_000_000).contains(&k));
            if k == 1 {
                ones += 1;
            }
        }
        // P(1) ≈ 1/ζ(1.1, truncated) — comfortably above 5% for s=1.1,
        // while uniform would give 0.0001%.
        assert!(ones > 1_000, "rank 1 drawn only {ones}/20000 times");
    }

    #[test]
    fn sampler_harmonic_exponent_matches_theory() {
        // s = 1 exercises the log-limit branches of the helpers.
        let n = 1000u64;
        let z = ZipfSampler::new(n, 1.0);
        let mut rng = SplitMix64::new(7);
        let draws = 50_000;
        let ones = (0..draws).filter(|_| z.sample(&mut rng) == 1).count();
        let hn: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let expect = draws as f64 / hn;
        let got = ones as f64;
        assert!(
            (got - expect).abs() < expect * 0.15,
            "P(rank 1) off: {got} vs {expect}"
        );
    }

    #[test]
    fn skip_and_dense_walks_agree() {
        let mk = || ZipfGen::new(99, 4, 0.05, 1.2, 1 << 20);
        let a = materialize(&mut mk(), 5_000);
        let b = materialize_dense(&mut mk(), 5_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn load_is_respected() {
        let mut g = ZipfGen::new(5, 8, 0.3, 1.2, 1 << 20);
        let t = materialize(&mut g, 20_000);
        let cells_per_input_slot = t.len() as f64 / (8.0 * 20_000.0);
        assert!(
            (cells_per_input_slot - 0.3).abs() < 0.02,
            "measured load {cells_per_input_slot}"
        );
    }

    #[test]
    fn pinned_salt_overrides_the_seed() {
        // Different seeds, same salt: identical flow→output maps, while
        // the default (seed-derived) maps differ somewhere.
        let a = ZipfGen::new(1, 8, 0.5, 1.2, 1000).with_flow_salt(77);
        let b = ZipfGen::new(2, 8, 0.5, 1.2, 1000).with_flow_salt(77);
        let c = ZipfGen::new(1, 8, 0.5, 1.2, 1000);
        let d = ZipfGen::new(2, 8, 0.5, 1.2, 1000);
        let out = |g: &ZipfGen, f| flow_output(f, g.flow_salt, g.n);
        assert!((1..200).all(|f| out(&a, f) == out(&b, f)));
        assert!((1..200).any(|f| out(&c, f) != out(&d, f)));
    }

    #[test]
    fn flow_destinations_are_stable() {
        let g = ZipfGen::new(42, 8, 0.5, 1.2, 1000);
        let h = ZipfGen::new(42, 8, 0.5, 1.2, 1000);
        for flow in 1..100 {
            assert_eq!(
                flow_output(flow, g.flow_salt, g.n),
                flow_output(flow, h.flow_salt, h.n)
            );
        }
    }
}
