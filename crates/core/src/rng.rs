//! Seeded SplitMix64 — the workspace's one source of randomness.
//!
//! Every randomized component (the workload generators, the sampling
//! crossbar schedulers, the randomized demultiplexors that take a raw
//! seed) draws from [`SplitMix64`] substreams derived from a master seed
//! through [`SplitMix64::derive`], the same finalizer mix the chaos
//! harness uses for its per-case seeds (`pps_chaos::case_seed`). The
//! discipline buys three properties the workspace's contracts depend on:
//!
//! * **replayability** — a `(seed, parameters)` pair regenerates the exact
//!   decision stream, byte for byte, on any machine;
//! * **schedule independence** — substreams are derived per component (and
//!   per concern: gaps, flows, destinations, proposals), so the stream one
//!   component draws never depends on how many other components exist or
//!   which slots they fire in;
//! * **allocation-free draws** — the generator state is one `u64`; the hot
//!   path is three multiplies and some xors, with no heap in sight.

/// One-word splittable PRNG (Steele, Lea & Flood's SplitMix64 finalizer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The golden-ratio increment of the SplitMix64 stream.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Apply the SplitMix64 output finalizer to `z` (also usable standalone as
/// a high-quality 64→64-bit mixer for hashing flow ids to outputs).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent substream tagged `tag` without consuming any
    /// draws from this stream — the seed discipline: component `c` on
    /// input `i` draws from `master.derive(c).derive(i)`, so streams never
    /// interleave whatever order components are stepped in.
    #[inline]
    pub fn derive(&self, tag: u64) -> SplitMix64 {
        SplitMix64 {
            state: mix64(self.state ^ tag.wrapping_mul(GAMMA)),
        }
    }

    /// Next raw 64-bit draw.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Uniform draw in `[0, 1)` with 53 mantissa bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)` (multiply-shift; bias < n·2⁻⁶⁴).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli draw with success probability `p ∈ [0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "chance({p})");
        self.next_f64() < p
    }

    /// Number of failures before the first success of a Bernoulli(`p`)
    /// sequence — `Geometric(p)` on `{0, 1, 2, …}` via inversion, so a
    /// per-slot-probability process can jump straight to its next event
    /// instead of flipping a coin every slot. `p = 1` always returns 0;
    /// `p = 0` saturates (the caller treats it as "never").
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&p), "geometric({p})");
        if p >= 1.0 {
            return 0;
        }
        if p <= 0.0 {
            return u64::MAX;
        }
        // Inversion: floor(ln(1-U) / ln(1-p)); 1-U is uniform on (0, 1].
        let u = 1.0 - self.next_f64();
        let g = u.ln() / (1.0 - p).ln();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// The raw generator state — a compact fingerprint for the dense/skip
    /// state-equality proptests (two generators with equal state produce
    /// equal futures).
    #[inline]
    pub fn state_fingerprint(&self) -> u64 {
        self.state
    }

    /// Fold `extra` into a running digest — tiny helper for components
    /// that fingerprint scheduler state across stepping modes.
    #[inline]
    pub fn fold_digest(acc: u64, extra: u64) -> u64 {
        mix64(acc ^ extra.wrapping_mul(GAMMA))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn derive_is_independent_of_consumption() {
        let parent = SplitMix64::new(7);
        let before = parent.derive(3);
        let mut consumed = parent;
        let _ = consumed.next_u64();
        let _ = consumed.next_u64();
        assert_eq!(parent.derive(3), before);
        assert_ne!(parent.derive(4), before);
    }

    #[test]
    fn digest_fold_separates_states() {
        let a = SplitMix64::fold_digest(0, 1);
        let b = SplitMix64::fold_digest(0, 2);
        assert_ne!(a, b);
        assert_ne!(SplitMix64::fold_digest(a, 5), SplitMix64::fold_digest(b, 5));
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = SplitMix64::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn geometric_matches_its_mean() {
        // Mean of Geometric(p) on {0,1,...} is (1-p)/p.
        let mut r = SplitMix64::new(99);
        for p in [0.5, 0.1, 0.02] {
            let n = 20_000u64;
            let sum: f64 = (0..n).map(|_| r.geometric(p) as f64).sum();
            let mean = sum / n as f64;
            let expect = (1.0 - p) / p;
            assert!(
                (mean - expect).abs() < expect * 0.1 + 0.05,
                "p={p}: mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn geometric_extremes() {
        let mut r = SplitMix64::new(5);
        assert_eq!(r.geometric(1.0), 0);
        assert_eq!(r.geometric(0.0), u64::MAX);
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
