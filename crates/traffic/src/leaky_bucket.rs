//! `(R, B)` leaky-bucket traffic (paper, Definition 3), written once.
//!
//! With the external rate normalized to `R = 1` cell/slot, a trace is
//! `(R, B)` leaky-bucket iff for every slot `t`, every length `τ ≥ 1`,
//! every input `i` and every output `j`:
//!
//! ```text
//! A_i(t, t+τ) ≤ τ + B      and      B_j(t, t+τ) ≤ τ + B
//! ```
//!
//! where `A_i` counts arrivals on input `i` and `B_j` counts arrivals
//! destined for output `j`. The per-input constraint holds for any
//! `B ≥ 0` (`Trace::build` refuses two cells on one `(slot, input)`), so
//! only outputs are tracked.
//!
//! Each output is one [`Bucket`], a virtual queue in `1/den` cells: it
//! drains `num` per slot and fills `den` per arrival. A cell conforms to
//! the contract `(num/den, burst)` iff the level after it stays within
//! `burst·den + num` — the `+num` is the arrival slot's own rate credit,
//! which makes this the window condition `A_j(t, t+τ) ≤ ρ·τ + σ` in
//! integer arithmetic. Everything here is that one update:
//! [`LbContract::admits`] checks it, `pps_workload::Shaped` polices with
//! it (dropping the cells it refuses), and [`IncrementalBurstiness`] runs
//! it uncapped at rate 1/1, where the highest level minus the credit is
//! the trace's minimal `B`. Cruz's calculus \[9\] also makes `B` the
//! buffer bound of any work-conserving switch under such traffic — which
//! the paper uses in Lemma 4's jitter argument.

use pps_core::prelude::*;
use pps_core::rate::Ratio;

/// A leaky-bucket contract for a trace: for every output `j` and every
/// window of `τ` slots, the cells destined to `j` number at most
/// `rate·τ + burst` (Cruz `(σ, ρ)` with `σ = burst`, `ρ = rate`; the
/// paper's Definition 3 is the `rate = 1` case). Checked exactly, in
/// integer arithmetic over [`Ratio`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LbContract {
    /// Sustained per-output rate `ρ`, kept exact.
    pub rate: Ratio,
    /// Burst allowance `σ`, in cells.
    pub burst: u64,
}

impl LbContract {
    /// A contract at `num/den` cells per slot with `burst` slack.
    pub fn new(num: u64, den: u64, burst: u64) -> Self {
        LbContract {
            rate: Ratio::new(num, den),
            burst,
        }
    }

    /// Does every output of `trace` stay within this contract?
    pub fn admits(&self, trace: &Trace, n: usize) -> bool {
        let mut buckets = vec![Bucket::default(); n];
        trace
            .arrivals()
            .all(|a| buckets[a.output.idx()].offer(a.slot, self))
    }
}

/// One output's virtual queue, in `1/den` cells of its contract's rate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bucket {
    level: u64,
    last: Slot,
}

impl Bucket {
    /// Drain the bucket by `num` per slot since the last offer, then pour
    /// in one cell (`den`) arriving at `slot` if the level stays within
    /// `burst·den + num`. Returns whether the cell went in; a refused cell
    /// leaves the level drained but unfilled. Slots must not decrease.
    pub fn offer(&mut self, slot: Slot, contract: &LbContract) -> bool {
        let (num, den) = (contract.rate.num(), contract.rate.den());
        let cap = contract.burst.saturating_mul(den).saturating_add(num);
        self.level = self
            .level
            .saturating_sub((slot - self.last).saturating_mul(num));
        self.last = slot;
        let fits = self.level + den <= cap;
        if fits {
            self.level += den;
        }
        fits
    }
}

/// The exact minimal burstiness `B` of `trace`: the smallest `B` such
/// that the trace is `(R, B)` leaky-bucket (0 for a burst-free trace, the
/// premise of Theorems 6, 8 and 13).
///
/// ```
/// use pps_core::prelude::*;
/// use pps_traffic::min_burstiness;
///
/// // Three same-slot cells for output 0: a 1-slot window carries 3 cells,
/// // so the minimal burstiness is 2.
/// let t = Trace::build(
///     (0..3).map(|i| Arrival::new(0, i, 0)).collect(),
///     3,
/// ).unwrap();
/// assert_eq!(min_burstiness(&t, 3), 2);
/// ```
pub fn min_burstiness(trace: &Trace, n: usize) -> u64 {
    let mut scan = IncrementalBurstiness::new(n);
    for (slot, group) in trace.by_slot() {
        scan.observe_slot(slot, group);
    }
    scan.overall()
}

/// Incremental minimal-burstiness calculator.
///
/// Feed a trace one slot group at a time (increasing slots; empty slots
/// may be skipped, the buckets drain lazily) and read the minimal `B` of
/// the prefix observed so far at any point. The maximum level only ever
/// grows along a prefix, so one pass over the longest trace yields the
/// exact burstiness of *every* prefix: e9's duration sweep reads its
/// per-duration checkpoints from a single scan instead of re-running
/// [`min_burstiness`] per duration (quadratic over sweep points).
#[derive(Clone, Debug)]
pub struct IncrementalBurstiness {
    buckets: Vec<Bucket>,
    max_level: u64,
}

impl IncrementalBurstiness {
    /// A calculator for an `n`-port switch that has observed nothing yet.
    pub fn new(n: usize) -> Self {
        IncrementalBurstiness {
            buckets: vec![Bucket::default(); n],
            max_level: 0,
        }
    }

    /// Observe one slot's arrival group, at rate 1/1 with no cap.
    pub fn observe_slot(&mut self, slot: Slot, group: impl IntoIterator<Item = Arrival>) {
        let uncapped = LbContract::new(1, 1, u64::MAX);
        for a in group {
            let bucket = &mut self.buckets[a.output.idx()];
            bucket.offer(slot, &uncapped);
            self.max_level = self.max_level.max(bucket.level);
        }
    }

    /// Minimal `B` of the prefix observed so far: the highest level less
    /// the arrival slot's one-cell credit.
    pub fn overall(&self) -> u64 {
        self.max_level.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::rng::SplitMix64;

    fn trace(v: Vec<Arrival>, n: usize) -> Trace {
        Trace::build(v, n).unwrap()
    }

    /// A 40-slot trace on `n` ports: each `(slot, input)` fires with a
    /// per-trace probability, destinations skewed toward low outputs so
    /// fan-in bursts and gaps both occur.
    fn random_trace(rng: &mut SplitMix64, n: usize, slots: Slot) -> Trace {
        let p = rng.next_f64();
        let mut v = Vec::new();
        for slot in 0..slots {
            for input in 0..n as u32 {
                if rng.chance(p) {
                    let hot = rng.below(n as u64);
                    v.push(Arrival::new(slot, input, rng.below(hot + 1) as u32));
                }
            }
        }
        trace(v, n)
    }

    #[test]
    fn min_burstiness_is_definition_3() {
        // The brute-force reading of Definition 3: the largest excess
        // B_j(t, t+τ) − τ over every output and every window, clamped at 0.
        let slots = 40;
        let mut rng = SplitMix64::new(0xDEF3);
        let mut bursty = 0;
        for case in 0..360 {
            let n = 1 + case % 6;
            let t = random_trace(&mut rng, n, slots);
            let mut per_slot = vec![vec![0i64; slots as usize]; n];
            for a in t.arrivals() {
                per_slot[a.output.idx()][a.slot as usize] += 1;
            }
            let mut want = 0i64;
            for counts in &per_slot {
                for start in 0..counts.len() {
                    let mut cells = 0;
                    for (tau, c) in counts[start..].iter().enumerate() {
                        cells += c;
                        want = want.max(cells - (tau as i64 + 1));
                    }
                }
            }
            let b = min_burstiness(&t, n);
            assert_eq!(b as i64, want, "case {case} (N = {n})");
            bursty += usize::from(b > 0);
            for probe in 0..=b + 1 {
                assert_eq!(
                    LbContract::new(1, 1, probe).admits(&t, n),
                    probe >= b,
                    "case {case}: B = {probe} vs B_min = {b}"
                );
            }
        }
        assert!((30..330).contains(&bursty), "{bursty} of 360 traces bursty");
    }

    #[test]
    fn one_cell_per_slot_is_burst_free() {
        let t = trace(
            (0..10)
                .map(|s| Arrival::new(s, (s % 3) as u32, 0))
                .collect(),
            3,
        );
        assert_eq!(min_burstiness(&t, 3), 0);
    }

    #[test]
    fn same_slot_fanin_counts_as_burst() {
        // 3 cells for output 0 in one slot: window τ=1 carries 3 ≤ 1 + B
        // => B = 2.
        let t = trace(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
                Arrival::new(0, 2, 0),
            ],
            3,
        );
        assert_eq!(min_burstiness(&t, 3), 2);
        assert!(LbContract::new(1, 1, 2).admits(&t, 3));
        assert!(!LbContract::new(1, 1, 1).admits(&t, 3));
    }

    #[test]
    fn sustained_overload_burstiness_grows_linearly() {
        // Two cells per slot to output 0 for T slots: A(0,T) = 2T <= T + B
        // => B >= T.
        for t_len in [5u64, 20, 80] {
            let mut v = Vec::new();
            for s in 0..t_len {
                v.push(Arrival::new(s, 0, 0));
                v.push(Arrival::new(s, 1, 0));
            }
            assert_eq!(min_burstiness(&trace(v, 2), 2), t_len, "duration {t_len}");
        }
    }

    #[test]
    fn gaps_replenish_the_bucket() {
        // Burst of 2-in-one-slot, then a long gap, then again: the gap
        // resets the excess, so B stays 1.
        let t = trace(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
                Arrival::new(50, 0, 0),
                Arrival::new(50, 1, 0),
            ],
            2,
        );
        assert_eq!(min_burstiness(&t, 2), 1);
    }

    #[test]
    fn inputs_never_exceed_zero() {
        // An input busy every slot adds no burstiness: the per-input
        // constraint is structural, only outputs are tracked.
        let t = trace(
            (0..20)
                .map(|s| Arrival::new(s, 0, (s % 2) as u32))
                .collect(),
            2,
        );
        assert_eq!(min_burstiness(&t, 2), 0);
    }

    #[test]
    fn contract_admits_exact_boundary() {
        // rate 1/2, burst 1: one cell per slot-0 window is fine
        // (A = 1 ≤ ρ·1 + σ = 1.5); two same-slot cells exceed it
        // (A = 2 > 1.5); the same two cells two slots apart conform.
        let c = LbContract::new(1, 2, 1);
        assert!(c.admits(&trace(vec![Arrival::new(0, 0, 0)], 2), 2));
        let burst = trace(vec![Arrival::new(0, 0, 0), Arrival::new(0, 1, 0)], 2);
        assert!(!c.admits(&burst, 2));
        let spaced = trace(vec![Arrival::new(0, 0, 0), Arrival::new(2, 1, 0)], 2);
        assert!(c.admits(&spaced, 2));
    }

    #[test]
    fn incremental_matches_one_shot_at_every_prefix() {
        // At every slot boundary the incremental value must equal a
        // one-shot scan of exactly the arrivals observed so far.
        let n = 4;
        let mut rng = SplitMix64::new(0x2545_f491_4f6c_dd1d);
        let mut arrivals = Vec::new();
        for slot in 0..60u64 {
            for input in 0..n as u32 {
                if rng.chance(0.75) {
                    arrivals.push(Arrival::new(slot, input, rng.below(n as u64) as u32));
                }
            }
        }
        let t = trace(arrivals, n);
        let mut inc = IncrementalBurstiness::new(n);
        let mut seen: Vec<Arrival> = Vec::new();
        for (slot, group) in t.by_slot() {
            seen.extend(group.clone());
            inc.observe_slot(slot, group);
            let one_shot = min_burstiness(&trace(seen.clone(), n), n);
            assert_eq!(inc.overall(), one_shot, "prefix through slot {slot}");
        }
        assert_eq!(inc.overall(), min_burstiness(&t, n));
        assert!(inc.overall() > 0, "the trace must carry a burst");
    }

    #[test]
    fn incremental_on_empty_prefix_is_zero() {
        assert_eq!(IncrementalBurstiness::new(3).overall(), 0);
    }
}
