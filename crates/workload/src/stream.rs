//! The [`ArrivalStream`] abstraction and the skip-ahead materializer.
//!
//! A stream is a *lazy* arrival process: it always knows a slot before
//! which nothing will be emitted ([`ArrivalStream::next_activity`])
//! because every generator pre-draws its next event (geometric gap
//! inversion instead of per-slot coin flips). Generation therefore costs `O(cells + state
//! transitions)` however long the horizon — the same event-driven contract
//! the engines' skip-ahead stepping lives by (DESIGN.md §15), which is what
//! lets a 10⁸-slot sparse soak materialize and simulate in seconds.
//!
//! Determinism contract: a stream is a pure function of its parameters and
//! seed. [`materialize`] produces the identical [`Trace`] whether the
//! stream is walked densely (every slot) or by jumping between
//! `next_activity` slots — pinned by the property suite — and the trace
//! feeds both the PPS under test and the shadow OQ switch, so sweeps stay
//! byte-identical at any `--jobs`.

use pps_core::prelude::*;
use pps_core::rate::Ratio;
use pps_core::trace::TraceBuilder;

/// A leaky-bucket contract a stream claims for its emissions: for every
/// output `j` and every window of `τ` slots, the cells destined to `j`
/// number at most `rate·τ + burst` (Cruz `(σ, ρ)` with `σ = burst`,
/// `ρ = rate`; the paper's Definition 3 is the `rate = 1` case). Checked
/// exactly — in integer arithmetic over [`Ratio`] — by the shaper that
/// enforces it and by the admissibility property suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LbContract {
    /// Sustained per-output rate `ρ ≤ 1`, kept exact.
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

    /// Verify `trace` against this contract with the virtual-queue
    /// recurrence `q(t) = max(0, q(t−1) − num·Δt) + den·a(t)`: the trace
    /// conforms iff `q` never exceeds `burst·den + num` on any output
    /// (the `+num` is the arrival slot's own rate credit — the same
    /// convention as `pps_traffic::min_burstiness`, whose per-slot
    /// recurrence is `q(t) = max(0, q(t−1) + a(t) − 1)`, so for `rate = 1`
    /// the two agree exactly). This is the window condition
    /// `A_j(t, t+τ] ≤ ρ·τ + σ` in integer arithmetic — no float fuzz, as
    /// [`pps_core::rate`] demands of admissibility predicates.
    pub fn admits(&self, trace: &Trace, n: usize) -> bool {
        let (num, den) = (self.rate.num(), self.rate.den());
        let cap = self.burst.saturating_mul(den).saturating_add(num);
        let mut q = vec![0u64; n];
        let mut last = vec![0 as Slot; n];
        for (slot, group) in trace.by_slot() {
            for a in group {
                let j = a.output.idx();
                let decay = (slot - last[j]).saturating_mul(num);
                q[j] = q[j].saturating_sub(decay) + den;
                last[j] = slot;
                if q[j] > cap {
                    return false;
                }
            }
        }
        true
    }
}

/// A deterministic, seeded arrival process that can be materialized into a
/// validated [`Trace`] in time proportional to the cells it emits.
pub trait ArrivalStream {
    /// Ports of the switch this stream feeds (`N`).
    fn ports(&self) -> usize;

    /// A slot `≥ from` such that no slot in `[from, slot)` emits anything,
    /// or `None` when the stream is exhausted. Usually this is the exact
    /// slot of the next emission; a stream that post-filters another (the
    /// leaky-bucket shaper) may conservatively report a candidate slot
    /// whose cells all get dropped — `emit` there is then empty and the
    /// materializer simply asks again. What it must never do is skip past
    /// a real emission: that is what the dense-walk equivalence property
    /// pins.
    fn next_activity(&self, from: Slot) -> Option<Slot>;

    /// Append every arrival of exactly `slot` to `out` (sorted by input)
    /// and advance the internal cursors past `slot`. Calling `emit` on a
    /// slot before `next_activity(from)` is a no-op; slots must be
    /// visited in non-decreasing order.
    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>);

    /// The leaky-bucket contract this stream *guarantees* per output, if
    /// it shapes its emissions. `None` means only the structural per-input
    /// limit (one cell per slot per input) is promised.
    fn contract(&self) -> Option<LbContract> {
        None
    }
}

/// Materialize `horizon` slots of `stream` into a validated [`Trace`],
/// jumping between activity slots — `O(cells)` for any horizon.
///
/// Each slot's arrivals go straight into the trace's table: the whole
/// trace is never staged as a vector of arrivals.
///
/// # Panics
/// Panics, with the error [`Trace::build`] would give, if the stream
/// breaks its contract: two cells on one `(slot, input)`, a port outside
/// `0..ports()`, or a slot emitted after a later one.
pub fn materialize<S: ArrivalStream + ?Sized>(stream: &mut S, horizon: Slot) -> Trace {
    let mut now = 0;
    append_slots(stream, |s| {
        let next = s.next_activity(now).filter(|&next| next < horizon)?;
        now = next + 1;
        Some(next)
    })
}

/// Materialize `stream` by visiting *every* slot of the horizon — the
/// O(horizon) reference walk. Exists for the equivalence property: for any
/// stream, [`materialize`] and `materialize_dense` must produce identical
/// traces (a generator whose `next_activity` lies would diverge here).
pub fn materialize_dense<S: ArrivalStream + ?Sized>(stream: &mut S, horizon: Slot) -> Trace {
    let mut slots = 0..horizon;
    append_slots(stream, |_| slots.next())
}

/// Emit each slot `next` yields and append its arrivals to a trace.
fn append_slots<S: ArrivalStream + ?Sized>(
    stream: &mut S,
    mut next: impl FnMut(&S) -> Option<Slot>,
) -> Trace {
    let mut trace = TraceBuilder::new(stream.ports());
    let mut arrivals = Vec::new();
    while let Some(slot) = next(stream) {
        stream.emit(slot, &mut arrivals);
        if let Err(e) = trace.append(&mut arrivals) {
            panic!("ArrivalStream broke its contract: {e}");
        }
        arrivals.clear();
    }
    trace.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal stream: one cell on input 0 every `period` slots.
    struct Pulse {
        period: Slot,
        next: Slot,
    }

    impl ArrivalStream for Pulse {
        fn ports(&self) -> usize {
            2
        }
        fn next_activity(&self, from: Slot) -> Option<Slot> {
            Some(self.next.max(from.div_ceil(self.period) * self.period))
        }
        fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
            if slot == self.next {
                out.push(Arrival::new(slot, 0, 1));
                self.next += self.period;
            }
        }
    }

    #[test]
    fn skip_and_dense_materialization_agree() {
        let a = materialize(&mut Pulse { period: 7, next: 0 }, 100);
        let b = materialize_dense(&mut Pulse { period: 7, next: 0 }, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 15); // slots 0, 7, …, 98
    }

    #[test]
    fn contract_admits_exact_boundary() {
        // rate 1/2, burst 1: one cell per slot-0 window is fine
        // (A = 1 ≤ ρ·1 + σ = 1.5); two same-slot cells exceed it
        // (A = 2 > 1.5); the same two cells two slots apart conform.
        let c = LbContract::new(1, 2, 1);
        let ok = Trace::build(vec![Arrival::new(0, 0, 0)], 2).unwrap();
        assert!(c.admits(&ok, 2));
        let burst = Trace::build(vec![Arrival::new(0, 0, 0), Arrival::new(0, 1, 0)], 2).unwrap();
        assert!(!c.admits(&burst, 2));
        let spaced = Trace::build(vec![Arrival::new(0, 0, 0), Arrival::new(2, 1, 0)], 2).unwrap();
        assert!(c.admits(&spaced, 2));
    }

    #[test]
    fn contract_rate_one_matches_min_burstiness() {
        // For R = 1 the recurrence is the paper's Definition 3; compare
        // with pps_traffic::min_burstiness on a bursty hand trace.
        let t = Trace::build(
            vec![
                Arrival::new(0, 0, 0),
                Arrival::new(0, 1, 0),
                Arrival::new(0, 2, 0),
                Arrival::new(5, 0, 0),
            ],
            3,
        )
        .unwrap();
        let b = pps_traffic::min_burstiness(&t, 3).overall();
        assert!(LbContract::new(1, 1, b).admits(&t, 3));
        assert!(!LbContract::new(1, 1, b - 1).admits(&t, 3));
    }
}
