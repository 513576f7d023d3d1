//! The [`ArrivalStream`] abstraction and the skip-ahead materializer.
//!
//! A stream is a *lazy* arrival process: it always knows a slot before
//! which nothing will be emitted ([`ArrivalStream::next_activity`])
//! because every generator pre-draws its next event (geometric gap
//! inversion instead of per-slot coin flips). Generation therefore costs `O(cells + state
//! transitions)` however long the horizon — the same event-driven contract
//! the engines' skip-ahead stepping lives by (DESIGN.md §10), which is what
//! lets a 10⁸-slot sparse soak materialize and simulate in seconds.
//!
//! Determinism contract: a stream is a pure function of its parameters and
//! seed. [`materialize`] produces the identical [`Trace`] whether the
//! stream is walked densely (every slot) or by jumping between
//! `next_activity` slots — pinned by the property suite — and the trace
//! feeds both the PPS under test and the shadow OQ switch, so sweeps stay
//! byte-identical at any `--jobs`.

use pps_core::prelude::*;
use pps_core::trace::TraceBuilder;

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
}
