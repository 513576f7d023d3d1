//! Trace replay as an [`ArrivalStream`].
//!
//! Replays a recorded [`Trace`] (typically loaded from the CSV format of
//! `pps_core::trace_io`, as written by `ppslab --trace-out`) through the
//! same streaming interface the stochastic generators use, so captured or
//! externally produced workloads run through exactly the same
//! materialize → lockstep → distribution pipeline. `next_activity` is an
//! O(log cells) cursor lookup, so replaying a sparse capture skips its
//! silences like any other stream.

use crate::stream::ArrivalStream;
use pps_core::prelude::*;

/// Replays the arrivals of a recorded trace, optionally tiled end-to-end
/// `repeat` times (each repetition shifted past the previous horizon).
pub(crate) struct ReplayStream {
    n: usize,
    arrivals: Vec<Arrival>,
    cursor: usize,
}

impl ReplayStream {
    /// Replay `trace` tiled `repeat` times: repetition `k` is shifted by
    /// `k · (horizon + 1)` so repetitions never collide on `(slot, input)`.
    pub(crate) fn repeated(trace: &Trace, n: usize, repeat: u64) -> Self {
        let period = trace.horizon() + 1;
        let mut arrivals = Vec::with_capacity(trace.len() * repeat as usize);
        for k in 0..repeat {
            let base = k * period;
            arrivals.extend(trace.arrivals().iter().map(|a| Arrival {
                slot: a.slot + base,
                ..*a
            }));
        }
        ReplayStream {
            n,
            arrivals,
            cursor: 0,
        }
    }
}

impl ArrivalStream for ReplayStream {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_activity(&self, from: Slot) -> Option<Slot> {
        let rest = &self.arrivals[self.cursor..];
        let i = rest.partition_point(|a| a.slot < from);
        rest.get(i).map(|a| a.slot)
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        while self.cursor < self.arrivals.len() && self.arrivals[self.cursor].slot == slot {
            out.push(self.arrivals[self.cursor]);
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, materialize_dense};

    fn sample() -> Trace {
        Trace::build(
            vec![
                Arrival::new(0, 0, 1),
                Arrival::new(0, 1, 1),
                Arrival::new(7, 0, 0),
                Arrival::new(100, 1, 0),
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn replay_round_trips_the_trace() {
        let t = sample();
        let out = materialize(&mut ReplayStream::repeated(&t, 2, 1), t.horizon() + 1);
        assert_eq!(out, t);
    }

    #[test]
    fn skip_and_dense_walks_agree() {
        let t = sample();
        let a = materialize(&mut ReplayStream::repeated(&t, 2, 1), 50);
        let b = materialize_dense(&mut ReplayStream::repeated(&t, 2, 1), 50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3, "horizon 50 truncates the slot-100 cell");
    }

    #[test]
    fn repeat_tiles_without_collisions() {
        let t = sample();
        let out = materialize(&mut ReplayStream::repeated(&t, 2, 3), 10_000);
        assert_eq!(out.len(), 3 * t.len());
        // Second repetition starts at horizon+1 = 101.
        assert!(out.arrivals().iter().any(|a| a.slot == 101));
    }

    #[test]
    fn csv_round_trip_feeds_replay() {
        let t = sample();
        let mut buf = Vec::new();
        pps_core::trace_io::write_csv(&t, &mut buf).unwrap();
        let back = pps_core::trace_io::read_csv(&buf[..], 2).unwrap();
        let out = materialize(&mut ReplayStream::repeated(&back, 2, 1), 200);
        assert_eq!(out, t);
    }
}
