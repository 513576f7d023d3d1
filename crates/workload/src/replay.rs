//! Trace replay as an [`ArrivalStream`].
//!
//! Replays a recorded [`Trace`] (typically loaded from the CSV format of
//! `pps_core::trace_io`, as written by `ppslab run --save-trace`) through the
//! same streaming interface the stochastic generators use, so captured or
//! externally produced workloads run through exactly the same
//! materialize → lockstep → distribution pipeline. `next_activity` reads
//! the cursor's next arrival, so replaying a sparse capture skips its
//! silences like any other stream.

use crate::stream::ArrivalStream;
use pps_core::prelude::*;

/// Replays the arrivals of a recorded trace, optionally tiled end-to-end
/// `repeat` times (each repetition shifted past the previous horizon). It
/// reads the trace's own table through a cursor; nothing is copied.
pub(crate) struct ReplayStream {
    n: usize,
    trace: Trace,
    /// Slots per repetition: the trace's horizon + 1.
    period: Slot,
    repeat: u64,
    /// The next arrival to emit: the `pos`-th cell of repetition `tile`.
    tile: u64,
    pos: usize,
}

impl ReplayStream {
    /// Replay `trace` tiled `repeat` times: repetition `k` is shifted by
    /// `k · (horizon + 1)` so repetitions never collide on `(slot, input)`.
    pub(crate) fn repeated(trace: &Trace, n: usize, repeat: u64) -> Self {
        ReplayStream {
            n,
            trace: trace.clone(),
            period: trace.horizon() + 1,
            repeat,
            tile: 0,
            pos: 0,
        }
    }

    /// The next arrival to emit, shifted into its repetition.
    fn peek(&self) -> Option<Arrival> {
        (self.tile < self.repeat && self.pos < self.trace.len()).then(|| {
            let a = self.trace.arrival(self.pos);
            Arrival {
                slot: a.slot + self.tile * self.period,
                ..a
            }
        })
    }
}

impl ArrivalStream for ReplayStream {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_activity(&self, from: Slot) -> Option<Slot> {
        self.peek().map(|a| a.slot.max(from))
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        while let Some(a) = self.peek().filter(|a| a.slot == slot) {
            out.push(a);
            self.pos += 1;
            if self.pos == self.trace.len() {
                (self.tile, self.pos) = (self.tile + 1, 0);
            }
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
        assert!(out.arrivals().any(|a| a.slot == 101));
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
