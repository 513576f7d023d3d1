//! Aggregate metrics derived from the event stream.
//!
//! Everything here is a pure fold over recorded [`Event`]s — the engines
//! pay only for emitting events; occupancy reconstruction, delay pairing
//! and histogramming happen offline in whatever process consumes the
//! [`pps_core::telemetry::EventLog`].

use pps_core::telemetry::{Engine, Event, EventKind};
use pps_core::Slot;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Fixed-bucket base-2 logarithmic histogram of slot-valued samples.
///
/// Bucket `i` holds samples whose value has `i` significant bits:
/// bucket 0 is exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`,
/// bucket `i` is `2^(i-1) ..= 2^i - 1`. 65 buckets cover all of `u64`
/// with no saturation, so recording is a branch-free `leading_zeros`
/// and an increment — cheap enough for per-cell use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Bucket index of `value`: its number of significant bits.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive value range of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ => (1u64 << (i - 1), (1u64 << (i - 1)) + ((1u64 << (i - 1)) - 1)),
        }
    }

    /// Record one sample.
    #[inline]
    fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample.
    fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge of the bucket containing quantile `q` (0 ≤ q ≤ 1) — a
    /// conservative (rounded-up) quantile estimate at log2 resolution.
    fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_range(i).1;
            }
        }
        self.max
    }
}

/// A step function over slots: occupancy transitions `(slot, level)`,
/// recorded only when the level changes. Reconstructed per plane and per
/// output from enqueue/deliver/depart event pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct OccupancySeries {
    /// `(slot, occupancy-after-slot)` at each change, in slot order.
    pub steps: Vec<(Slot, u64)>,
    /// Highest level ever reached.
    pub peak: u64,
}

impl OccupancySeries {
    fn apply(&mut self, slot: Slot, delta: i64, live: &mut i64) {
        *live += delta;
        let level = (*live).max(0) as u64;
        self.peak = self.peak.max(level);
        match self.steps.last_mut() {
            Some((s, l)) if *s == slot => *l = level,
            _ => self.steps.push((slot, level)),
        }
    }
}

/// Everything the metrics layer derives from one engine's events.
#[derive(Clone, Debug, Default)]
pub(crate) struct MetricsReport {
    /// The engine these metrics describe.
    pub engine: Option<Engine>,
    /// Per-plane queue occupancy over time (PPS only), indexed by plane.
    pub plane_occupancy: Vec<OccupancySeries>,
    /// Per-output resequencer/queue occupancy over time, indexed by output.
    pub output_occupancy: Vec<OccupancySeries>,
    /// Relative delay (depart slot − arrival slot) per delivered cell.
    pub relative_delay: Log2Histogram,
    /// Jitter: |delay − previous delay| over consecutive departures of the
    /// same output.
    pub jitter: Log2Histogram,
    /// Cells that arrived but never departed within the recorded window.
    pub undelivered: u64,
    /// Cells held at least one slot by a resequencer.
    pub held_cells: u64,
    /// Cells lost to watchdog action.
    pub watchdog_losses: u64,
}

impl MetricsReport {
    /// Fold `events` (one engine's slice of a log) into a report.
    fn from_events(events: &[Event]) -> MetricsReport {
        let mut r = MetricsReport::default();
        let mut plane_live: Vec<i64> = Vec::new();
        let mut output_live: Vec<i64> = Vec::new();
        let mut arrival_slot: HashMap<u64, Slot> = HashMap::new();
        let mut last_delay: HashMap<u32, u64> = HashMap::new();
        for ev in events {
            r.engine.get_or_insert(ev.engine);
            match ev.kind {
                EventKind::Arrival { cell, .. } => {
                    arrival_slot.insert(cell.0, ev.slot);
                }
                EventKind::PlaneEnqueue { plane, .. } => {
                    let p = plane.idx();
                    if r.plane_occupancy.len() <= p {
                        r.plane_occupancy.resize_with(p + 1, Default::default);
                        plane_live.resize(p + 1, 0);
                    }
                    r.plane_occupancy[p].apply(ev.slot, 1, &mut plane_live[p]);
                }
                EventKind::PlaneDeliver { plane, output, .. } => {
                    let p = plane.idx();
                    if r.plane_occupancy.len() <= p {
                        r.plane_occupancy.resize_with(p + 1, Default::default);
                        plane_live.resize(p + 1, 0);
                    }
                    r.plane_occupancy[p].apply(ev.slot, -1, &mut plane_live[p]);
                    let o = output.idx();
                    if r.output_occupancy.len() <= o {
                        r.output_occupancy.resize_with(o + 1, Default::default);
                        output_live.resize(o + 1, 0);
                    }
                    r.output_occupancy[o].apply(ev.slot, 1, &mut output_live[o]);
                }
                EventKind::ReseqHold { .. } => {
                    r.held_cells += 1;
                }
                EventKind::ReseqRelease { .. } => {}
                EventKind::Depart { cell, output } => {
                    let o = output.idx();
                    if o < r.output_occupancy.len() {
                        r.output_occupancy[o].apply(ev.slot, -1, &mut output_live[o]);
                    }
                    if let Some(arr) = arrival_slot.remove(&cell.0) {
                        let delay = ev.slot.saturating_sub(arr);
                        r.relative_delay.record(delay);
                        if let Some(prev) = last_delay.insert(output.0, delay) {
                            r.jitter.record(delay.abs_diff(prev));
                        }
                    }
                }
                EventKind::DemuxDecision { .. } | EventKind::FaultApplied { .. } => {}
                EventKind::WatchdogDrop { cells, .. } => {
                    r.watchdog_losses += u64::from(cells);
                }
            }
        }
        r.undelivered = arrival_slot.len() as u64;
        r
    }

    /// Split `events` by engine and fold each slice — lockstep logs carry
    /// several engines' streams interleaved in slot order.
    pub(crate) fn per_engine(events: &[Event]) -> Vec<MetricsReport> {
        let mut by_engine: Vec<(Engine, Vec<Event>)> = Vec::new();
        for ev in events {
            match by_engine.iter_mut().find(|(e, _)| *e == ev.engine) {
                Some((_, v)) => v.push(*ev),
                None => by_engine.push((ev.engine, vec![*ev])),
            }
        }
        by_engine
            .iter()
            .map(|(_, evs)| MetricsReport::from_events(evs))
            .collect()
    }

    /// Human-readable one-engine summary (for stderr reporting).
    pub(crate) fn render(&self) -> String {
        let mut s = String::new();
        let name = self.engine.map_or("(no events)", Engine::name);
        let _ = writeln!(s, "engine {name}:");
        let _ = writeln!(
            s,
            "  delay: n={} mean={:.2} p50<={} p99<={} max={}",
            self.relative_delay.count(),
            self.relative_delay.mean(),
            self.relative_delay.quantile_upper(0.50),
            self.relative_delay.quantile_upper(0.99),
            self.relative_delay.max(),
        );
        let _ = writeln!(
            s,
            "  jitter: n={} mean={:.2} max={}",
            self.jitter.count(),
            self.jitter.mean(),
            self.jitter.max(),
        );
        let plane_peak = self
            .plane_occupancy
            .iter()
            .map(|o| o.peak)
            .max()
            .unwrap_or(0);
        let output_peak = self
            .output_occupancy
            .iter()
            .map(|o| o.peak)
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            s,
            "  occupancy: planes={} (peak {plane_peak})  outputs={} (peak {output_peak})",
            self.plane_occupancy.len(),
            self.output_occupancy.len(),
        );
        let _ = writeln!(
            s,
            "  held={} watchdog_losses={} undelivered={}",
            self.held_cells, self.watchdog_losses, self.undelivered,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::{CellId, PlaneId, PortId};

    #[test]
    fn log2_buckets_partition_u64() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for i in 0..65 {
            let (lo, hi) = Log2Histogram::bucket_range(i);
            assert_eq!(Log2Histogram::bucket_of(lo), i);
            assert_eq!(Log2Histogram::bucket_of(hi), i);
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Log2Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile_upper(1.0), 127, "p100 rounds up to bucket edge");
        assert_eq!(h.quantile_upper(0.0), 0);
    }

    #[test]
    fn occupancy_reconstructs_levels() {
        let mk = |slot, kind| Event {
            slot,
            engine: Engine::Pps,
            kind,
        };
        let events = [
            mk(
                0,
                EventKind::PlaneEnqueue {
                    cell: CellId(0),
                    plane: PlaneId(0),
                    output: PortId(0),
                },
            ),
            mk(
                0,
                EventKind::PlaneEnqueue {
                    cell: CellId(1),
                    plane: PlaneId(0),
                    output: PortId(0),
                },
            ),
            mk(
                4,
                EventKind::PlaneDeliver {
                    cell: CellId(0),
                    plane: PlaneId(0),
                    output: PortId(0),
                },
            ),
        ];
        let r = MetricsReport::from_events(&events);
        let occ = &r.plane_occupancy[0];
        assert_eq!(occ.peak, 2);
        assert_eq!(occ.steps, [(0, 2), (4, 1)]);
        assert_eq!(r.output_occupancy[0].steps, [(4, 1)]);
    }

    #[test]
    fn delay_and_jitter_pair_arrivals_with_departures() {
        let mk = |slot, kind| Event {
            slot,
            engine: Engine::Pps,
            kind,
        };
        let events = [
            mk(
                0,
                EventKind::Arrival {
                    cell: CellId(0),
                    input: PortId(0),
                    output: PortId(0),
                },
            ),
            mk(
                1,
                EventKind::Arrival {
                    cell: CellId(1),
                    input: PortId(1),
                    output: PortId(0),
                },
            ),
            mk(
                4,
                EventKind::Depart {
                    cell: CellId(0),
                    output: PortId(0),
                },
            ),
            mk(
                9,
                EventKind::Depart {
                    cell: CellId(1),
                    output: PortId(0),
                },
            ),
        ];
        let r = MetricsReport::from_events(&events);
        assert_eq!(r.relative_delay.count(), 2); // delays 4 and 8
        assert_eq!(r.relative_delay.max(), 8);
        assert_eq!(r.jitter.count(), 1); // |8 - 4|
        assert_eq!(r.jitter.max(), 4);
        assert_eq!(r.undelivered, 0);
    }
}
