//! Burst-modulated arrival processes: MMPP and per-input on-off sources.
//!
//! [`MmppGen`] is the discrete-time Markov-modulated Poisson process (here
//! Markov-modulated Bernoulli): one *global* two-state environment chain —
//! geometric dwell times — switches every input between a calm and a burst
//! per-slot arrival probability simultaneously. The shared modulator is
//! the point: bursts are *correlated across inputs*, the regime where
//! heavy-traffic queueing effects concentrate (Jhunjhunwala & Maguluri,
//! arXiv:2004.12271) and where a PPS's load-balancing assumptions are
//! stressed hardest.
//!
//! [`OnOffBurstGen`] is the classic independent on-off source per input:
//! geometric ON periods emitting every slot at full line rate toward one
//! per-burst destination, geometric OFF silences. Same-destination
//! full-rate ON trains are the stochastic cousin of the paper's
//! concentration adversary.
//!
//! Both pre-draw every event (dwell boundaries, arrival gaps) by geometric
//! inversion, so generation is `O(cells + state transitions)` and
//! `next_activity` lets the materializer jump over silence.

use crate::stream::ArrivalStream;
use pps_core::prelude::*;
use pps_core::rng::{Geometric, SplitMix64};

/// Parameters of one modulation state: per-slot arrival probability while
/// in the state, and per-slot probability of leaving it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Per-input, per-slot arrival probability in this state.
    pub arrival_p: f64,
    /// Per-slot exit probability (dwell is `1 + Geometric(exit_p)` slots).
    pub exit_p: f64,
}

/// Markov-modulated Bernoulli arrivals with a shared two-state environment.
pub struct MmppGen {
    n: usize,
    phases: [Phase; 2],
    /// Per phase: the dwell sampler (at `exit_p`) and the gap sampler (at
    /// `arrival_p`).
    samplers: [(Geometric, Geometric); 2],
    /// Environment chain: segment list `(start_slot, state)`, extended
    /// lazily; `seg_starts[k]` begins segment `k`.
    modulator: SplitMix64,
    seg_starts: Vec<Slot>,
    seg_states: Vec<u8>,
    /// Per-input draw streams and pre-computed next arrival slots.
    inputs: Vec<MmppInput>,
}

struct MmppInput {
    gaps: SplitMix64,
    dests: SplitMix64,
    next: Option<Slot>,
}

impl MmppGen {
    /// A generator over `n` inputs alternating `calm` and `burst` phases,
    /// starting calm at slot 0.
    pub fn new(seed: u64, n: usize, calm: Phase, burst: Phase) -> Self {
        for ph in [calm, burst] {
            assert!(
                (0.0..=1.0).contains(&ph.arrival_p),
                "arrival_p out of range"
            );
            assert!(
                ph.exit_p > 0.0 && ph.exit_p <= 1.0,
                "exit_p must be in (0, 1]"
            );
        }
        let master = SplitMix64::new(seed);
        let mut g = MmppGen {
            n,
            phases: [calm, burst],
            samplers: [calm, burst]
                .map(|ph| (Geometric::new(ph.exit_p), Geometric::new(ph.arrival_p))),
            modulator: master.derive(0x40D0),
            seg_starts: vec![0],
            seg_states: vec![0],
            inputs: (0..n)
                .map(|i| MmppInput {
                    gaps: master.derive(0x6A92).derive(i as u64),
                    dests: master.derive(0xDE57).derive(i as u64),
                    next: None,
                })
                .collect(),
        };
        for i in 0..n {
            let first = g.draw_next(i, 0);
            g.inputs[i].next = first;
        }
        g
    }

    /// Extend the environment segment list until it covers `slot`.
    fn cover(&mut self, slot: Slot) {
        while *self.seg_starts.last().unwrap() <= slot {
            let state = *self.seg_states.last().unwrap();
            let dwell = 1 + self.samplers[state as usize]
                .0
                .sample(&mut self.modulator)
                .min(Slot::MAX / 4);
            let start = self.seg_starts.last().unwrap().saturating_add(dwell);
            self.seg_starts.push(start);
            self.seg_states.push(1 - state);
        }
    }

    /// Index of the segment containing `slot` (must already be covered).
    fn seg_at(&self, slot: Slot) -> usize {
        self.seg_starts.partition_point(|&s| s <= slot) - 1
    }

    /// Next arrival slot `≥ from` for input `i`, consuming gap draws: walk
    /// segments, draw a geometric gap under the segment's rate, keep the
    /// candidate iff it lands inside the segment, else restart at the next
    /// boundary. The rejected draw *is* consumed — that is deterministic,
    /// since the segment layout is a pure function of the seed.
    fn draw_next(&mut self, i: usize, from: Slot) -> Option<Slot> {
        let mut cursor = from;
        // A zero-arrival phase with a long dwell can push the search far
        // out; bound the walk so a (mis)configured all-silent stream
        // terminates instead of spinning.
        for _ in 0..1_000_000 {
            self.cover(cursor);
            let seg = self.seg_at(cursor);
            let state = self.seg_states[seg] as usize;
            let seg_end = self.seg_starts.get(seg + 1).copied().unwrap_or(Slot::MAX);
            if self.phases[state].arrival_p <= 0.0 {
                cursor = seg_end;
                continue;
            }
            let gap = self.samplers[state].1.sample(&mut self.inputs[i].gaps);
            let cand = cursor.saturating_add(gap);
            if cand < seg_end {
                return Some(cand);
            }
            cursor = seg_end;
        }
        None
    }
}

impl ArrivalStream for MmppGen {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_activity(&self, from: Slot) -> Option<Slot> {
        self.inputs
            .iter()
            .filter_map(|st| st.next)
            .map(|s| s.max(from))
            .min()
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        for i in 0..self.n {
            if self.inputs[i].next != Some(slot) {
                continue;
            }
            let output = self.inputs[i].dests.below(self.n as u64) as u32;
            out.push(Arrival::new(slot, i as u32, output));
            self.inputs[i].next = self.draw_next(i, slot + 1);
        }
    }
}

/// Independent on-off sources: each input alternates geometric ON trains
/// (a cell every slot, all to one freshly drawn destination) and geometric
/// OFF silences.
pub struct OnOffBurstGen {
    n: usize,
    /// Train-length sampler at `off_p`, the per-slot probability an ON
    /// period ends (mean train `1/off_p`).
    train: Geometric,
    /// Silence sampler at `on_p`, the per-slot probability an OFF period
    /// ends (mean silence `1/on_p`).
    silence: Geometric,
    inputs: Vec<OnOffInput>,
}

struct OnOffInput {
    rng: SplitMix64,
    /// Current ON train: emits every slot in `[start, end)` toward `dest`.
    start: Slot,
    end: Slot,
    dest: u32,
}

impl OnOffBurstGen {
    /// A generator over `n` inputs; inputs begin OFF with staggered
    /// (seeded) first trains.
    pub fn new(seed: u64, n: usize, on_p: f64, off_p: f64) -> Self {
        assert!(on_p > 0.0 && on_p <= 1.0, "on_p must be in (0, 1]");
        assert!(off_p > 0.0 && off_p <= 1.0, "off_p must be in (0, 1]");
        let master = SplitMix64::new(seed);
        let (train, silence) = (Geometric::new(off_p), Geometric::new(on_p));
        let inputs = (0..n)
            .map(|i| {
                let mut input = OnOffInput {
                    rng: master.derive(0x0F0F).derive(i as u64),
                    start: 0,
                    end: 0,
                    dest: 0,
                };
                let first = silence.sample(&mut input.rng).min(Slot::MAX / 4);
                input.begin_train(first, &train, n);
                input
            })
            .collect();
        OnOffBurstGen {
            n,
            train,
            silence,
            inputs,
        }
    }
}

impl OnOffInput {
    /// Start a train at `start`: draw its destination and its length
    /// from `train`.
    fn begin_train(&mut self, start: Slot, train: &Geometric, n: usize) {
        self.start = start;
        self.dest = self.rng.below(n as u64) as u32;
        let len = 1 + train.sample(&mut self.rng).min(Slot::MAX / 4);
        self.end = start.saturating_add(len);
    }
}

impl ArrivalStream for OnOffBurstGen {
    fn ports(&self) -> usize {
        self.n
    }

    fn next_activity(&self, from: Slot) -> Option<Slot> {
        self.inputs.iter().map(|st| st.start.max(from)).min()
    }

    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        let (n, train, silence) = (self.n, &self.train, &self.silence);
        for (i, st) in self.inputs.iter_mut().enumerate() {
            if slot < st.start || slot >= st.end {
                continue;
            }
            out.push(Arrival::new(slot, i as u32, st.dest));
            if slot + 1 >= st.end {
                // Train over: draw the following silence and next train.
                let gap = silence.sample(&mut st.rng).min(Slot::MAX / 4);
                let next_start = st.end.saturating_add(gap);
                st.begin_train(next_start, train, n);
            } else {
                // Mid-train: emission resumes next slot; `start` tracks
                // the next emitting slot so `next_activity` stays exact.
                st.start = slot + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{materialize, materialize_dense};

    fn phases() -> (Phase, Phase) {
        (
            Phase {
                arrival_p: 0.02,
                exit_p: 0.01,
            },
            Phase {
                arrival_p: 0.9,
                exit_p: 0.05,
            },
        )
    }

    #[test]
    fn mmpp_skip_and_dense_walks_agree() {
        let (calm, burst) = phases();
        let a = materialize(&mut MmppGen::new(11, 4, calm, burst), 4_000);
        let b = materialize_dense(&mut MmppGen::new(11, 4, calm, burst), 4_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn mmpp_burst_phase_is_denser() {
        // Mean load must sit strictly between the two phase rates.
        let (calm, burst) = phases();
        let t = materialize(&mut MmppGen::new(3, 4, calm, burst), 50_000);
        let per_input_slot = t.len() as f64 / (4.0 * 50_000.0);
        assert!(
            per_input_slot > calm.arrival_p * 1.5 && per_input_slot < burst.arrival_p,
            "mean load {per_input_slot} outside ({}, {})",
            calm.arrival_p,
            burst.arrival_p
        );
    }

    #[test]
    fn onoff_skip_and_dense_walks_agree() {
        let a = materialize(&mut OnOffBurstGen::new(21, 4, 0.02, 0.2), 4_000);
        let b = materialize_dense(&mut OnOffBurstGen::new(21, 4, 0.02, 0.2), 4_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn onoff_trains_share_one_destination() {
        let t = materialize(&mut OnOffBurstGen::new(8, 2, 0.05, 0.1), 2_000);
        // Within any run of consecutive slots on one input, the output is
        // constant; count destination changes vs gaps on input 0.
        let cells: Vec<_> = t.arrivals().filter(|a| a.input.idx() == 0).collect();
        assert!(cells.len() > 10);
        for w in cells.windows(2) {
            if w[1].slot == w[0].slot + 1 {
                assert_eq!(w[0].output, w[1].output, "destination changed mid-train");
            }
        }
    }

    #[test]
    fn sparse_streams_jump_far() {
        // Nearly-always-off stream: next_activity from 0 lands at the
        // first train, which the materializer reaches without slot loops.
        let g = OnOffBurstGen::new(5, 2, 0.0005, 0.5);
        let first = g.next_activity(0).unwrap();
        let t = materialize(&mut OnOffBurstGen::new(5, 2, 0.0005, 0.5), first + 10);
        assert!(t.arrivals().any(|a| a.slot == first));
    }
}
