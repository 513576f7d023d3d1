//! The crossbar scheduler zoo: one trait, three matching disciplines.
//!
//! [`CrossbarScheduler`] abstracts the per-slot matching computation of
//! the VOQ crossbar so the switch fabric ([`crate::switch::CrossbarSwitch`])
//! can host any arbiter:
//!
//! * [`crate::islip::IslipArbiter`] — iterative round-robin request–grant–
//!   accept (McKeown), the original occupant;
//! * [`QpsRScheduler`] — QPS-r (Gong, Xu, Liu & Maguluri, arXiv
//!   1905.05392): each input makes one *queue-proportional-sampling*
//!   proposal per round (output `j` drawn with probability
//!   `len(i,j) / Σ_j len(i,j)`), each output accepts the proposer with the
//!   longest VOQ, repeated for `r` rounds. With `r = 1` the time
//!   complexity per port is O(1) draws; the paper proves QPS-r matches the
//!   stability region and delay-order guarantees of maximal matching.
//! * [`SwQpsScheduler`] — SW-QPS (Meng, Gong & Xu, arXiv 2010.08620):
//!   sliding-window batch switching. Each slot every backlogged input
//!   makes one QPS proposal; the output packs an accepted proposal into
//!   the *earliest* window slot where both ports are still unmatched
//!   (first-fit accept, longest-VOQ-first among competing proposals), and
//!   the matching leaving the window executes immediately — so unlike
//!   batch switching there is zero batch delay, while each matching
//!   enjoys `T` slots of opportunistic refinement before it runs.
//!
//! ## Determinism across stepping modes
//!
//! Every scheduler here must produce byte-identical runs under dense and
//! skip-ahead stepping. The skip-ahead contract elides only slots with no
//! arrivals and zero backlog, so the invariant each implementation upholds
//! is: **a `schedule` call with an all-empty VOQ matrix draws nothing and
//! mutates nothing**. The samplers only consume RNG draws for inputs with
//! at least one queued cell, and the window state of SW-QPS can only be
//! non-empty while some VOQ is non-empty (every reservation points at a
//! queued cell), so an idle slot is a pure no-op for all three.
//!
//! ## Wake formulas (`next_activity`)
//!
//! All three disciplines act on queued cells every slot and hold no timers:
//! with backlog the next activity is `now + 1`, without backlog there is
//! none. (SW-QPS's window needs no catch-up across a jump: an empty window
//! slides into an empty window.)

use crate::occupancy::{set_bit, words_for, Occupancy};
use pps_core::rng::SplitMix64;
use pps_core::Slot;

/// "No port" in the schedulers' `usize` scratch tables.
const NONE: usize = usize::MAX;

/// A per-slot matching discipline for an `N × N` VOQ crossbar.
///
/// Object-safe: the chaos harness draws the discipline at runtime and
/// drives the switch through a `Box<dyn CrossbarScheduler>`.
pub trait CrossbarScheduler: Send {
    /// Number of ports.
    fn n(&self) -> usize;

    /// Compute this slot's matching over the switch's occupancy index
    /// (as many ports as `self.n()`); the result is written into `out` (length
    /// `n`, pre-filled `None` by the caller) as `out[i] = Some(j)`. Every
    /// matched pair must name a non-empty VOQ, and no output may be
    /// matched twice.
    fn schedule(&mut self, now: Slot, occ: &Occupancy, out: &mut [Option<usize>]);

    /// The next slot strictly after `now` at which the scheduler must be
    /// stepped, given the fabric's total VOQ backlog. All current
    /// disciplines are backlog-driven: `now + 1` with backlog, quiescent
    /// without.
    fn next_activity(&self, now: Slot, backlog: usize) -> Option<Slot> {
        (backlog > 0).then(|| now + 1)
    }

    /// A fingerprint of all mutable scheduler state (pointers, RNG state,
    /// window reservations). The dense/skip equivalence proptests pin this
    /// across stepping modes — logs being equal does not prove the hidden
    /// state is, and diverged hidden state is a time bomb.
    fn state_digest(&self) -> u64;
}

impl<S: CrossbarScheduler + ?Sized> CrossbarScheduler for Box<S> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn schedule(&mut self, now: Slot, occ: &Occupancy, out: &mut [Option<usize>]) {
        (**self).schedule(now, occ, out)
    }

    fn next_activity(&self, now: Slot, backlog: usize) -> Option<Slot> {
        (**self).next_activity(now, backlog)
    }

    fn state_digest(&self) -> u64 {
        (**self).state_digest()
    }
}

// ---------------------------------------------------------------------------
// QPS-r
// ---------------------------------------------------------------------------

/// Queue-proportional sampling with `r` accept rounds (QPS-r).
#[derive(Clone, Debug)]
pub struct QpsRScheduler {
    n: usize,
    r: usize,
    rng: SplitMix64,
    /// Scratch: the proposer each output would accept this round
    /// ([`NONE`] = no proposal reached it).
    winner: Vec<usize>,
    /// Scratch: outputs matched in an earlier round of this slot.
    taken: Vec<bool>,
}

impl QpsRScheduler {
    /// A QPS-`r` scheduler for an `n × n` crossbar, drawing proposals from
    /// a seeded substream (`r = 1` is the O(1)-per-port headline variant).
    pub fn new(n: usize, r: usize, seed: u64) -> Self {
        QpsRScheduler {
            n,
            r: r.max(1),
            rng: SplitMix64::new(seed).derive(0x9B5),
            winner: vec![NONE; n],
            taken: vec![false; n],
        }
    }
}

impl CrossbarScheduler for QpsRScheduler {
    fn n(&self) -> usize {
        self.n
    }

    fn schedule(&mut self, _now: Slot, occ: &Occupancy, out: &mut [Option<usize>]) {
        if occ.is_empty() {
            return;
        }
        self.taken.fill(false);
        for _round in 0..self.r {
            // Proposal phase: every still-unmatched input with backlog
            // samples one output queue-proportionally (output `j` with
            // probability `len(i, j) / row_total(i)`, one draw). Inputs
            // with no queued cells draw nothing — the skip-ahead
            // invariant. Each output keeps the proposer with the longest
            // VOQ as the proposals come in (smallest input id on ties:
            // inputs propose in ascending order and only a strictly longer
            // VOQ displaces); proposals to already-matched outputs are
            // simply lost this round.
            let mut drew = false;
            for (i, matched) in out.iter().enumerate() {
                let total = occ.row_total(i) as u64;
                if matched.is_some() || total == 0 {
                    continue;
                }
                drew = true;
                let mut x = self.rng.below(total);
                for j in occ.row_outputs(i) {
                    let l = occ.len(i, j) as u64;
                    if x < l {
                        let held = self.winner[j];
                        if !self.taken[j] && (held == NONE || occ.len(i, j) > occ.len(held, j)) {
                            self.winner[j] = i;
                        }
                        break;
                    }
                    x -= l;
                }
            }
            if !drew {
                // Every backlogged input is matched: later rounds would
                // draw nothing either.
                break;
            }
            // Accept phase, one pass over the outputs.
            for (j, w) in self.winner.iter_mut().enumerate() {
                if *w != NONE {
                    out[*w] = Some(j);
                    self.taken[j] = true;
                    *w = NONE;
                }
            }
        }
    }

    fn state_digest(&self) -> u64 {
        SplitMix64::fold_digest(0x9B5, self.rng.state_fingerprint())
    }
}

// ---------------------------------------------------------------------------
// SW-QPS
// ---------------------------------------------------------------------------

/// Sliding-window QPS batch scheduler (SW-QPS).
///
/// The window of `T` partial matchings is a flat ring of `T × N` entries
/// plus, per port, a `T`-bit *busy* bitmap (`ceil(T / 64)` words, bit `w`
/// = reserved in the matching that executes `w` slots from now) — the
/// SW-QPS paper's own availability bitmaps. First fit is the lowest clear
/// bit of `in_busy[i] | out_busy[j]`; sliding the window is a one-bit
/// shift of every bitmap and a step of the ring head.
#[derive(Clone, Debug)]
pub struct SwQpsScheduler {
    n: usize,
    window: usize,
    /// Words per port bitmap.
    words: usize,
    rng: SplitMix64,
    /// `ring[((head + w) % window) * n + i] = j`: input `i` is reserved
    /// for output `j` in the matching `w` slots from now ([`NONE`] = free).
    ring: Vec<usize>,
    /// Ring row of the matching that executes this slot.
    head: usize,
    /// Input `i`'s busy bitmap at `i * words ..`.
    in_busy: Vec<u64>,
    /// Output `j`'s busy bitmap at `j * words ..`.
    out_busy: Vec<u64>,
    /// Reservations for VOQ `(i, j)` parked in the window, at `i * n + j`.
    reserved: Vec<usize>,
    /// Reservations parked in the whole window.
    pending: usize,
    /// Scratch: this slot's proposals as `(len, i, j)`.
    proposals: Vec<(usize, usize, usize)>,
}

impl SwQpsScheduler {
    /// An SW-QPS scheduler with a `window`-slot sliding window over an
    /// `n × n` crossbar, drawing proposals from a seeded substream.
    pub fn new(n: usize, window: usize, seed: u64) -> Self {
        let window = window.max(1);
        let words = words_for(window);
        SwQpsScheduler {
            n,
            window,
            words,
            rng: SplitMix64::new(seed).derive(0x5109),
            ring: vec![NONE; window * n],
            head: 0,
            in_busy: vec![0; n * words],
            out_busy: vec![0; n * words],
            reserved: vec![0; n * n],
            pending: 0,
            proposals: Vec::with_capacity(n),
        }
    }

    /// Cells of VOQ `(i, j)` not yet reserved in the window.
    fn unreserved(&self, occ: &Occupancy, i: usize, j: usize) -> u64 {
        occ.len(i, j).saturating_sub(self.reserved[i * self.n + j]) as u64
    }

    /// The earliest window slot in which neither input `i` nor output `j`
    /// is reserved.
    fn first_fit(&self, i: usize, j: usize) -> Option<usize> {
        let ins = &self.in_busy[i * self.words..(i + 1) * self.words];
        let outs = &self.out_busy[j * self.words..(j + 1) * self.words];
        let (k, free) = ins
            .iter()
            .zip(outs)
            .map(|(a, b)| !(a | b))
            .enumerate()
            .find(|&(_, free)| free != 0)?;
        // The clear bits past `window` in the last word are not slots.
        let w = k * 64 + free.trailing_zeros() as usize;
        (w < self.window).then_some(w)
    }
}

/// Slide a port's busy bitmap one slot towards the head.
fn shift_down(map: &mut [u64]) {
    let mut carry = 0;
    for w in map.iter_mut().rev() {
        let next = *w << 63;
        *w = (*w >> 1) | carry;
        carry = next;
    }
}

impl CrossbarScheduler for SwQpsScheduler {
    fn n(&self) -> usize {
        self.n
    }

    fn schedule(&mut self, _now: Slot, occ: &Occupancy, out: &mut [Option<usize>]) {
        // Every reservation points at a queued cell, so an empty matrix
        // means an empty window: nothing to draw, execute or slide (and
        // the ring head stays put).
        if occ.is_empty() && self.pending == 0 {
            return;
        }
        let n = self.n;
        // Proposal phase: one QPS draw per backlogged input, proposing
        // only cells not already reserved in the window (so executing a
        // reservation always finds its cell queued).
        self.proposals.clear();
        for i in 0..n {
            let total: u64 = occ.row_outputs(i).map(|j| self.unreserved(occ, i, j)).sum();
            if total == 0 {
                continue;
            }
            let mut x = self.rng.below(total);
            for j in occ.row_outputs(i) {
                let l = self.unreserved(occ, i, j);
                if x < l {
                    self.proposals.push((occ.len(i, j), i, j));
                    break;
                }
                x -= l;
            }
        }
        // Accept phase: longest-VOQ proposals first (smallest input id on
        // ties), each packed into the earliest window slot where both its
        // input and its output are still unmatched (first fit).
        self.proposals.sort_unstable_by(|a, b| {
            (b.0, std::cmp::Reverse(b.1)).cmp(&(a.0, std::cmp::Reverse(a.1)))
        });
        for at in 0..self.proposals.len() {
            let (_len, i, j) = self.proposals[at];
            if let Some(w) = self.first_fit(i, j) {
                self.ring[(self.head + w) % self.window * n + i] = j;
                set_bit(&mut self.in_busy[i * self.words..], w);
                set_bit(&mut self.out_busy[j * self.words..], w);
                self.reserved[i * n + j] += 1;
                self.pending += 1;
            }
        }
        // Execute the matching leaving the window and slide.
        let head = &mut self.ring[self.head * n..(self.head + 1) * n];
        for (i, slot) in head.iter_mut().enumerate() {
            let j = std::mem::replace(slot, NONE);
            if j != NONE {
                out[i] = Some(j);
                self.reserved[i * n + j] -= 1;
                self.pending -= 1;
            }
        }
        self.head = (self.head + 1) % self.window;
        for map in self.in_busy.chunks_mut(self.words) {
            shift_down(map);
        }
        for map in self.out_busy.chunks_mut(self.words) {
            shift_down(map);
        }
    }

    fn state_digest(&self) -> u64 {
        // Window order from the head, so the digest does not depend on
        // where in the ring the head happens to be.
        let mut d = SplitMix64::fold_digest(0x5109, self.rng.state_fingerprint());
        for w in 0..self.window {
            let row = (self.head + w) % self.window * self.n;
            for (i, &j) in self.ring[row..row + self.n].iter().enumerate() {
                if j != NONE {
                    d = SplitMix64::fold_digest(d, ((i as u64) << 32) | j as u64);
                }
            }
            d = SplitMix64::fold_digest(d, 0xFEED);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lens_of(n: usize, pairs: &[(usize, usize, usize)]) -> Vec<usize> {
        let mut lens = vec![0usize; n * n];
        for &(i, j, l) in pairs {
            lens[i * n + j] = l;
        }
        lens
    }

    fn run_sched<S: CrossbarScheduler>(s: &mut S, lens: &[usize]) -> Vec<Option<usize>> {
        let mut out = vec![None; s.n()];
        s.schedule(0, &Occupancy::from_lens(s.n(), lens), &mut out);
        out
    }

    fn assert_valid(n: usize, lens: &[usize], m: &[Option<usize>]) {
        let mut outs = std::collections::BTreeSet::new();
        for (i, j) in m.iter().enumerate() {
            if let Some(j) = j {
                assert!(lens[i * n + j] > 0, "matched empty VOQ ({i},{j})");
                assert!(outs.insert(*j), "output {j} matched twice");
            }
        }
    }

    #[test]
    fn qps_single_backlogged_voq_is_matched() {
        let mut s = QpsRScheduler::new(4, 1, 7);
        let lens = lens_of(4, &[(2, 3, 5)]);
        let m = run_sched(&mut s, &lens);
        assert_eq!(m, vec![None, None, Some(3), None]);
    }

    #[test]
    fn qps_empty_matrix_draws_nothing() {
        let mut s = QpsRScheduler::new(4, 3, 7);
        let before = s.state_digest();
        let lens = vec![0usize; 16];
        let m = run_sched(&mut s, &lens);
        assert!(m.iter().all(|x| x.is_none()));
        assert_eq!(s.state_digest(), before, "idle slot must not draw");
    }

    #[test]
    fn qps_matchings_are_conflict_free() {
        let mut s = QpsRScheduler::new(6, 2, 42);
        for round in 0..64usize {
            let lens: Vec<usize> = (0..36).map(|x| (x * 7 + round) % 4).collect();
            let m = run_sched(&mut s, &lens);
            assert_valid(6, &lens, &m);
        }
    }

    #[test]
    fn qps_longest_voq_wins_contention() {
        // Both inputs hold only output 0, input 1 with the longer VOQ.
        // Whoever proposes (both must, it is their only choice), output 0
        // accepts the longest queue.
        let mut s = QpsRScheduler::new(2, 1, 3);
        let lens = lens_of(2, &[(0, 0, 1), (1, 0, 9)]);
        let m = run_sched(&mut s, &lens);
        assert_eq!(m, vec![None, Some(0)]);
    }

    #[test]
    fn qps_more_rounds_fill_the_matching() {
        // Persistent full demand: with r = n rounds the matching is
        // near-perfect almost every slot (each round matches ≥ 1 pair).
        let n = 4;
        let mut s = QpsRScheduler::new(n, n, 5);
        let lens = vec![3usize; n * n];
        let mut total = 0usize;
        for _ in 0..32 {
            total += run_sched(&mut s, &lens).iter().flatten().count();
        }
        assert!(total >= 32 * (n - 1), "QPS-{n} underfilled: {total}");
    }

    #[test]
    fn swqps_single_voq_executes_immediately() {
        // Zero batch delay: a lone proposal lands in window slot 0 and
        // executes the same slot.
        let mut s = SwQpsScheduler::new(4, 8, 7);
        let lens = lens_of(4, &[(1, 2, 3)]);
        let m = run_sched(&mut s, &lens);
        assert_eq!(m, vec![None, Some(2), None, None]);
    }

    #[test]
    fn swqps_empty_matrix_is_a_pure_noop() {
        let mut s = SwQpsScheduler::new(4, 4, 9);
        let before = s.state_digest();
        let lens = vec![0usize; 16];
        let m = run_sched(&mut s, &lens);
        assert!(m.iter().all(|x| x.is_none()));
        assert_eq!(s.state_digest(), before);
    }

    #[test]
    fn swqps_never_overbooks_a_voq() {
        // One cell, repeatedly offered: the window must hold at most one
        // reservation for it, so it departs exactly once.
        let mut s = SwQpsScheduler::new(2, 4, 11);
        let mut lens = lens_of(2, &[(0, 1, 1)]);
        let mut departures = 0usize;
        for _ in 0..8 {
            let m = run_sched(&mut s, &lens);
            if m[0] == Some(1) {
                departures += 1;
                lens[1] = 0; // cell gone
            }
        }
        assert_eq!(departures, 1);
    }

    #[test]
    fn swqps_contention_packs_across_the_window() {
        // Two inputs, both only output 0: the window serializes them into
        // different slots instead of dropping one.
        let mut s = SwQpsScheduler::new(2, 4, 13);
        let mut lens = lens_of(2, &[(0, 0, 2), (1, 0, 2)]);
        let mut served = [0usize; 2];
        for _ in 0..12 {
            let m = run_sched(&mut s, &lens);
            for (i, j) in m.iter().enumerate() {
                if j.is_some() {
                    served[i] += 1;
                    lens[i * 2] -= 1;
                }
            }
        }
        assert_eq!(served, [2, 2], "window must serialize contention");
    }

    #[test]
    fn swqps_matchings_are_conflict_free() {
        let n = 6;
        let mut s = SwQpsScheduler::new(n, 8, 17);
        let mut lens: Vec<usize> = (0..n * n).map(|x| (x * 5) % 3 + 1).collect();
        for _ in 0..64 {
            let m = run_sched(&mut s, &lens);
            assert_valid(n, &lens, &m);
            for (i, j) in m.iter().enumerate() {
                if let Some(j) = j {
                    lens[i * n + j] -= 1;
                }
            }
            // Refill a little to keep pressure on.
            for x in lens.iter_mut().step_by(7) {
                *x += 1;
            }
        }
    }

    #[test]
    fn schedulers_are_deterministic_per_seed() {
        let lens: Vec<usize> = (0..16).map(|x| x % 3).collect();
        let mut a = QpsRScheduler::new(4, 2, 99);
        let mut b = QpsRScheduler::new(4, 2, 99);
        let mut c = QpsRScheduler::new(4, 2, 100);
        let (ma, mb, mc): (Vec<_>, Vec<_>, Vec<_>) = (
            (0..16).map(|_| run_sched(&mut a, &lens)).collect(),
            (0..16).map(|_| run_sched(&mut b, &lens)).collect(),
            (0..16).map(|_| run_sched(&mut c, &lens)).collect(),
        );
        assert_eq!(ma, mb);
        assert_eq!(a.state_digest(), b.state_digest());
        // A different seed must diverge somewhere over 16 contended slots.
        assert_ne!(a.state_digest(), c.state_digest());
        let _ = mc;
    }

    #[test]
    fn boxed_scheduler_forwards() {
        let mut s: Box<dyn CrossbarScheduler> = Box::new(QpsRScheduler::new(4, 1, 1));
        assert_eq!(s.n(), 4);
        let lens = lens_of(4, &[(0, 1, 1)]);
        let out = run_sched(&mut s, &lens);
        assert_eq!(out[0], Some(1));
        assert_eq!(s.next_activity(5, 1), Some(6));
        assert_eq!(s.next_activity(5, 0), None);
    }
}
