//! `(R, B)` leaky-bucket traffic (paper, Definition 3).
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
//! destined for output `j`. The per-input constraint holds automatically
//! for any `B ≥ 0` (at most one cell arrives per input per slot); the
//! per-output constraint is the binding one.
//!
//! The minimal `B` for which a port conforms equals the supremum of the
//! *excess* `A(t1, t2) − (t2 − t1)`, computable in one pass with the
//! virtual-queue recurrence `q(t) = max(0, q(t−1) + a(t) − 1)`: the port's
//! minimal burstiness is `max_t q(t)` shifted to window semantics. Cruz's
//! calculus \[9\] also makes `B` the buffer bound of any work-conserving
//! switch under such traffic — which the paper uses in Lemma 4's jitter
//! argument.

use pps_core::prelude::*;

/// Minimal burstiness factors of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BurstinessReport {
    /// Minimal `B` per input port.
    pub per_input: Vec<u64>,
    /// Minimal `B` per output port.
    pub per_output: Vec<u64>,
}

impl BurstinessReport {
    /// The trace's overall minimal burstiness factor: the smallest `B`
    /// such that the trace is `(R, B)` leaky-bucket.
    pub fn overall(&self) -> u64 {
        self.per_input
            .iter()
            .chain(self.per_output.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// True iff the trace has no bursts at all (`B = 0`), the premise of
    /// Theorems 6, 8 and 13.
    pub fn burst_free(&self) -> bool {
        self.overall() == 0
    }
}

/// Compute the exact minimal burstiness of `trace` per port.
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
/// assert_eq!(min_burstiness(&t, 3).overall(), 2);
/// ```
pub fn min_burstiness(trace: &Trace, n: usize) -> BurstinessReport {
    let mut lane_in = Lane::new(n);
    let mut lane_out = Lane::new(n);
    for (slot, group) in trace.by_slot() {
        let mut touched_in: Vec<(usize, u64)> = Vec::with_capacity(group.len());
        let mut touched_out: Vec<(usize, u64)> = Vec::with_capacity(group.len());
        for a in group {
            bump(&mut touched_in, a.input.idx());
            bump(&mut touched_out, a.output.idx());
        }
        for &(i, a) in &touched_in {
            lane_in.touch(i, slot, a);
        }
        for &(j, a) in &touched_out {
            lane_out.touch(j, slot, a);
        }
    }
    BurstinessReport {
        per_input: lane_in.max,
        per_output: lane_out.max,
    }
}

/// Virtual queue per port, updated lazily: `q(t) = max(0, q(t-1) + a(t) - 1)`,
/// and between touches q just decays by one per slot, so touching a port
/// at slot t with state (q0 at slot t0) gives
/// `q(t) = max(0, max(0, q0 - (t - t0 - 1)) + a - 1)`.
/// B_min is the running maximum of q.
#[derive(Clone, Debug)]
struct Lane {
    q: Vec<u64>,
    last: Vec<Slot>,
    max: Vec<u64>,
}

impl Lane {
    fn new(n: usize) -> Self {
        Lane {
            q: vec![0; n],
            last: vec![0; n],
            max: vec![0; n],
        }
    }
    fn touch(&mut self, port: usize, slot: Slot, a: u64) {
        let decay = slot.saturating_sub(self.last[port] + 1);
        let q = (self.q[port].saturating_sub(decay) + a).saturating_sub(1);
        self.q[port] = q;
        self.last[port] = slot;
        self.max[port] = self.max[port].max(q);
    }
}

/// Incremental minimal-burstiness calculator.
///
/// Feed a trace one slot group at a time (strictly increasing slots; empty
/// slots may be skipped — decay is lazy) and read the running minimal `B`
/// of the prefix observed so far at any point. The window maxima only ever
/// grow along a prefix, so one linear pass over the longest trace yields
/// the exact burstiness of *every* prefix: the e9/e15 duration sweeps read
/// their per-duration checkpoints from a single scan instead of re-running
/// [`min_burstiness`] per duration (quadratic over sweep points).
///
/// A full pass followed by `report` (test-only) is exactly equivalent
/// to the one-shot [`min_burstiness`] scan (pinned by tests).
#[derive(Clone, Debug)]
pub struct IncrementalBurstiness {
    lane_in: Lane,
    lane_out: Lane,
    touched_in: Vec<(usize, u64)>,
    touched_out: Vec<(usize, u64)>,
    last_slot: Option<Slot>,
}

impl IncrementalBurstiness {
    /// A calculator for an `n`-port switch that has observed nothing yet.
    pub fn new(n: usize) -> Self {
        IncrementalBurstiness {
            lane_in: Lane::new(n),
            lane_out: Lane::new(n),
            touched_in: Vec::new(),
            touched_out: Vec::new(),
            last_slot: None,
        }
    }

    /// Observe one slot's arrival group. Slots must be fed in strictly
    /// increasing order (as [`Trace::by_slot`] yields them).
    pub fn observe_slot(&mut self, slot: Slot, group: impl IntoIterator<Item = Arrival>) {
        debug_assert!(
            self.last_slot.is_none_or(|s| slot > s),
            "slots must be observed in increasing order"
        );
        self.last_slot = Some(slot);
        self.touched_in.clear();
        self.touched_out.clear();
        for a in group {
            bump(&mut self.touched_in, a.input.idx());
            bump(&mut self.touched_out, a.output.idx());
        }
        for &(i, a) in &self.touched_in {
            self.lane_in.touch(i, slot, a);
        }
        for &(j, a) in &self.touched_out {
            self.lane_out.touch(j, slot, a);
        }
    }

    /// Burstiness report of the prefix observed so far (what the tests
    /// compare with the one-shot [`min_burstiness`], lane by lane).
    #[cfg(test)]
    fn report(&self) -> BurstinessReport {
        BurstinessReport {
            per_input: self.lane_in.max.clone(),
            per_output: self.lane_out.max.clone(),
        }
    }

    /// Overall minimal `B` of the prefix observed so far.
    pub fn overall(&self) -> u64 {
        self.lane_in
            .max
            .iter()
            .chain(self.lane_out.max.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }
}

fn bump(v: &mut Vec<(usize, u64)>, key: usize) {
    if let Some(e) = v.iter_mut().find(|(k, _)| *k == key) {
        e.1 += 1;
    } else {
        v.push((key, 1));
    }
}

/// Does `trace` conform to `(R, B)` leaky bucket?
pub fn is_leaky_bucket(trace: &Trace, n: usize, b: u64) -> bool {
    min_burstiness(trace, n).overall() <= b
}

/// Greedily shape `arrivals` (desired slots) into a `(R, B)`-conformant
/// trace by delaying cells: cells keep their input port and relative order
/// per input; a cell is admitted at the earliest slot at which both its
/// input's and its output's virtual queues stay within `B`.
///
/// Returns the shaped trace. Per-input one-cell-per-slot is also enforced.
pub fn shape(arrivals: Vec<Arrival>, n: usize, b: u64) -> Trace {
    let mut pending: Vec<std::collections::VecDeque<Arrival>> = vec![Default::default(); n];
    let mut sorted = arrivals;
    sorted.sort_by_key(|a| (a.slot, a.input));
    for a in sorted {
        pending[a.input.idx()].push_back(a);
    }
    let mut q_out = vec![0u64; n];
    let mut out = Vec::new();
    let mut slot: Slot = 0;
    while pending.iter().any(|p| !p.is_empty()) {
        let mut admitted_this_slot = 0usize;
        // Per-slot arrivals per output, applied with the virtual-queue
        // recurrence q <- max(0, q + a - 1) at slot end.
        let mut a_out = vec![0u64; n];
        #[allow(clippy::needless_range_loop)] // `input` indexes `pending` mutably below
        for input in 0..n {
            let Some(head) = pending[input].front() else {
                continue;
            };
            if head.slot > slot {
                continue; // not yet desired
            }
            let j = head.output.idx();
            // Admitting would set q_j = max(0, q_j + a_j + 1 - 1); keep <= B.
            if (q_out[j] + a_out[j] + 1).saturating_sub(1) > b {
                continue;
            }
            let head = pending[input].pop_front().unwrap();
            a_out[j] += 1;
            admitted_this_slot += 1;
            out.push(Arrival { slot, ..head });
        }
        for j in 0..n {
            q_out[j] = (q_out[j] + a_out[j]).saturating_sub(1);
        }
        slot += 1;
        // Fast-forward across dead time when every head lies in the future.
        if admitted_this_slot == 0 {
            if let Some(next) = pending
                .iter()
                .filter_map(|p| p.front().map(|h| h.slot))
                .min()
            {
                if next > slot && q_out.iter().all(|&q| q == 0) {
                    slot = next;
                }
            }
        }
    }
    Trace::build(out, n).expect("shaper emits at most one cell per (slot, input)")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(v: Vec<Arrival>, n: usize) -> Trace {
        Trace::build(v, n).unwrap()
    }

    #[test]
    fn one_cell_per_slot_is_burst_free() {
        let t = trace(
            (0..10)
                .map(|s| Arrival::new(s, (s % 3) as u32, 0))
                .collect(),
            3,
        );
        let rep = min_burstiness(&t, 3);
        assert!(rep.burst_free(), "{rep:?}");
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
        let rep = min_burstiness(&t, 3);
        assert_eq!(rep.per_output[0], 2);
        assert_eq!(rep.overall(), 2);
        assert!(is_leaky_bucket(&t, 3, 2));
        assert!(!is_leaky_bucket(&t, 3, 1));
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
            let rep = min_burstiness(&trace(v, 2), 2);
            assert_eq!(rep.per_output[0], t_len, "duration {t_len}");
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
        assert_eq!(min_burstiness(&t, 2).overall(), 1);
    }

    #[test]
    fn inputs_never_exceed_zero() {
        // Per-input constraint is structural.
        let t = trace(
            (0..20)
                .map(|s| Arrival::new(s, 0, (s % 2) as u32))
                .collect(),
            2,
        );
        let rep = min_burstiness(&t, 2);
        assert_eq!(rep.per_input, vec![0, 0]);
    }

    #[test]
    fn shaper_produces_conformant_traffic() {
        // Ask for 4 cells to output 0 in slot 0 (from 4 inputs) with B = 1:
        // the shaper must spread them out.
        let want: Vec<Arrival> = (0..4).map(|i| Arrival::new(0, i, 0)).collect();
        let t = shape(want, 4, 1);
        assert_eq!(t.len(), 4);
        assert!(is_leaky_bucket(&t, 4, 1), "{:?}", t.arrivals());
    }

    #[test]
    fn shaper_keeps_per_input_order() {
        let want = vec![
            Arrival::new(0, 0, 1),
            Arrival::new(1, 0, 0),
            Arrival::new(2, 0, 1),
        ];
        let t = shape(want, 2, 0);
        let outs: Vec<u32> = t
            .arrivals()
            .filter(|a| a.input == PortId(0))
            .map(|a| a.output.0)
            .collect();
        assert_eq!(outs, vec![1, 0, 1]);
    }

    #[test]
    fn incremental_matches_one_shot_at_every_prefix() {
        // Deterministic pseudo-random trace with gaps and fan-in; at every
        // slot boundary the incremental report must equal a one-shot scan
        // of exactly the arrivals observed so far.
        let n = 4;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut arrivals = Vec::new();
        for slot in 0..60u64 {
            for input in 0..n as u32 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 62 != 0 {
                    arrivals.push(Arrival::new(slot, input, ((state >> 33) % n as u64) as u32));
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
            assert_eq!(inc.report(), one_shot, "prefix through slot {slot}");
            assert_eq!(inc.overall(), one_shot.overall(), "overall at slot {slot}");
        }
        assert_eq!(inc.report(), min_burstiness(&t, n));
    }

    #[test]
    fn incremental_on_empty_prefix_is_zero() {
        let inc = IncrementalBurstiness::new(3);
        assert_eq!(inc.overall(), 0);
        assert!(inc.report().burst_free());
    }

    #[test]
    fn shaper_is_identity_on_conformant_traffic() {
        let want: Vec<Arrival> = (0..10).map(|s| Arrival::new(s, 0, 0)).collect();
        let t = shape(want.clone(), 1, 0);
        assert_eq!(t, trace(want, 1));
    }
}
