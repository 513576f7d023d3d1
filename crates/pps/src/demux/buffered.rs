//! Input-buffered demultiplexing algorithms (paper, Section 4).
//!
//! * [`BufferedRoundRobinDemux`] — the natural buffered fully-distributed
//!   algorithm: hold cells while preferred lines are busy, release head
//!   cells round-robin. Theorem 13's `(1 − r/R)·N/S` lower bound applies to
//!   it for *any* buffer size (experiment E7).
//! * [`HoldThen`] — the paper's buffered `u`-RT algorithms are a *hold
//!   rule* over a bufferless policy: keep every cell `hold` slots, then
//!   dispatch it by the policy on what is by then legal information. The
//!   zoo is three instantiations, policy × hold:
//!
//!   | | policy | hold |
//!   |---|---|---|
//!   | [`DelayedCpaDemux`] (Theorem 12) | [`CpaDemux`]'s reservation, deadlines counted from `arrival + u` | `u` |
//!   | [`BufferedStaleDemux`] (small buffers, E16) | [`StaleLeastLoadedDemux`]'s pick, one history lane per input | `0 ..= u` |
//!   | [`ArbitratedCrossbarDemux`] (Section 1.3) | the same pick, one lane shared by the arbiter | `u` |

use super::{CpaDemux, StaleLeastLoadedDemux};
use pps_core::prelude::*;

// ---------------------------------------------------------------------------
// Buffered round robin
// ---------------------------------------------------------------------------

/// Buffered fully-distributed round robin.
///
/// Per slot each input releases buffered head cells onto distinct free
/// planes (continuing its rotating pointer) and dispatches the arriving
/// cell directly when the buffer is empty and a line is free.
#[derive(Clone, Debug)]
pub struct BufferedRoundRobinDemux {
    next: Vec<u32>,
    k: u32,
    /// Scratch: planes already used by this slot's releases.
    used: Vec<bool>,
}

impl BufferedRoundRobinDemux {
    /// Buffered RR for `n` inputs over `k` planes.
    pub fn new(n: usize, k: usize) -> Self {
        BufferedRoundRobinDemux {
            next: vec![0; n],
            k: k as u32,
            used: vec![false; k],
        }
    }

    /// Claim the next free plane from input `i`'s pointer that this slot
    /// has not used yet, advancing the pointer past it.
    #[inline]
    fn claim(&mut self, i: usize, local: &LocalView<'_>) -> Option<PlaneId> {
        let p = local.next_free_where(self.next[i] as usize, |p| !self.used[p])?;
        self.used[p] = true;
        self.next[i] = (p as u32 + 1) % self.k;
        Some(PlaneId(p as u32))
    }
}

impl BufferedDemultiplexor for BufferedRoundRobinDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn slot_decision(
        &mut self,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        let i = input.idx();
        self.used.fill(false);
        // Release head cells while distinct free planes remain.
        for idx in 0..buffer.len() {
            let Some(plane) = self.claim(i, &ctx.local) else {
                break;
            };
            out.releases.push((idx, plane));
        }
        // Buffer empty after the releases: try to send the arrival directly.
        let drained = buffer.len() == out.releases.len();
        out.arrival = arrival.map(|_| {
            let direct = drained.then(|| self.claim(i, &ctx.local)).flatten();
            direct.map_or(ArrivalAction::Enqueue, ArrivalAction::Dispatch)
        });
    }

    /// RR acts the moment any of the input's lines frees up: the earliest
    /// possibly-acting slot is the minimum line `busy_until` (clamped to
    /// the next slot). Waking then is exact — on every earlier slot all
    /// lines are busy and `slot_decision` is a state-neutral hold (`next`
    /// moves only on a successful free-line find).
    fn buffered_next_activity(
        &self,
        _input: PortId,
        _head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        let earliest_free = local
            .link_busy_until
            .iter()
            .copied()
            .min()
            .unwrap_or(local.now + 1);
        Some(earliest_free.max(local.now + 1))
    }
}

// ---------------------------------------------------------------------------
// The hold rule
// ---------------------------------------------------------------------------

/// What a hold rule dispatches a ripe cell by: the one step it asks of a
/// bufferless policy.
trait HeldPolicy: Send {
    /// Choose a plane for `cell`, which ripened at slot `ripe` — never
    /// later than the release slot `ctx.local.now`, and earlier when faults
    /// kept every line busy. `ctx.local` shows a free line.
    fn assign(&mut self, cell: &Cell, ripe: Slot, ctx: &DispatchCtx<'_>) -> PlaneId;
}

/// A buffered `u`-RT demultiplexor: hold every cell `hold` slots in the
/// input buffer, then dispatch it by the bufferless policy `P`.
///
/// Buffers are FIFO and at most one cell arrives per slot, so at most one
/// cell ripens per slot and it sits at the head: one release per slot
/// suffices (and uses a single input line). The policy runs only on an
/// actual dispatch — an unripe head, or (under faults, where a degraded
/// link stretches `busy_until`) a ripe head with no line free, is a
/// state-neutral hold, which is what lets the engine sleep until
/// `arrival + hold`.
#[derive(Clone, Debug)]
pub struct HoldThen<P> {
    u: Slot,
    hold: Slot,
    policy: P,
}

impl<P> HoldThen<P> {
    fn over(policy: P, u: Slot, hold: Slot) -> Self {
        assert!(u >= 1, "u-RT requires u >= 1");
        HoldThen { u, hold, policy }
    }
}

impl<P: HeldPolicy> BufferedDemultiplexor for HoldThen<P> {
    fn info_class(&self) -> InfoClass {
        InfoClass::RealTimeDistributed { u: self.u }
    }

    fn slot_decision(
        &mut self,
        _input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        let (hold, policy) = (self.hold, &mut self.policy);
        // Dispatch a ripe cell by the policy, or `None` — policy state
        // untouched — when no input line is free this slot.
        let mut dispatch = |cell: &Cell| {
            ctx.local.free_planes().next()?;
            Some(policy.assign(cell, cell.arrival + hold, ctx))
        };
        if let Some(head) = buffer.first() {
            if head.arrival + hold <= ctx.local.now {
                if let Some(plane) = dispatch(head) {
                    out.releases.push((0, plane));
                }
            }
        }
        // `hold = 0` with nothing queued ahead: the arrival is already ripe.
        let ripe_on_arrival = hold == 0 && buffer.is_empty();
        out.arrival = arrival.map(|cell| {
            let direct = ripe_on_arrival.then(|| dispatch(cell)).flatten();
            direct.map_or(ArrivalAction::Enqueue, ArrivalAction::Dispatch)
        });
    }

    fn buffered_next_activity(
        &self,
        _input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        Some((head.arrival + self.hold).max(local.now + 1))
    }
}

/// The Theorem 12 algorithm: hold every cell exactly `u` slots, then run
/// CPA with all global information up to the cell's arrival slot (legally
/// available to a `u`-RT algorithm at decision time). Every deadline is the
/// cell's FCFS-OQ departure time plus `u`, so the relative queuing delay is
/// at most `u` — fault-free it is CPA's run shifted by `u`, cell for cell.
///
/// Requires buffer size ≥ `u` and speedup `S ≥ 2`; run with
/// [`OutputDiscipline::GlobalFcfs`].
pub type DelayedCpaDemux = HoldThen<CpaDemux>;

impl DelayedCpaDemux {
    /// Delayed CPA with information delay `u ≥ 1`.
    pub fn new(n: usize, k: usize, r_prime: usize, u: Slot) -> Self {
        HoldThen::over(CpaDemux::new(n, k, r_prime), u, u)
    }
}

impl HeldPolicy for CpaDemux {
    /// Deadlines count from the slot the cell ripened, not the slot it
    /// leaves the buffer.
    fn assign(&mut self, cell: &Cell, ripe: Slot, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.reserve(cell.output.idx(), ripe, &ctx.local)
    }
}

/// A `u`-RT buffered demultiplexor whose buffer lets it wait only
/// `hold ≤ u` slots before dispatching by (still `u`-stale) least-loaded
/// information, each input correcting the stale view by its own sends.
///
/// This is the knife edge the paper draws in Section 4: with buffers of
/// size ≥ `u` a `u`-RT algorithm can wait out its information lag and
/// emulate CPA (Theorem 12, [`DelayedCpaDemux`]); *"when buffers are
/// smaller than u"* the waiting does not close the blind spot and the
/// `(1 − r/R)·N/S` lower bound persists. Sweeping `hold` from `0` to `u`
/// (experiment E16) shows the transition: for `hold < u` the decision
/// uses information from `t − u < t_arrival`, so the coordinated burst
/// still concentrates; at `hold = u` the information covers the arrival
/// and the concentration dissolves.
pub type BufferedStaleDemux = HoldThen<StaleLeastLoadedDemux>;

impl BufferedStaleDemux {
    /// A `u`-RT buffered demultiplexor that holds each cell `hold ≤ u`
    /// slots (`hold = 0` is the bufferless stale-least-loaded dispatcher).
    pub fn new(n: usize, k: usize, u: Slot, hold: Slot) -> Self {
        assert!(hold <= u, "holding beyond u is DelayedCpa territory");
        HoldThen::over(StaleLeastLoadedDemux::new(n, k, u), u, hold)
    }
}

impl HeldPolicy for StaleLeastLoadedDemux {
    fn assign(&mut self, cell: &Cell, _ripe: Slot, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.pick(cell.input.idx(), cell.output.0, ctx)
    }
}

/// Request/grant arbitrated dispatch with a `u`-slot round trip.
///
/// On arrival a cell waits in the input buffer; `u` slots later the grant
/// arrives, carrying the arbiter's plane choice computed from the global
/// state the arbiter saw when the request was issued (stale by `u`). The
/// arbiter is a least-loaded chooser over the stale snapshot, corrected by
/// the grants it has itself issued since (the arbiter knows its own
/// grants). The paper cites Tamir & Chi's arbitrated crossbars as the
/// canonical `u`-RT hardware.
pub type ArbitratedCrossbarDemux = HoldThen<SharedLane>;

impl ArbitratedCrossbarDemux {
    /// Arbitrated dispatch with grant latency `u ≥ 1` over `k` planes.
    pub fn new(k: usize, u: Slot) -> Self {
        HoldThen::over(SharedLane(StaleLeastLoadedDemux::new(1, k, u)), u, u)
    }
}

/// The stale-least-loaded pick with one history lane for every input: the
/// arbiter's memory of its own grants.
#[derive(Clone, Debug)]
pub struct SharedLane(StaleLeastLoadedDemux);

impl HeldPolicy for SharedLane {
    fn assign(&mut self, cell: &Cell, _ripe: Slot, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.0.pick(0, cell.output.0, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: u64, input: u32, output: u32, arrival: Slot) -> Cell {
        Cell {
            id: CellId(id),
            input: PortId(input),
            output: PortId(output),
            seq: 0,
            arrival,
        }
    }

    fn ctx<'a>(now: Slot, busy: &'a [Slot]) -> DispatchCtx<'a> {
        DispatchCtx {
            local: LocalView {
                now,
                input: PortId(0),
                link_busy_until: busy,
            },
            global: None,
        }
    }

    fn decide<D: BufferedDemultiplexor>(
        d: &mut D,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
    ) -> BufferedDecision {
        let mut out = BufferedDecision::default();
        d.slot_decision(input, arrival, buffer, ctx, &mut out);
        out
    }

    #[test]
    fn buffered_rr_releases_heads_on_distinct_planes() {
        let mut d = BufferedRoundRobinDemux::new(1, 4);
        let free = vec![0u64; 4];
        let buf = [cell(0, 0, 0, 0), cell(1, 0, 1, 0), cell(2, 0, 2, 0)];
        let dec = decide(&mut d, PortId(0), None, &buf, &ctx(5, &free));
        assert_eq!(dec.releases.len(), 3);
        let planes: std::collections::BTreeSet<u32> =
            dec.releases.iter().map(|&(_, p)| p.0).collect();
        assert_eq!(planes.len(), 3, "releases must use distinct lines");
        assert_eq!(dec.arrival, None);
    }

    #[test]
    fn buffered_rr_dispatches_arrival_when_possible() {
        let mut d = BufferedRoundRobinDemux::new(1, 2);
        let free = vec![0u64; 2];
        let arr = cell(0, 0, 0, 5);
        let dec = decide(&mut d, PortId(0), Some(&arr), &[], &ctx(5, &free));
        assert!(matches!(dec.arrival, Some(ArrivalAction::Dispatch(_))));
    }

    #[test]
    fn buffered_rr_enqueues_when_lines_busy() {
        let mut d = BufferedRoundRobinDemux::new(1, 2);
        let busy = vec![100u64, 100];
        let arr = cell(0, 0, 0, 5);
        let dec = decide(&mut d, PortId(0), Some(&arr), &[], &ctx(5, &busy));
        assert_eq!(dec.arrival, Some(ArrivalAction::Enqueue));
        assert!(dec.releases.is_empty());
    }

    #[test]
    fn delayed_cpa_holds_for_exactly_u() {
        let mut d = DelayedCpaDemux::new(2, 4, 2, 3);
        let free = vec![0u64; 4];
        let c = cell(0, 0, 1, 10);
        // At slot 12 the cell is not ripe (10 + 3 > 12).
        let dec = decide(&mut d, PortId(0), None, &[c], &ctx(12, &free));
        assert!(dec.releases.is_empty());
        // At slot 13 it is.
        let dec = decide(&mut d, PortId(0), None, &[c], &ctx(13, &free));
        assert_eq!(dec.releases.len(), 1);
        assert_eq!(dec.releases[0].0, 0);
    }

    #[test]
    fn delayed_cpa_always_buffers_arrivals() {
        let mut d = DelayedCpaDemux::new(2, 4, 2, 3);
        let free = vec![0u64; 4];
        let arr = cell(0, 0, 0, 5);
        let dec = decide(&mut d, PortId(0), Some(&arr), &[], &ctx(5, &free));
        assert_eq!(dec.arrival, Some(ArrivalAction::Enqueue));
    }

    #[test]
    fn buffered_stale_holds_for_exactly_hold_slots() {
        let mut d = BufferedStaleDemux::new(1, 4, 4, 2);
        let free = vec![0u64; 4];
        let c = cell(0, 0, 0, 10);
        let dec = decide(&mut d, PortId(0), None, &[c], &ctx(11, &free));
        assert!(dec.releases.is_empty(), "held until arrival + hold");
        let dec = decide(&mut d, PortId(0), None, &[c], &ctx(12, &free));
        assert_eq!(dec.releases.len(), 1);
    }

    #[test]
    fn buffered_stale_zero_hold_dispatches_directly() {
        let mut d = BufferedStaleDemux::new(1, 2, 2, 0);
        let free = vec![0u64; 2];
        let arr = cell(0, 0, 0, 5);
        let dec = decide(&mut d, PortId(0), Some(&arr), &[], &ctx(5, &free));
        assert!(matches!(dec.arrival, Some(ArrivalAction::Dispatch(_))));
    }

    #[test]
    #[should_panic(expected = "DelayedCpa territory")]
    fn buffered_stale_rejects_hold_beyond_u() {
        let _ = BufferedStaleDemux::new(1, 2, 2, 3);
    }

    #[test]
    fn buffered_stale_inputs_stay_independent() {
        // Fully symmetric inputs pick the same plane — the blind spot that
        // E16 exploits.
        let mut d = BufferedStaleDemux::new(2, 4, 4, 1);
        let free = vec![0u64; 4];
        let c0 = cell(0, 0, 0, 10);
        let c1 = cell(1, 1, 0, 10);
        let d0 = decide(&mut d, PortId(0), None, &[c0], &ctx(11, &free));
        let d1 = decide(&mut d, PortId(1), None, &[c1], &ctx(11, &free));
        assert_eq!(d0.releases[0].1, d1.releases[0].1);
    }

    #[test]
    fn hold_then_release_demuxes_survive_all_lines_busy() {
        // Under faults (a degraded link stretching busy_until) every line
        // can be busy when a head ripens. Each hold-then-release demux
        // must hold gracefully — and still release once a line frees —
        // rather than panic on the one-release-per-slot assumption.
        let busy = vec![1_000u64; 4];
        let free = vec![0u64; 4];
        let c = cell(0, 0, 1, 0);

        let mut cpa = DelayedCpaDemux::new(2, 4, 2, 2);
        let dec = decide(&mut cpa, PortId(0), None, &[c], &ctx(10, &busy));
        assert!(dec.releases.is_empty(), "delayed-cpa must hold");
        let dec = decide(&mut cpa, PortId(0), None, &[c], &ctx(1_000, &free));
        assert_eq!(dec.releases.len(), 1, "delayed-cpa must recover");

        let mut stale = BufferedStaleDemux::new(1, 4, 3, 1);
        let dec = decide(&mut stale, PortId(0), None, &[c], &ctx(10, &busy));
        assert!(dec.releases.is_empty(), "buffered-stale must hold");
        let dec = decide(&mut stale, PortId(0), None, &[c], &ctx(1_000, &free));
        assert_eq!(dec.releases.len(), 1, "buffered-stale must recover");

        // hold = 0 direct-dispatch path: a busy wall turns into Enqueue.
        let mut zero = BufferedStaleDemux::new(1, 4, 3, 0);
        let arr = cell(1, 0, 1, 10);
        let dec = decide(&mut zero, PortId(0), Some(&arr), &[], &ctx(10, &busy));
        assert_eq!(dec.arrival, Some(ArrivalAction::Enqueue));

        let mut arb = ArbitratedCrossbarDemux::new(4, 2);
        let dec = decide(&mut arb, PortId(0), None, &[c], &ctx(10, &busy));
        assert!(dec.releases.is_empty(), "arbitrated must hold");
        let dec = decide(&mut arb, PortId(0), None, &[c], &ctx(1_000, &free));
        assert_eq!(dec.releases.len(), 1, "arbitrated must recover");
    }

    #[test]
    fn arbitrated_grant_spreads_by_own_history() {
        let mut d = ArbitratedCrossbarDemux::new(2, 2);
        let free = vec![0u64; 2];
        let a = cell(0, 0, 0, 0);
        let b = cell(1, 0, 0, 1);
        let d1 = decide(&mut d, PortId(0), None, &[a], &ctx(2, &free));
        let d2 = decide(&mut d, PortId(0), None, &[b], &ctx(3, &free));
        let p1 = d1.releases[0].1;
        let p2 = d2.releases[0].1;
        assert_ne!(p1, p2, "arbiter remembers its own grants");
    }
}
