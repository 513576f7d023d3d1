//! Input-buffered demultiplexing algorithms (paper, Section 4).
//!
//! * [`BufferedRoundRobinDemux`] — the natural buffered fully-distributed
//!   algorithm: hold cells while preferred lines are busy, release head
//!   cells round-robin. Theorem 13's `(1 − r/R)·N/S` lower bound applies to
//!   it for *any* buffer size (experiment E7).
//! * [`DelayedCpaDemux`] — the constructive side of Theorem 12: a `u`-RT
//!   algorithm with buffers of size `u` and speedup `S ≥ 2` that simulates
//!   CPA shifted by `u` slots, achieving relative queuing delay ≤ `u`.
//! * [`ArbitratedCrossbarDemux`] — the paper's practical `u`-RT example
//!   (Section 1.3): cells wait in the input buffer for a grant computed by
//!   an arbiter whose view of the switch is `u` slots old.

use pps_core::prelude::*;
use std::collections::VecDeque;

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
            let start = self.next[i] as usize;
            let k = self.k as usize;
            let found = (0..k)
                .map(|off| (start + off) % k)
                .find(|&p| ctx.local.is_free(p) && !self.used[p]);
            match found {
                Some(p) => {
                    self.used[p] = true;
                    self.next[i] = (p as u32 + 1) % self.k;
                    out.releases.push((idx, PlaneId(p as u32)));
                }
                None => break,
            }
        }
        let released = out.releases.len();
        out.arrival = arrival.map(|_| {
            if buffer.len() == released {
                // Buffer will be empty after releases: try to send directly.
                let start = self.next[i] as usize;
                let k = self.k as usize;
                if let Some(p) = (0..k)
                    .map(|off| (start + off) % k)
                    .find(|&p| ctx.local.is_free(p) && !self.used[p])
                {
                    self.next[i] = (p as u32 + 1) % self.k;
                    return ArrivalAction::Dispatch(PlaneId(p as u32));
                }
                ArrivalAction::Enqueue
            } else {
                ArrivalAction::Enqueue
            }
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
// Delayed CPA (Theorem 12)
// ---------------------------------------------------------------------------

/// The Theorem 12 algorithm: hold every cell exactly `u` slots, then run
/// CPA with all global information up to the cell's arrival slot (legally
/// available to a `u`-RT algorithm at decision time). Every deadline is the
/// cell's FCFS-OQ departure time plus `u`, so the relative queuing delay is
/// at most `u`.
///
/// Requires buffer size ≥ `u` and speedup `S ≥ 2`; run with
/// [`OutputDiscipline::GlobalFcfs`].
#[derive(Clone, Debug)]
pub struct DelayedCpaDemux {
    u: Slot,
    n: usize,
    k: usize,
    r_prime: Slot,
    dt_last: Vec<Option<Slot>>,
    last_reserved: Vec<Option<Slot>>,
}

impl DelayedCpaDemux {
    /// Delayed CPA with information delay `u ≥ 1`.
    pub fn new(n: usize, k: usize, r_prime: usize, u: Slot) -> Self {
        assert!(u >= 1, "u-RT requires u >= 1");
        DelayedCpaDemux {
            u,
            n,
            k,
            r_prime: r_prime as Slot,
            dt_last: vec![None; n],
            last_reserved: vec![None; k * n],
        }
    }

    /// Assign a ripe cell to a plane, or `None` when **no** input line is
    /// free this slot — possible under faults (a degraded link stretches
    /// `busy_until` past the one-release-per-slot invariant), in which
    /// case the cell is held without touching the deadline oracle.
    fn assign(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> Option<PlaneId> {
        ctx.local.free_planes().next()?;
        let j = cell.output.idx();
        // FCFS-OQ deadline from the *arrival* slot, shifted by u.
        let dt = match self.dt_last[j] {
            Some(prev) => cell.arrival.max(prev + 1),
            None => cell.arrival,
        };
        self.dt_last[j] = Some(dt);
        let target = dt + self.u; // PPS departure goal
        let feasible = (0..self.k)
            .filter(|&p| ctx.local.is_free(p))
            .filter(|&p| match self.last_reserved[p * self.n + j] {
                Some(last) => last + self.r_prime <= target,
                None => true,
            })
            .min_by_key(|&p| (self.last_reserved[p * self.n + j], p));
        Some(match feasible {
            Some(p) => {
                self.last_reserved[p * self.n + j] = Some(target);
                PlaneId(p as u32)
            }
            None => {
                let p = (0..self.k)
                    .filter(|&p| ctx.local.is_free(p))
                    .min_by_key(|&p| (self.last_reserved[p * self.n + j], p))
                    .expect("a free plane exists past the guard above");
                let idx = p * self.n + j;
                let at = match self.last_reserved[idx] {
                    Some(last) => target.max(last + self.r_prime),
                    None => target,
                };
                self.last_reserved[idx] = Some(at);
                PlaneId(p as u32)
            }
        })
    }
}

impl BufferedDemultiplexor for DelayedCpaDemux {
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
        let now = ctx.local.now;
        // Buffers are FIFO: ripe cells (held >= u slots) sit at the head.
        // At one arrival per slot at most one cell ripens per slot, so a
        // single release suffices (and uses a single input line). Under
        // faults every line may be busy; then the ripe head waits a slot.
        if let Some(head) = buffer.first() {
            if head.arrival + self.u <= now {
                if let Some(plane) = self.assign(head, ctx) {
                    out.releases.push((0, plane));
                }
            }
        }
        out.arrival = arrival.map(|_| ArrivalAction::Enqueue);
    }

    /// Delayed CPA touches a buffered cell only when it ripens at
    /// `arrival + u`; every earlier `slot_decision` is a state-neutral
    /// hold (`assign` runs only on release), so the engine may sleep
    /// until exactly that slot.
    fn buffered_next_activity(
        &self,
        _input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        Some((head.arrival + self.u).max(local.now + 1))
    }
}

// ---------------------------------------------------------------------------
// Buffered stale least-loaded (the small-buffer regime of Section 4)
// ---------------------------------------------------------------------------

/// A `u`-RT buffered demultiplexor whose buffer lets it wait only
/// `hold ≤ u` slots before dispatching by (still `u`-stale) least-loaded
/// information.
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
#[derive(Clone, Debug)]
pub struct BufferedStaleDemux {
    u: Slot,
    hold: Slot,
    k: usize,
    /// Own dispatches not yet visible in the stale view: `(slot, plane,
    /// output)`, shared bookkeeping across inputs is *not* allowed — the
    /// per-input histories live in this per-input vector.
    recent: Vec<VecDeque<(Slot, u32, u32)>>,
}

impl BufferedStaleDemux {
    /// A `u`-RT buffered demultiplexor that holds each cell `hold ≤ u`
    /// slots (`hold = 0` degenerates to the bufferless stale-least-loaded
    /// dispatcher).
    pub fn new(n: usize, k: usize, u: Slot, hold: Slot) -> Self {
        assert!(u >= 1, "u-RT requires u >= 1");
        assert!(hold <= u, "holding beyond u is DelayedCpa territory");
        BufferedStaleDemux {
            u,
            hold,
            k,
            recent: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Pick a plane for a ripe cell, or `None` when no input line is free
    /// (possible under faults) — a state-neutral hold: the history prune
    /// and append happen only on an actual pick.
    fn pick(&mut self, input: usize, output: u32, ctx: &DispatchCtx<'_>) -> Option<PlaneId> {
        ctx.local.free_planes().next()?;
        let horizon = ctx.global.map_or(0, |s| s.taken_at);
        while let Some(&(slot, _, _)) = self.recent[input].front() {
            if slot <= horizon {
                self.recent[input].pop_front();
            } else {
                break;
            }
        }
        let estimate = |p: usize| -> u64 {
            let base = ctx
                .global
                .map_or(0, |s| s.queue_len(p, output as usize) as u64);
            let own = self.recent[input]
                .iter()
                .filter(|&&(_, gp, gj)| gp as usize == p && gj == output)
                .count() as u64;
            base + own
        };
        let p = (0..self.k)
            .filter(|&p| ctx.local.is_free(p))
            .min_by_key(|&p| (estimate(p), p))
            .expect("a free plane exists past the guard above");
        self.recent[input].push_back((ctx.local.now, p as u32, output));
        Some(PlaneId(p as u32))
    }
}

impl BufferedDemultiplexor for BufferedStaleDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::RealTimeDistributed { u: self.u }
    }

    fn slot_decision(
        &mut self,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        let now = ctx.local.now;
        if let Some(head) = buffer.first() {
            if head.arrival + self.hold <= now {
                if let Some(plane) = self.pick(input.idx(), head.output.0, ctx) {
                    out.releases.push((0, plane));
                }
            }
        }
        let released_none = out.releases.is_empty();
        out.arrival = arrival.map(|cell| {
            if self.hold == 0 && released_none && buffer.is_empty() {
                match self.pick(input.idx(), cell.output.0, ctx) {
                    Some(plane) => ArrivalAction::Dispatch(plane),
                    None => ArrivalAction::Enqueue,
                }
            } else {
                ArrivalAction::Enqueue
            }
        });
    }

    /// The head ripens at `arrival + hold`; until then `slot_decision`
    /// holds without touching `recent` (`pick` runs only on release).
    fn buffered_next_activity(
        &self,
        _input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        Some((head.arrival + self.hold).max(local.now + 1))
    }
}

// ---------------------------------------------------------------------------
// Arbitrated crossbar
// ---------------------------------------------------------------------------

/// Request/grant arbitrated dispatch with a `u`-slot round trip.
///
/// On arrival a cell waits in the input buffer; `u` slots later the grant
/// arrives, carrying the arbiter's plane choice computed from the global
/// state the arbiter saw when the request was issued (stale by `u`). The
/// arbiter is a least-loaded chooser over the stale snapshot, corrected by
/// the grants it has itself issued since (the arbiter knows its own
/// grants). The paper cites Tamir & Chi's arbitrated crossbars as the
/// canonical `u`-RT hardware.
#[derive(Clone, Debug)]
pub struct ArbitratedCrossbarDemux {
    u: Slot,
    k: usize,
    /// Grants issued since the snapshot horizon: `(slot, plane, output)`.
    recent_grants: VecDeque<(Slot, u32, u32)>,
}

impl ArbitratedCrossbarDemux {
    /// Arbitrated dispatch with grant latency `u ≥ 1` over `k` planes.
    pub fn new(k: usize, u: Slot) -> Self {
        assert!(u >= 1, "u-RT requires u >= 1");
        ArbitratedCrossbarDemux {
            u,
            k,
            recent_grants: VecDeque::new(),
        }
    }

    /// Compute the grant for a ripe cell, or `None` when no input line is
    /// free (possible under faults) — the grant is then retried next slot
    /// with the arbiter state untouched.
    fn grant(&mut self, output: u32, ctx: &DispatchCtx<'_>) -> Option<PlaneId> {
        ctx.local.free_planes().next()?;
        let horizon = ctx.global.map_or(0, |s| s.taken_at);
        while let Some(&(slot, _, _)) = self.recent_grants.front() {
            if slot <= horizon {
                self.recent_grants.pop_front();
            } else {
                break;
            }
        }
        let estimate = |p: usize| -> u64 {
            let base = ctx
                .global
                .map_or(0, |s| s.queue_len(p, output as usize) as u64);
            let own = self
                .recent_grants
                .iter()
                .filter(|&&(_, gp, gj)| gp as usize == p && gj == output)
                .count() as u64;
            base + own
        };
        let p = (0..self.k)
            .filter(|&p| ctx.local.is_free(p))
            .min_by_key(|&p| (estimate(p), p))
            .expect("a free plane exists past the guard above");
        self.recent_grants
            .push_back((ctx.local.now, p as u32, output));
        Some(PlaneId(p as u32))
    }
}

impl BufferedDemultiplexor for ArbitratedCrossbarDemux {
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
        let now = ctx.local.now;
        if let Some(head) = buffer.first() {
            if head.arrival + self.u <= now {
                if let Some(plane) = self.grant(head.output.0, ctx) {
                    out.releases.push((0, plane));
                }
            }
        }
        out.arrival = arrival.map(|_| ArrivalAction::Enqueue);
    }

    /// The grant for the head arrives at `arrival + u`; earlier slots are
    /// state-neutral holds (`grant` runs only on release).
    fn buffered_next_activity(
        &self,
        _input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        Some((head.arrival + self.u).max(local.now + 1))
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
