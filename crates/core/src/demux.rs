//! Demultiplexor state machines.
//!
//! The paper models the dispatching logic at each input port as a
//! deterministic state machine ("demultiplexor") and classifies algorithms
//! by the information a dispatch decision may use:
//!
//! * **fully-distributed** (Definition 5): only the input port's own history
//!   `[0, t]`;
//! * **`u` real-time distributed** (Definition 9): the local history plus
//!   global switch information from `[0, t − u]`;
//! * **centralized**: full and immediate global knowledge.
//!
//! [`Demultiplexor`] (bufferless, Definition 1) and
//! [`BufferedDemultiplexor`] (input-buffered, Definition 2) encode these
//! classes. A single trait object serves *all* `N` input ports — the
//! `input` argument says which port's automaton is deciding. Fully
//! distributed implementations keep a per-input state vector and may only
//! touch the entry for the deciding input; the engine hands them no global
//! view at all, so the classification is enforced by construction, not by
//! convention.
//!
//! All implementations must be **deterministic** given their seed. The
//! traits are the whole contract an engine drives; the adversarial
//! constructions of `pps-traffic` additionally ask for [`Clone`]: they
//! clone a demultiplexor and feed it hypothetical traffic to discover
//! concentrating configurations — a mechanical rendition of the proof of
//! Theorem 6, which navigates the strongly-connected configuration graph
//! of the automaton.

use crate::cell::Cell;
use crate::ids::{PlaneId, PortId};
use crate::snapshot::GlobalSnapshot;
use crate::time::Slot;

/// Information class of a demultiplexing algorithm (paper, Section 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InfoClass {
    /// Decisions use only the deciding input port's local history.
    FullyDistributed,
    /// Decisions may also use global information older than `u` slots.
    RealTimeDistributed {
        /// The information delay `u ≥ 1`.
        u: Slot,
    },
    /// Decisions use full, immediate global information.
    Centralized,
}

impl InfoClass {
    /// The information delay: `None` for fully distributed (no global
    /// information at all), `Some(u)` for `u`-RT, `Some(0)` for centralized.
    pub fn delay(self) -> Option<Slot> {
        match self {
            InfoClass::FullyDistributed => None,
            InfoClass::RealTimeDistributed { u } => Some(u),
            InfoClass::Centralized => Some(0),
        }
    }
}

/// The local information available to the demultiplexor of one input port:
/// the occupancy of its own `K` internal lines.
#[derive(Clone, Copy, Debug)]
pub struct LocalView<'a> {
    /// Current slot.
    pub now: Slot,
    /// The deciding input port.
    pub input: PortId,
    /// `busy_until[k]` for each of this input's lines.
    pub link_busy_until: &'a [Slot],
}

impl<'a> LocalView<'a> {
    /// Number of planes.
    #[inline]
    fn k(&self) -> usize {
        self.link_busy_until.len()
    }

    /// Is the line to `plane` free this slot?
    #[inline]
    pub fn is_free(&self, plane: usize) -> bool {
        self.link_busy_until[plane] <= self.now
    }

    /// Iterator over the planes whose line is free this slot.
    pub fn free_planes(&self) -> impl Iterator<Item = usize> + '_ {
        let now = self.now;
        self.link_busy_until
            .iter()
            .enumerate()
            .filter(move |(_, &bu)| bu <= now)
            .map(|(p, _)| p)
    }

    /// First free plane at or after `start`, scanning cyclically. The
    /// building block of every round-robin-style algorithm.
    pub fn next_free_from(&self, start: usize) -> Option<usize> {
        self.next_free_where(start, |_| true)
    }

    /// First free plane at or after `start`, scanning cyclically, that
    /// `ok` also accepts — the one rotating scan: a round robin that must
    /// skip planes it has used this slot, or believes down, narrows it
    /// here instead of writing its own.
    #[inline]
    pub fn next_free_where(&self, start: usize, ok: impl Fn(usize) -> bool) -> Option<usize> {
        let k = self.k();
        (0..k)
            .map(|off| (start + off) % k)
            .find(|&p| self.is_free(p) && ok(p))
    }
}

/// Full dispatch context: the local view plus whatever global view the
/// algorithm's class entitles it to (`None` for fully distributed, the
/// `u`-old snapshot for `u`-RT once `u` slots have elapsed, the current
/// snapshot for centralized).
#[derive(Clone, Copy, Debug)]
pub struct DispatchCtx<'a> {
    /// This input port's local view.
    pub local: LocalView<'a>,
    /// Delayed or immediate global view, per the algorithm's [`InfoClass`].
    pub global: Option<&'a GlobalSnapshot>,
}

/// A bufferless demultiplexing algorithm (paper, Definition 1):
/// `D_i : destination × state → plane`.
pub trait Demultiplexor: Send {
    /// The algorithm's information class.
    fn info_class(&self) -> InfoClass;

    /// Dispatch a cell arriving *now* at `cell.input`. Must return a plane
    /// whose input line is free (`ctx.local.is_free(plane)`); the engine
    /// verifies and fails the run otherwise.
    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId;

    /// Hook invoked once per slot before any arrival of that slot, with the
    /// global view the class entitles the algorithm to. Fully-distributed
    /// algorithms receive `None` and — per Definition 5 — must not change
    /// state here when no cell arrives; the default body does nothing.
    fn on_slot(&mut self, _now: Slot, _global: Option<&GlobalSnapshot>) {}

    /// The next slot strictly after `now` at which this automaton needs to
    /// be stepped even without an arrival, or `None` if it is quiescent
    /// until the next cell. Skip-ahead engines do **not** invoke
    /// [`on_slot`](Self::on_slot) for slots a jump elides, so any algorithm
    /// whose state ages with time (timers, decaying counters) must report
    /// its next wake-up here. The default — correct for every stateless or
    /// arrival-driven automaton, per Definition 5 — is `None`.
    fn next_activity(&self, _now: Slot) -> Option<Slot> {
        None
    }
}

/// A boxed demultiplexor is a demultiplexor: lets a caller that picks the
/// algorithm at run time hand the engine a `Box<dyn Demultiplexor>`.
impl<D: Demultiplexor + ?Sized> Demultiplexor for Box<D> {
    fn info_class(&self) -> InfoClass {
        (**self).info_class()
    }
    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        (**self).dispatch(cell, ctx)
    }
    fn on_slot(&mut self, now: Slot, global: Option<&GlobalSnapshot>) {
        (**self).on_slot(now, global)
    }
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        (**self).next_activity(now)
    }
}

/// What to do with the cell arriving this slot at a buffered input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalAction {
    /// Send the arriving cell straight to `PlaneId` (its line must be free).
    Dispatch(PlaneId),
    /// Store the arriving cell at the tail of the input buffer.
    Enqueue,
}

/// A buffered demultiplexor's decision for one input port in one slot
/// (paper, Definition 2: the decision vector over buffer slots plus the
/// incoming cell).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BufferedDecision {
    /// Buffered cells to release this slot, as `(buffer index, plane)`
    /// pairs. Indices refer to the buffer as passed in (head = 0) and must
    /// be distinct; every named plane's line must be free and the planes
    /// distinct (one line carries one cell per slot).
    pub releases: Vec<(usize, PlaneId)>,
    /// Action for the arriving cell; must be `Some` iff a cell arrived.
    pub arrival: Option<ArrivalAction>,
}

impl BufferedDecision {
    /// Keep the arriving cell (if any) in the buffer and release nothing.
    pub fn hold(arrived: bool) -> Self {
        BufferedDecision {
            releases: Vec::new(),
            arrival: arrived.then_some(ArrivalAction::Enqueue),
        }
    }

    /// Empty the decision (keeping the `releases` allocation) so the same
    /// instance can be refilled slot after slot.
    pub fn clear(&mut self) {
        self.releases.clear();
        self.arrival = None;
    }
}

/// An input-buffered demultiplexing algorithm (paper, Definition 2).
pub trait BufferedDemultiplexor: Send {
    /// The algorithm's information class.
    fn info_class(&self) -> InfoClass;

    /// Per-slot decision for one input port. `buffer` lists the currently
    /// stored cells head-to-tail; `arrival` is this slot's incoming cell,
    /// if any. The decision is written into `out`, which the engine hands
    /// in cleared and reuses across slots so deciding allocates nothing.
    fn slot_decision(
        &mut self,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    );

    /// The next slot strictly after `now` at which this automaton needs a
    /// [`slot_decision`](Self::slot_decision) call even without an arrival
    /// or buffered cell, or `None` if it is quiescent until then. See
    /// [`Demultiplexor::next_activity`]; buffer-driven wake-ups are
    /// reported separately via
    /// [`buffered_next_activity`](Self::buffered_next_activity), so only
    /// time-aging state (timers, decaying counters) needs reporting here.
    fn next_activity(&self, _now: Slot) -> Option<Slot> {
        None
    }

    /// The next slot strictly after `local.now` at which this automaton
    /// might *act on* the buffered head cell `head` of `input` — release
    /// it, or mutate per-input state because of it. Skip-ahead engines
    /// fold this over every non-empty input buffer to size a jump; waking
    /// *early* is always safe (the dense walk would have made a hold
    /// decision and changed nothing), waking late past an acting slot is
    /// not. The conservative default, `now + 1`, forces dense stepping
    /// while the buffer is non-empty — exactly the pre-skip-ahead
    /// behavior — so implementations only override it when they can bound
    /// their next release (e.g. a hold-for-`u`-slots rule).
    fn buffered_next_activity(
        &self,
        input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        let _ = (input, head);
        Some(local.now + 1)
    }
}

/// The buffered twin of the `Box` impl above.
impl<D: BufferedDemultiplexor + ?Sized> BufferedDemultiplexor for Box<D> {
    fn info_class(&self) -> InfoClass {
        (**self).info_class()
    }
    fn slot_decision(
        &mut self,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        (**self).slot_decision(input, arrival, buffer, ctx, out)
    }
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        (**self).next_activity(now)
    }
    fn buffered_next_activity(
        &self,
        input: PortId,
        head: &Cell,
        local: &LocalView<'_>,
    ) -> Option<Slot> {
        (**self).buffered_next_activity(input, head, local)
    }
}

/// Probe helper: ask `demux` what it *would* do with `cell` at `now`,
/// assuming all of the input's lines are free, by running the real
/// automaton on a scratch clone-free context. Mutates `demux` — clone
/// first if the probe must not perturb live state.
pub fn probe_dispatch<D: Demultiplexor + ?Sized>(
    demux: &mut D,
    cell: &Cell,
    now: Slot,
    all_free: &[Slot],
) -> PlaneId {
    let ctx = DispatchCtx {
        local: LocalView {
            now,
            input: cell.input,
            link_busy_until: all_free,
        },
        global: None,
    };
    demux.dispatch(cell, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CellId;

    #[test]
    fn local_view_free_scan() {
        let busy = [0u64, 10, 0, 10];
        let v = LocalView {
            now: 5,
            input: PortId(0),
            link_busy_until: &busy,
        };
        assert_eq!(v.k(), 4);
        assert!(v.is_free(0));
        assert!(!v.is_free(1));
        let free: Vec<usize> = v.free_planes().collect();
        assert_eq!(free, vec![0, 2]);
        assert_eq!(v.next_free_from(1), Some(2));
        assert_eq!(v.next_free_from(3), Some(0));
        assert_eq!(v.next_free_where(1, |p| p != 2), Some(0));
        assert_eq!(v.next_free_where(0, |p| p % 2 == 1), None);
    }

    #[test]
    fn next_free_none_when_all_busy() {
        let busy = [9u64, 9];
        let v = LocalView {
            now: 3,
            input: PortId(0),
            link_busy_until: &busy,
        };
        assert_eq!(v.next_free_from(0), None);
    }

    #[test]
    fn info_class_delay() {
        assert_eq!(InfoClass::FullyDistributed.delay(), None);
        assert_eq!(InfoClass::RealTimeDistributed { u: 4 }.delay(), Some(4));
        assert_eq!(InfoClass::Centralized.delay(), Some(0));
    }

    /// A toy demux to exercise the probe helper.
    #[derive(Clone)]
    struct Fixed(u32);
    impl Demultiplexor for Fixed {
        fn info_class(&self) -> InfoClass {
            InfoClass::FullyDistributed
        }
        fn dispatch(&mut self, _c: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
            PlaneId(self.0)
        }
    }

    #[test]
    fn probe_runs_the_real_automaton() {
        let mut d = Fixed(2);
        let cell = Cell {
            id: CellId(0),
            input: PortId(1),
            output: PortId(0),
            seq: 0,
            arrival: 0,
        };
        let free = vec![0u64; 4];
        assert_eq!(probe_dispatch(&mut d, &cell, 0, &free), PlaneId(2));
    }
}
