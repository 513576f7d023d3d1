//! `u` real-time distributed (u-RT) dispatch by stale least-loaded plane.
//!
//! A natural member of the paper's Definition 9 class: the demultiplexor
//! ranks planes by their queue length for the cell's destination **as of
//! the global snapshot from `u` slots ago**, corrected by the input's own
//! dispatches since then (which are local information and therefore usable
//! in real time), and picks the least-loaded free plane.
//!
//! This is the class Theorem 10 lower-bounds: during the last `u` slots,
//! the demultiplexors of different inputs cannot see one another's
//! dispatches, so symmetric inputs make *identical* plane choices and a
//! burst of `u'·N/K` coordinated flows concentrates `u'·N/K` cells on one
//! plane — the `(1 − u'·r/R)·u'·N/S` bound. Arbitrated crossbars
//! (request/grant with a `u`-slot round trip) are the paper's practical
//! example of this class.

use pps_core::prelude::*;
use std::collections::VecDeque;

/// Stale-information least-loaded demultiplexor.
#[derive(Clone, Debug)]
pub struct StaleLeastLoadedDemux {
    u: Slot,
    k: usize,
    /// Per history lane (one per input): own dispatches `(slot, plane,
    /// output)` not yet reflected in the stale snapshot.
    recent: Vec<VecDeque<(Slot, u32, u32)>>,
}

impl StaleLeastLoadedDemux {
    /// A `u`-RT least-loaded demultiplexor for `n` inputs over `k` planes.
    ///
    /// # Panics
    /// Panics if `u == 0` (that would be a centralized algorithm; use
    /// [`crate::demux::CpaDemux`]).
    pub fn new(n: usize, k: usize, u: Slot) -> Self {
        assert!(u >= 1, "u-RT requires u >= 1");
        StaleLeastLoadedDemux {
            u,
            k,
            recent: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// One pick on history lane `lane`: forget the lane's dispatches the
    /// snapshot has caught up with, rank the free planes by stale queue
    /// length for `output` plus the lane's own unseen dispatches, take the
    /// least loaded and remember it. A lane is whatever shares one memory
    /// — an input port here, the whole arbiter under a grant rule.
    /// `ctx.local` must show a free line.
    pub(super) fn pick(&mut self, lane: usize, output: u32, ctx: &DispatchCtx<'_>) -> PlaneId {
        let recent = &mut self.recent[lane];
        let horizon = ctx.global.map_or(0, |s| s.taken_at);
        while recent.front().is_some_and(|&(slot, _, _)| slot <= horizon) {
            recent.pop_front();
        }
        let estimate = |p: usize| -> u64 {
            let base = ctx
                .global
                .map_or(0, |s| s.queue_len(p, output as usize) as u64);
            let own = recent
                .iter()
                .filter(|&&(_, gp, gj)| gp as usize == p && gj == output)
                .count() as u64;
            base + own
        };
        let p = (0..self.k)
            .filter(|&p| ctx.local.is_free(p))
            .min_by_key(|&p| (estimate(p), p))
            .expect("the caller guarantees a free plane");
        recent.push_back((ctx.local.now, p as u32, output));
        PlaneId(p as u32)
    }
}

impl Demultiplexor for StaleLeastLoadedDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::RealTimeDistributed { u: self.u }
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.pick(cell.input.idx(), cell.output.0, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(input: u32, output: u32) -> Cell {
        Cell {
            id: CellId(0),
            input: PortId(input),
            output: PortId(output),
            seq: 0,
            arrival: 0,
        }
    }

    fn snap(n: usize, k: usize, taken_at: Slot, lens: &[u32]) -> GlobalSnapshot {
        let mut s = GlobalSnapshot::empty(n, k, taken_at);
        s.plane_queue_len.copy_from_slice(lens);
        s
    }

    fn ctx<'a>(now: Slot, busy: &'a [Slot], snap: Option<&'a GlobalSnapshot>) -> DispatchCtx<'a> {
        DispatchCtx {
            local: LocalView {
                now,
                input: PortId(0),
                link_busy_until: busy,
            },
            global: snap,
        }
    }

    #[test]
    fn follows_the_stale_ranking() {
        let mut d = StaleLeastLoadedDemux::new(1, 3, 2);
        // n=2 snapshot, k=3: queue lens for output 0: plane0=5, plane1=1, plane2=3.
        let s = snap(2, 3, 0, &[5, 0, 1, 0, 3, 0]);
        let free = vec![0u64; 3];
        let p = d.dispatch(&cell(0, 0), &ctx(2, &free, Some(&s)));
        assert_eq!(p, PlaneId(1));
    }

    #[test]
    fn accounts_for_own_recent_sends() {
        let mut d = StaleLeastLoadedDemux::new(1, 2, 4);
        // Both planes look empty in the stale view.
        let s = snap(1, 2, 0, &[0, 0]);
        let free = vec![0u64; 2];
        // Two dispatches at slots 1 and 2: the demux should alternate,
        // because it remembers its own (locally known) sends.
        let a = d.dispatch(&cell(0, 0), &ctx(1, &free, Some(&s)));
        let b = d.dispatch(&cell(0, 0), &ctx(2, &free, Some(&s)));
        assert_eq!(a, PlaneId(0));
        assert_eq!(b, PlaneId(1));
    }

    #[test]
    fn history_is_pruned_once_snapshot_catches_up() {
        let mut d = StaleLeastLoadedDemux::new(1, 2, 2);
        let s0 = snap(1, 2, 0, &[0, 0]);
        let free = vec![0u64; 2];
        d.dispatch(&cell(0, 0), &ctx(1, &free, Some(&s0)));
        assert_eq!(d.recent[0].len(), 1);
        // A snapshot from slot 3 includes the slot-1 dispatch.
        let s3 = snap(1, 2, 3, &[1, 0]);
        d.dispatch(&cell(0, 0), &ctx(5, &free, Some(&s3)));
        // The old entry was pruned; only the new dispatch remains.
        assert_eq!(d.recent[0].len(), 1);
        assert_eq!(d.recent[0][0].0, 5);
    }

    #[test]
    fn symmetric_inputs_choose_identically() {
        // The heart of the Theorem 10 attack: two inputs with the same
        // stale view and no knowledge of each other pick the same plane.
        let mut d = StaleLeastLoadedDemux::new(2, 4, 8);
        let s = snap(2, 4, 0, &[3, 0, 1, 0, 2, 0, 7, 0]);
        let free = vec![0u64; 4];
        let p0 = d.dispatch(&cell(0, 0), &ctx(3, &free, Some(&s)));
        let p1 = d.dispatch(&cell(1, 0), &ctx(3, &free, Some(&s)));
        assert_eq!(p0, p1);
        assert_eq!(p0, PlaneId(1));
    }

    #[test]
    fn without_global_view_falls_back_deterministically() {
        let mut d = StaleLeastLoadedDemux::new(2, 3, 5);
        let free = vec![0u64; 3];
        // No snapshot yet (now < u): both inputs pick plane 0.
        assert_eq!(d.dispatch(&cell(0, 0), &ctx(1, &free, None)), PlaneId(0));
        assert_eq!(d.dispatch(&cell(1, 0), &ctx(1, &free, None)), PlaneId(0));
    }
}
