//! Global switch-state snapshots and the delayed-information bus.
//!
//! The paper classifies demultiplexing algorithms by the information they
//! may consult (Section 1): *fully-distributed* algorithms see only their
//! input port, *`u` real-time distributed* (`u`-RT) algorithms additionally
//! see the global switch state **older than `u` slots**, and *centralized*
//! algorithms see the current global state.
//!
//! [`GlobalSnapshot`] is the observable global state at one instant;
//! [`SnapshotRing`] retains the last `u + 1` snapshots so the engine can
//! hand each demultiplexor exactly the view its class entitles it to.

use crate::fault::PlaneMask;
use crate::time::Slot;
use std::collections::VecDeque;

/// Observable global state of a PPS at one slot.
///
/// Contents mirror the paper's notion of a *switch configuration*: the
/// buffer contents of every plane (as per-destination queue lengths), the
/// input-buffer occupancy, and the backlog at the output multiplexors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalSnapshot {
    /// Slot at which this snapshot was taken.
    pub taken_at: Slot,
    /// Number of planes `K`.
    pub k: usize,
    /// Number of ports `N`.
    pub n: usize,
    /// Queue length of plane `k`'s buffer for output `j`, at `k * n + j`.
    pub plane_queue_len: Box<[u32]>,
    /// Occupancy of each input-port buffer, one entry per input; empty in
    /// the snapshots a bufferless PPS publishes, which has no input buffers.
    pub input_buffer_len: Box<[u32]>,
    /// Cells waiting at each output multiplexor.
    pub output_pending: Box<[u32]>,
    /// Which planes were up when the snapshot was taken. Part of the
    /// observable state, so failure knowledge propagates with exactly the
    /// information delay of the observer's class: a centralized
    /// demultiplexor sees the current mask, a `u`-RT one a mask `u` slots
    /// stale, a fully-distributed one no mask at all.
    pub plane_mask: PlaneMask,
}

impl GlobalSnapshot {
    /// An all-empty snapshot at `taken_at`.
    pub fn empty(n: usize, k: usize, taken_at: Slot) -> Self {
        GlobalSnapshot {
            taken_at,
            k,
            n,
            plane_queue_len: vec![0; k * n].into_boxed_slice(),
            input_buffer_len: vec![0; n].into_boxed_slice(),
            output_pending: vec![0; n].into_boxed_slice(),
            plane_mask: PlaneMask::all_up(k),
        }
    }

    /// Queue length of plane `plane`'s buffer for output `output`.
    #[inline]
    pub fn queue_len(&self, plane: usize, output: usize) -> u32 {
        self.plane_queue_len[plane * self.n + output]
    }
}

/// Ring of recent snapshots implementing the `u`-slot information delay.
#[derive(Clone, Debug)]
pub struct SnapshotRing {
    ring: VecDeque<GlobalSnapshot>,
    delay: Slot,
}

impl SnapshotRing {
    /// A ring serving views delayed by `delay` slots (`delay = 0` models a
    /// centralized algorithm's immediate knowledge).
    pub fn new(delay: Slot) -> Self {
        SnapshotRing {
            ring: VecDeque::with_capacity(delay as usize + 1),
            delay,
        }
    }

    /// The configured information delay `u`.
    pub fn delay(&self) -> Slot {
        self.delay
    }

    /// Record the snapshot for the current slot. Must be called with
    /// strictly increasing `taken_at`.
    pub fn push(&mut self, snap: GlobalSnapshot) {
        if let Some(last) = self.ring.back() {
            debug_assert!(snap.taken_at > last.taken_at, "snapshots must advance");
        }
        self.ring.push_back(snap);
        while self.ring.len() > self.delay as usize + 1 {
            self.ring.pop_front();
        }
    }

    /// Take back the slot that the next [`push`](Self::push) would evict,
    /// so the caller can overwrite its buffers in place instead of
    /// allocating a fresh snapshot every slot. Returns `None` while the
    /// ring is still filling (the first `delay + 1` pushes).
    pub fn recycle_slot(&mut self) -> Option<GlobalSnapshot> {
        if self.ring.len() > self.delay as usize {
            self.ring.pop_front()
        } else {
            None
        }
    }

    /// The view available at `now`: the snapshot taken at `now − delay`, or
    /// `None` during the first `delay` slots of the run (when no
    /// sufficiently old global information exists yet — the paper's `[0,
    /// t − u]` window is empty).
    pub fn view(&self, now: Slot) -> Option<&GlobalSnapshot> {
        let want = now.checked_sub(self.delay)?;
        // Snapshots are pushed every slot, so the front of the ring is the
        // oldest retained; index arithmetic finds `want` directly.
        let first = self.ring.front()?.taken_at;
        let idx = want.checked_sub(first)? as usize;
        self.ring.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t: Slot, lens: &[u32]) -> GlobalSnapshot {
        let mut s = GlobalSnapshot::empty(2, 2, t);
        s.plane_queue_len.copy_from_slice(lens);
        s
    }

    #[test]
    fn ring_serves_exactly_u_old_views() {
        let mut ring = SnapshotRing::new(3);
        for t in 0..10 {
            ring.push(snap(t, &[t as u32, 0, 0, 0]));
        }
        // At slot 9 the view is the snapshot from slot 6.
        assert_eq!(ring.view(9).unwrap().taken_at, 6);
        // Older snapshots are discarded.
        assert!(ring.view(3).is_none() || ring.view(3).unwrap().taken_at == 0);
    }

    #[test]
    fn no_view_before_u_slots_elapse() {
        let mut ring = SnapshotRing::new(5);
        ring.push(snap(0, &[0, 0, 0, 0]));
        ring.push(snap(1, &[0, 0, 0, 0]));
        assert!(ring.view(1).is_none());
        assert!(ring.view(4).is_none());
    }

    #[test]
    fn recycle_returns_the_slot_push_would_evict() {
        let mut ring = SnapshotRing::new(2);
        for t in 0..3 {
            assert!(ring.recycle_slot().is_none(), "ring still filling at {t}");
            ring.push(snap(t, &[0, 0, 0, 0]));
        }
        // Full: recycling hands back the oldest snapshot for reuse, and a
        // subsequent push restores the invariant length of delay + 1.
        let old = ring.recycle_slot().expect("ring full");
        assert_eq!(old.taken_at, 0);
        ring.push(snap(3, &[0, 0, 0, 0]));
        assert_eq!(ring.view(3).unwrap().taken_at, 1);
        assert_eq!(ring.view(5).unwrap().taken_at, 3);
    }

    #[test]
    fn zero_delay_is_the_centralized_view() {
        let mut ring = SnapshotRing::new(0);
        ring.push(snap(7, &[1, 2, 3, 4]));
        assert_eq!(ring.view(7).unwrap().taken_at, 7);
    }
}
