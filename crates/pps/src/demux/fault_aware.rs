//! Fault-aware dispatch: reroute around planes believed down.
//!
//! The paper motivates unpartitioned algorithms by fault tolerance (§3),
//! but its algorithms never *see* a failure — they only survive one by
//! spreading load. These variants consume the [`PlaneMask`] the engine
//! folds into the global snapshot and steer cells away from masked
//! planes. Because the mask travels on the ordinary information bus, the
//! reaction time is class-correct by construction: a centralized variant
//! reroutes in the failure slot, a `u`-RT variant keeps feeding a dead
//! plane for `u` more slots, and a fully-distributed algorithm (which has
//! no bus) never learns at all — exactly the gradient the A1 fail→recover
//! ablation measures.
//!
//! Both variants (centralized and `u`-RT) degrade gracefully: if every
//! believed-up plane is busy, they fall back to any free plane (a
//! bufferless input must dispatch *somewhere*), and with no snapshot yet
//! (`now < u`) they behave like their fault-blind counterpart.

use pps_core::prelude::*;

/// Whether the observer's snapshot (if any) believes `plane` is up.
fn believed_up(global: Option<&GlobalSnapshot>, plane: usize) -> bool {
    global.is_none_or(|s| s.plane_mask.is_up(plane))
}

/// Round-robin over the planes believed up.
///
/// Same rotating pointer as [`super::RoundRobinDemux`], but planes masked
/// down in the observer's snapshot are skipped. On a fault-free run the
/// dispatch sequence is identical to the fault-blind round robin.
#[derive(Clone, Debug)]
pub struct FaultAwareRoundRobinDemux {
    next: Vec<u32>,
    k: u32,
    class: InfoClass,
}

impl FaultAwareRoundRobinDemux {
    /// A centralized fault-aware round robin: sees the current mask.
    pub fn centralized(n: usize, k: usize) -> Self {
        FaultAwareRoundRobinDemux {
            next: vec![0; n],
            k: k as u32,
            class: InfoClass::Centralized,
        }
    }

    /// A `u`-RT fault-aware round robin: sees the mask `u` slots stale.
    ///
    /// # Panics
    /// Panics if `u == 0` (that would be centralized).
    pub fn urt(n: usize, k: usize, u: Slot) -> Self {
        assert!(u >= 1, "u-RT requires u >= 1");
        FaultAwareRoundRobinDemux {
            next: vec![0; n],
            k: k as u32,
            class: InfoClass::RealTimeDistributed { u },
        }
    }
}

impl Demultiplexor for FaultAwareRoundRobinDemux {
    fn info_class(&self) -> InfoClass {
        self.class
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        let i = cell.input.idx();
        let start = self.next[i] as usize;
        let p = ctx
            .local
            .next_free_where(start, |p| believed_up(ctx.global, p))
            // Every believed-up plane is busy: dispatch to any free plane
            // rather than drop — the belief may be stale anyway.
            .or_else(|| ctx.local.next_free_from(start))
            .expect("valid bufferless config guarantees a free plane (K >= r')");
        self.next[i] = (p as u32 + 1) % self.k;
        PlaneId(p as u32)
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

    fn snap_with_down(n: usize, k: usize, taken_at: Slot, down: &[usize]) -> GlobalSnapshot {
        let mut s = GlobalSnapshot::empty(n, k, taken_at);
        for &p in down {
            s.plane_mask.set_up(p, false);
        }
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
    fn round_robin_skips_masked_planes() {
        let mut d = FaultAwareRoundRobinDemux::centralized(1, 3);
        let s = snap_with_down(1, 3, 0, &[1]);
        let free = vec![0u64; 3];
        let picks: Vec<PlaneId> = (0..4)
            .map(|t| d.dispatch(&cell(0, 0), &ctx(t, &free, Some(&s))))
            .collect();
        assert_eq!(picks, vec![PlaneId(0), PlaneId(2), PlaneId(0), PlaneId(2)]);
    }

    #[test]
    fn round_robin_matches_fault_blind_when_all_up() {
        let mut aware = FaultAwareRoundRobinDemux::centralized(1, 3);
        let mut blind = super::super::RoundRobinDemux::new(1, 3);
        let s = snap_with_down(1, 3, 0, &[]);
        let free = vec![0u64; 3];
        for t in 0..6 {
            assert_eq!(
                aware.dispatch(&cell(0, 0), &ctx(t, &free, Some(&s))),
                blind.dispatch(&cell(0, 0), &ctx(t, &free, None)),
            );
        }
    }

    #[test]
    fn round_robin_falls_back_when_every_up_plane_is_busy() {
        let mut d = FaultAwareRoundRobinDemux::centralized(1, 2);
        let s = snap_with_down(1, 2, 0, &[1]);
        // Plane 0 (the only believed-up one) is busy; plane 1 is free.
        let busy = vec![10u64, 0];
        assert_eq!(
            d.dispatch(&cell(0, 0), &ctx(0, &busy, Some(&s))),
            PlaneId(1)
        );
    }

    #[test]
    fn no_snapshot_means_fault_blind() {
        let mut d = FaultAwareRoundRobinDemux::urt(1, 2, 3);
        assert_eq!(d.info_class(), InfoClass::RealTimeDistributed { u: 3 });
        let free = vec![0u64; 2];
        // now < u: no view yet; behaves like plain round robin.
        assert_eq!(d.dispatch(&cell(0, 0), &ctx(0, &free, None)), PlaneId(0));
        assert_eq!(d.dispatch(&cell(0, 0), &ctx(1, &free, None)), PlaneId(1));
    }
}
