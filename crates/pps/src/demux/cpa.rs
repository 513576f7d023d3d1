//! Centralized plane assignment (CPA), after Iyer, Awadallah & McKeown \[14\].
//!
//! CPA is the centralized algorithm the paper contrasts its lower bounds
//! against: with speedup `S ≥ 2` it lets a bufferless PPS mimic a FCFS
//! output-queued switch with **zero relative queuing delay** — at the cost
//! of needing full, immediate global knowledge for every dispatch, which is
//! what makes it impractical at line rate.
//!
//! Mechanism. Every arriving cell is assigned its FCFS-OQ departure
//! deadline `dt = max(now, dt_last[j] + 1)`. A plane `p` is *feasible* if
//! (a) the input line `(i, p)` is free now (the input constraint), and (b)
//! the plane→output line `(p, j)` has no reserved departure within `r' − 1`
//! slots of `dt` (the output constraint). Because at most `r' − 1` planes
//! are excluded by (a) and at most `r' − 1` by (b), `K ≥ 2r'` (i.e. `S ≥
//! 2`) guarantees a feasible plane. Reserved departures per `(p, j)` line
//! are strictly increasing, so a single `last_reserved` matrix suffices.
//!
//! Run CPA with [`pps_core::OutputDiscipline::GlobalFcfs`]: greedy FIFO
//! plane service delivers every cell to its output by its deadline, and the
//! global-FCFS multiplexor emits it exactly at the reference switch's
//! departure slot.
//!
//! When `S < 2` feasibility can fail; the implementation then falls back to
//! the least-reserved free plane and counts a *deadline miss* — giving the
//! experiments a knob to show how CPA degrades below the speedup threshold
//! (ablation A2).

use pps_core::prelude::*;

/// Centralized plane-assignment demultiplexor.
#[derive(Clone, Debug)]
pub struct CpaDemux {
    n: usize,
    r_prime: Slot,
    /// Last FCFS-OQ departure deadline issued per output.
    dt_last: Vec<Option<Slot>>,
    /// Last reserved departure slot per `(plane, output)` line
    /// (`None` = never reserved).
    last_reserved: Vec<Option<Slot>>,
    /// Dispatches for which no deadline-feasible plane existed.
    deadline_misses: u64,
}

impl CpaDemux {
    /// CPA for an `n × n` PPS with `k` planes and slowdown `r_prime`.
    pub fn new(n: usize, k: usize, r_prime: usize) -> Self {
        CpaDemux {
            n,
            r_prime: r_prime as Slot,
            dt_last: vec![None; n],
            last_reserved: vec![None; k * n],
            deadline_misses: 0,
        }
    }

    /// Number of dispatches that could not meet their FCFS deadline (stays
    /// 0 whenever `S ≥ 2`).
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// The reservation step: book a plane for a cell to `output` whose
    /// FCFS-OQ deadline counts from `base` — `now` for CPA proper,
    /// `arrival + u` under the Theorem 12 hold rule, where a head released
    /// late must still book the slot it ripened in. `local` must show a
    /// free line.
    pub(super) fn reserve(&mut self, output: usize, base: Slot, local: &LocalView<'_>) -> PlaneId {
        let dt = match self.dt_last[output] {
            Some(prev) => base.max(prev + 1),
            None => base,
        };
        self.dt_last[output] = Some(dt);

        // Among the free input lines, the plane whose line to `output` has
        // been idle the longest: it spreads reservations evenly, and if
        // even its last reservation is within r' of `dt`, no free plane is
        // feasible.
        let n = self.n;
        let line = |p: usize| p * n + output;
        let p = local
            .free_planes()
            .min_by_key(|&p| (self.last_reserved[line(p)], p))
            .expect("the caller guarantees a free plane");
        let at = match self.last_reserved[line(p)] {
            // S < 2 degradation path: push the reservation late.
            Some(last) if last + self.r_prime > dt => {
                self.deadline_misses += 1;
                last + self.r_prime
            }
            _ => dt,
        };
        self.last_reserved[line(p)] = Some(at);
        PlaneId(p as u32)
    }
}

impl Demultiplexor for CpaDemux {
    fn info_class(&self) -> InfoClass {
        InfoClass::Centralized
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.reserve(cell.output.idx(), ctx.local.now, &ctx.local)
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

    fn ctx<'a>(now: Slot, busy: &'a [Slot], input: u32) -> DispatchCtx<'a> {
        DispatchCtx {
            local: LocalView {
                now,
                input: PortId(input),
                link_busy_until: busy,
            },
            global: None,
        }
    }

    #[test]
    fn consecutive_deadline_cells_get_distinct_planes() {
        // K = 4, r' = 2 (S = 2). Four inputs send to output 0 at slot 0:
        // deadlines 0,1,2,3 — consecutive deadlines closer than r' apart
        // must ride different planes.
        let mut d = CpaDemux::new(4, 4, 2);
        let free = vec![0u64; 4];
        let mut planes = std::collections::BTreeSet::new();
        for i in 0..4 {
            planes.insert(d.dispatch(&cell(i as u64, i, 0, 0), &ctx(0, &free, i)).0);
        }
        // Deadlines 0,1: need distinct; 2 can reuse the plane of deadline 0.
        // So at least 2 distinct planes; with the least-recently-reserved
        // preference all 4 spread.
        assert!(planes.len() >= 2);
        assert_eq!(d.deadline_misses(), 0);
    }

    #[test]
    fn reservation_spacing_is_enforced() {
        let mut d = CpaDemux::new(1, 4, 2);
        let free = vec![0u64; 4];
        // Same input cannot send twice in one slot in the real model, but
        // the reservation logic is what we probe: two cells to output 0
        // with deadlines 0 and 1 must use different planes.
        let p0 = d.dispatch(&cell(0, 0, 0, 0), &ctx(0, &free, 0));
        let p1 = d.dispatch(&cell(1, 0, 0, 0), &ctx(0, &free, 0));
        assert_ne!(p0, p1);
    }

    #[test]
    fn deadline_miss_counted_when_underspeeded() {
        // K = 2, r' = 4 => S = 1/2: deadlines arrive every slot but each
        // plane/output line serves once per 4 slots, so the burst's third
        // cell finds no feasible plane.
        let mut d = CpaDemux::new(4, 2, 4);
        let free = vec![0u64; 2];
        for i in 0..4 {
            d.dispatch(&cell(i as u64, i as u32, 0, 0), &ctx(0, &free, i as u32));
        }
        assert!(
            d.deadline_misses() > 0,
            "S=1/2 must eventually miss deadlines"
        );
    }

    #[test]
    fn deadlines_follow_fcfs_oq() {
        let mut d = CpaDemux::new(2, 4, 2);
        let free = vec![0u64; 4];
        d.dispatch(&cell(0, 0, 1, 0), &ctx(0, &free, 0));
        assert_eq!(d.dt_last[1], Some(0));
        d.dispatch(&cell(1, 1, 1, 0), &ctx(0, &free, 1));
        assert_eq!(d.dt_last[1], Some(1));
        // After a long quiet gap the deadline snaps to `now`.
        d.dispatch(&cell(2, 0, 1, 50), &ctx(50, &free, 0));
        assert_eq!(d.dt_last[1], Some(50));
    }
}
