//! Hand loops that replay the engines' `run()` from outside, one public
//! call at a time, so each call can be timed on its own.
//!
//! Three loops, from coarse to fine:
//!
//! * [`engine_loop`] replicates [`BufferlessPps::run`] over the engine's
//!   public `backlog` / `slot` / `next_activity` / `skip_idle`;
//! * [`fabric_loop`] replicates the same run one level down, over
//!   [`Fabric`]'s `register_arrival` / `local_view` / `dispatch` /
//!   `service` / `emit`, for fully-distributed demultiplexors (the only
//!   class that needs no information bus, which the engine keeps private);
//! * [`oq_loop`] replicates `run_oq`, which returns only the log, so the
//!   shadow switch's peak occupancy can be read.
//!
//! `tests/traced_loops.rs` pins all three to the engines they imitate
//! (records, `FabricStats`, `end_slot`): the per-layer numbers can never
//! drift onto a different program than the one the end-to-end numbers time.

use pps_core::prelude::*;
use pps_core::stepping::earliest;
use pps_reference::oq::ShadowOq;
use pps_switch::engine::BufferlessPps;
use pps_switch::fabric::Fabric;
use std::time::Instant;

/// Phases of one [`engine_loop`] iteration, in [`Laps`] index order.
pub mod engine_phase {
    /// `BufferlessPps::backlog` (loop condition and skip guard).
    pub const BACKLOG: usize = 0;
    /// Copying the slot's arrivals into the scratch vec.
    pub const GATHER: usize = 1;
    /// `BufferlessPps::slot`.
    pub const SLOT: usize = 2;
    /// `BufferlessPps::next_activity`.
    pub const NEXT_ACTIVITY: usize = 3;
    /// `BufferlessPps::skip_idle`.
    pub const SKIP_IDLE: usize = 4;
}

/// Phases of one [`fabric_loop`] iteration, in [`Laps`] index order.
pub mod fabric_phase {
    /// `register_arrival` + `local_view` + `Demultiplexor::dispatch`.
    pub const DEMUX: usize = 0;
    /// `Fabric::dispatch`.
    pub const DISPATCH: usize = 1;
    /// `Fabric::service`.
    pub const SERVICE: usize = 2;
    /// `Fabric::emit`.
    pub const EMIT: usize = 3;
    /// Everything else in the iteration: fault script, backlog test,
    /// next-activity lookahead and idle skip.
    pub const STEP: usize = 4;
}

/// Number of phase accumulators a [`Laps`] keeps.
pub const PHASES: usize = 5;

/// Phase stopwatch handed to a hand loop. The loop calls [`begin`] at the
/// top of every iteration and [`lap`] after every phase; an implementation
/// charges the time since the previous mark to that phase.
///
/// [`begin`]: Laps::begin
/// [`lap`]: Laps::lap
pub trait Laps {
    /// Start of one loop iteration.
    fn begin(&mut self);
    /// End of `phase`: charge it the time since the last mark.
    fn lap(&mut self, phase: usize);
}

/// The stopwatch that is not there: the loops run untimed (tests, and the
/// reference side of every equality check).
pub struct NoLaps;

impl Laps for NoLaps {
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn lap(&mut self, _phase: usize) {}
}

/// A stopwatch that times every `stride`-th iteration and leaves the
/// others alone, so a loop of a million 150 ns iterations is not measured
/// as a loop of a million clock reads; [`split_ns`](Self::split_ns) turns
/// the sample into per-phase totals.
pub struct SampledLaps {
    stride: u64,
    iteration: u64,
    live: bool,
    mark: Instant,
    ns: [u64; PHASES],
    laps: [u64; PHASES],
    tick_ns: u64,
}

/// Median distance between two back-to-back clock reads: what one lap
/// costs when the phase it closes is empty.
fn clock_tick_ns() -> u64 {
    let mut deltas = [0u64; 255];
    let mut mark = Instant::now();
    for d in &mut deltas {
        let now = Instant::now();
        *d = now.duration_since(mark).as_nanos() as u64;
        mark = now;
    }
    deltas.sort_unstable();
    deltas[deltas.len() / 2]
}

impl SampledLaps {
    /// Time one iteration in `stride` (at least 1 = every iteration).
    pub fn new(stride: u64) -> Self {
        SampledLaps {
            stride: stride.max(1),
            iteration: 0,
            live: false,
            mark: Instant::now(),
            ns: [0; PHASES],
            laps: [0; PHASES],
            tick_ns: clock_tick_ns(),
        }
    }

    /// Time about 8 k iterations of a loop over `trace`, however long it
    /// is (the loops iterate about once per slot that has an arrival).
    pub fn for_trace(trace: &Trace) -> Self {
        Self::new(trace.by_slot().count() as u64 / 8192)
    }

    /// Split `total_ns` — the loop's own wall time — over the phases in
    /// proportion to their sampled time, less one clock tick per lap. The
    /// laps tile every iteration, so the phases of the untimed iterations
    /// sum to the loop's wall time too; scaling the sampled totals up
    /// instead would bill the loop for the clock reads (+17 % on a loop of
    /// 150 ns slots).
    pub fn split_ns(&self, total_ns: u64) -> [u64; PHASES] {
        let net: [u64; PHASES] =
            std::array::from_fn(|p| self.ns[p].saturating_sub(self.laps[p] * self.tick_ns));
        let sum: u128 = net.iter().map(|&ns| ns as u128).sum();
        if sum == 0 {
            return [0; PHASES];
        }
        net.map(|ns| (ns as u128 * total_ns as u128 / sum) as u64)
    }
}

impl Laps for SampledLaps {
    #[inline]
    fn begin(&mut self) {
        self.live = self.iteration.is_multiple_of(self.stride);
        self.iteration += 1;
        if self.live {
            self.mark = Instant::now();
        }
    }

    #[inline]
    fn lap(&mut self, phase: usize) {
        if self.live {
            let now = Instant::now();
            self.ns[phase] += now.duration_since(self.mark).as_nanos() as u64;
            self.laps[phase] += 1;
            self.mark = now;
        }
    }
}

/// What a hand loop did, in simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopCounts {
    /// Slots processed one by one.
    pub slots: u64,
    /// Slots covered by skip-ahead jumps.
    pub skipped: u64,
    /// Skip-ahead jumps taken.
    pub jumps: u64,
    /// Slot after the last processed slot (`PpsRun::end_slot`).
    pub end_slot: Slot,
}

/// The engines' private livelock guard (`engine.rs::drain_cap`).
fn drain_cap(trace: &Trace, cfg: &PpsConfig) -> Slot {
    trace.horizon()
        + (trace.len() as Slot + 1) * (cfg.r_prime as Slot + 1)
        + cfg.buffer.capacity() as Slot
        + 64
}

/// Move the arrivals of slot `now` from `cells[*next..]` into `scratch`.
#[inline]
fn gather(cells: &[Cell], next: &mut usize, now: Slot, scratch: &mut Vec<Cell>) {
    scratch.clear();
    while *next < cells.len() && cells[*next].arrival == now {
        scratch.push(cells[*next]);
        *next += 1;
    }
}

/// [`BufferlessPps::run`] under skip-ahead stepping, replayed through the
/// engine's public per-slot surface. `cells` and `log` are the caller's
/// `trace.cells(n)` and `RunLog::with_cells(&cells)`, so their cost is
/// timed by the caller, not hidden in here.
pub fn engine_loop<D: Demultiplexor, L: Laps>(
    pps: &mut BufferlessPps<D>,
    trace: &Trace,
    cells: &[Cell],
    log: &mut RunLog,
    laps: &mut L,
) -> Result<LoopCounts, ModelError> {
    use engine_phase::*;
    let cap = drain_cap(trace, pps.fabric().cfg());
    let mut counts = LoopCounts::default();
    let mut next = 0usize;
    let mut now: Slot = 0;
    let mut scratch: Vec<Cell> = Vec::new();
    loop {
        laps.begin();
        let more = next < cells.len() || pps.backlog() > 0;
        laps.lap(BACKLOG);
        if !more {
            break;
        }
        gather(cells, &mut next, now, &mut scratch);
        laps.lap(GATHER);
        pps.slot(now, &scratch, log)?;
        counts.slots += 1;
        laps.lap(SLOT);
        now += 1;
        if now > cap {
            break;
        }
        let more = next < cells.len() || pps.backlog() > 0;
        laps.lap(BACKLOG);
        if !more {
            continue;
        }
        let next_arrival = cells.get(next).map(|c| c.arrival);
        if next_arrival == Some(now) {
            continue;
        }
        let mut target = next_arrival.unwrap_or(Slot::MAX);
        if let Some(t) = pps.next_activity(now - 1) {
            target = target.min(t);
        }
        laps.lap(NEXT_ACTIVITY);
        let stop = target.min(cap + 1);
        if stop > now {
            pps.skip_idle(now, stop - 1);
            counts.jumps += 1;
            counts.skipped += stop - now;
            now = stop;
            laps.lap(SKIP_IDLE);
            if now > cap {
                break;
            }
        }
    }
    counts.end_slot = now;
    Ok(counts)
}

/// The same run one level down: the caller's `fabric` and fully-distributed
/// `demux` driven through `Fabric`'s public per-cell and per-slot calls,
/// replaying `faults` (if any) at the start of each slot as the engine
/// does. Within a slot all demultiplexing decisions are taken before the
/// first `Fabric::dispatch`; cells of one slot come from distinct inputs
/// and a fully-distributed decision reads only its own input's lines, so
/// the order is unobservable (and the test suite holds it to that).
///
/// # Panics
/// Panics if `demux` is not fully distributed: the other classes read an
/// information bus that only the engine can build.
pub fn fabric_loop<D: Demultiplexor, L: Laps>(
    fabric: &mut Fabric,
    demux: &mut D,
    faults: Option<&FaultPlan>,
    trace: &Trace,
    cells: &[Cell],
    log: &mut RunLog,
    laps: &mut L,
) -> Result<LoopCounts, ModelError> {
    use fabric_phase::*;
    assert_eq!(
        demux.info_class(),
        InfoClass::FullyDistributed,
        "fabric_loop has no information bus"
    );
    let events = faults.map_or(&[][..], FaultPlan::events);
    let mut next_event = 0usize;
    let cap = drain_cap(trace, fabric.cfg());
    let mut counts = LoopCounts::default();
    let mut next = 0usize;
    let mut now: Slot = 0;
    let mut scratch: Vec<Cell> = Vec::new();
    let mut planes: Vec<Option<PlaneId>> = Vec::new();
    loop {
        laps.begin();
        if next >= cells.len() && fabric.backlog() == 0 {
            laps.lap(STEP);
            break;
        }
        gather(cells, &mut next, now, &mut scratch);
        while let Some(&ev) = events.get(next_event) {
            if ev.activates_at() > now {
                break;
            }
            match ev {
                FaultEvent::PlaneDown { plane, .. } => fabric.fail_plane(plane.idx())?,
                FaultEvent::PlaneUp { plane, .. } => fabric.recover_plane(plane.idx())?,
                FaultEvent::LinkDegraded {
                    input,
                    plane,
                    until,
                    ..
                } => fabric.degrade_link(input.idx(), plane.idx(), until)?,
            }
            next_event += 1;
        }
        laps.lap(STEP);

        demux.on_slot(now, None);
        planes.clear();
        for cell in &scratch {
            fabric.register_arrival(cell);
            let local = fabric.local_view(cell.input, now);
            if local.free_planes().next().is_none() {
                fabric.drop_at_input(cell);
                planes.push(None);
                continue;
            }
            let ctx = DispatchCtx {
                local,
                global: None,
            };
            planes.push(Some(demux.dispatch(cell, &ctx)));
        }
        laps.lap(DEMUX);
        for (cell, plane) in scratch.iter().zip(&planes) {
            if let Some(plane) = *plane {
                fabric.dispatch(*cell, plane, now, log)?;
            }
        }
        laps.lap(DISPATCH);
        fabric.service(now)?;
        laps.lap(SERVICE);
        fabric.emit(now, log);
        counts.slots += 1;
        laps.lap(EMIT);

        now += 1;
        if now > cap {
            break;
        }
        if next < cells.len() || fabric.backlog() > 0 {
            let next_arrival = cells.get(next).map(|c| c.arrival);
            if next_arrival != Some(now) {
                let mut wake = events.get(next_event).map(|e| e.activates_at());
                wake = earliest(wake, fabric.next_activity(now - 1));
                wake = earliest(wake, demux.next_activity(now - 1));
                let target = next_arrival
                    .unwrap_or(Slot::MAX)
                    .min(wake.map_or(Slot::MAX, |t| t.max(now)));
                let stop = target.min(cap + 1);
                if stop > now {
                    fabric.skip_idle_slots(now, stop - 1);
                    counts.jumps += 1;
                    counts.skipped += stop - now;
                    now = stop;
                }
            }
        }
        laps.lap(STEP);
        if now > cap {
            break;
        }
    }
    counts.end_slot = now;
    Ok(counts)
}

/// `run_oq` under skip-ahead stepping, replayed over [`ShadowOq`]'s public
/// surface; returns the drained switch so its peak occupancy can be read.
pub fn oq_loop(cells: &[Cell], n: usize, log: &mut RunLog) -> ShadowOq {
    let mut oq = ShadowOq::new(n);
    let mut next = 0usize;
    let mut now: Slot = 0;
    let mut scratch: Vec<Cell> = Vec::new();
    while next < cells.len() || oq.backlog() > 0 {
        gather(cells, &mut next, now, &mut scratch);
        oq.slot(now, &scratch, log);
        now += 1;
        if next < cells.len() && oq.backlog() == 0 {
            now = now.max(cells[next].arrival);
        }
    }
    oq
}
