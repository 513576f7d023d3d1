//! The PPS engine.
//!
//! The paper defines one PPS whose two variants differ only in what the
//! demultiplexor may do with an arriving cell, and the code follows it:
//! [`Pps<S>`] owns everything the variants share — the fabric, the
//! information bus, the fault script and the slot frame — and is generic
//! over an [`InputStage`], which owns only the per-slot ingest of arrivals:
//!
//! * [`Unbuffered`] (Definition 1) — an arriving cell is demultiplexed to a
//!   plane in its arrival slot, by a [`Demultiplexor`];
//! * [`InputBuffers`] (Definition 2, Iyer & McKeown) — a
//!   [`BufferedDemultiplexor`] may hold arriving cells in a finite input
//!   buffer and release any number of buffered cells per slot, subject to
//!   the line-rate constraints.
//!
//! [`BufferlessPps<D>`] and [`BufferedPps<D>`] are aliases for the two
//! instantiations. Dispatch is static: each alias monomorphises to its own
//! slot loop, and the bufferless per-cell path carries none of the buffered
//! stage's decision scratch or per-input scan. Whole-trace runs go through
//! the workspace's one driver, [`pps_core::stepping::drive`].
//!
//! Both variants enforce the formal model: per-slot arrival/departure
//! cardinality, the input and output constraints, no cell drops (outside
//! fault-injection), and the information classification — a
//! fully-distributed demultiplexor is handed *no* global view, a `u`-RT one
//! only the snapshot from `u` slots ago, a centralized one the current
//! state.

use crate::fabric::{Fabric, FabricStats};
use pps_core::prelude::*;
use pps_core::stepping::{self, earliest, SlotEngine};
use pps_core::telemetry::{self, Engine, EventKind, FaultKind};
use std::collections::VecDeque;

/// Outcome of a complete PPS run.
#[derive(Clone, Debug)]
pub struct PpsRun {
    /// Per-cell record (join against the shadow switch's log by cell id).
    pub log: RunLog,
    /// Fabric statistics.
    pub stats: FabricStats,
    /// Slot after the last processed slot (the run's horizon).
    pub end_slot: Slot,
}

/// Shared slot-stepping logic: snapshot bus management.
#[derive(Clone, Debug)]
struct InfoBus {
    ring: Option<SnapshotRing>,
    centralized: bool,
    /// Scratch current snapshot for the centralized class.
    current: Option<GlobalSnapshot>,
}

impl InfoBus {
    fn new(class: InfoClass) -> Self {
        InfoBus {
            ring: match class {
                InfoClass::RealTimeDistributed { u } => Some(SnapshotRing::new(u.max(1))),
                _ => None,
            },
            centralized: class == InfoClass::Centralized,
            current: None,
        }
    }

    /// Prepare the view for slot `now`. For the centralized class this is
    /// the state at the start of the slot; for `u`-RT the end-of-slot state
    /// of slot `now − u` (or nothing while `now < u`).
    fn begin_slot(&mut self, now: Slot, fabric: &Fabric, buffers: &[u32]) {
        if self.centralized {
            // Overwrite last slot's snapshot in place: the centralized
            // class allocates once per run, not once per slot.
            match &mut self.current {
                Some(cur) => fabric.snapshot_into(now, buffers, cur),
                None => self.current = Some(fabric.snapshot(now, buffers)),
            }
        }
    }

    fn view(&self, now: Slot) -> Option<&GlobalSnapshot> {
        if self.centralized {
            self.current.as_ref()
        } else {
            self.ring.as_ref().and_then(|r| r.view(now))
        }
    }

    /// Record the end-of-slot state of slots `[from, to]`, each stamped
    /// with the slot it covers: the snapshot tagged `t` reflects all events
    /// through slot `t`, so a `u`-RT demultiplexor deciding at `t` sees
    /// exactly the paper's `[0, t − u]` information window. Called with
    /// `from == to` at the end of every processed slot, and with a whole
    /// skipped interval by [`Pps::skip_idle`]: the fabric is frozen across
    /// a gap (nothing arrives, serves, or emits
    /// in a skipped slot), so dense stepping would push the same snapshot
    /// contents under each gap slot's tag; only the last `delay + 1` tags
    /// can survive the ring's eviction, so only those are pushed — tag
    /// contiguity among retained entries is preserved either way, which is
    /// what [`SnapshotRing::view`]'s index arithmetic needs.
    fn publish(&mut self, from: Slot, to: Slot, fabric: &Fabric, buffers: &[u32]) {
        let Some(ring) = &mut self.ring else {
            return;
        };
        let start = from.max(to.saturating_sub(ring.delay()));
        for t in start..=to {
            // Once the ring is full (after the first u + 1 slots) every
            // push reuses the buffers of the snapshot it would evict.
            let snap = match ring.recycle_slot() {
                Some(mut old) => {
                    fabric.snapshot_into(t, buffers, &mut old);
                    old
                }
                None => fabric.snapshot(t, buffers),
            };
            ring.push(snap);
        }
    }
}

/// A scripted [`FaultPlan`] being replayed against a run: a cursor over the
/// slot-ordered events. Applied at the very start of each slot, *before*
/// the information bus snapshots, so a centralized demultiplexor observes a
/// mask change in the same slot, a `u`-RT one `u` slots later, and a
/// fully-distributed one never.
#[derive(Clone, Debug, Default)]
struct FaultSchedule {
    /// The plan being replayed (empty until one is set).
    plan: FaultPlan,
    next: usize,
}

impl FaultSchedule {
    /// Activation slot of the next unapplied scripted event, if any.
    /// Always strictly after the last slot [`apply_due`](Self::apply_due)
    /// ran for, since that consumed everything due.
    fn next_activity(&self) -> Option<Slot> {
        self.plan.events().get(self.next).map(|e| e.activates_at())
    }

    fn apply_due(&mut self, now: Slot, fabric: &mut Fabric) -> Result<(), ModelError> {
        while let Some(&ev) = self.plan.events().get(self.next) {
            if ev.activates_at() > now {
                break;
            }
            let (plane, kind) = match ev {
                FaultEvent::PlaneDown { plane, .. } => {
                    fabric.fail_plane(plane.idx())?;
                    (plane, FaultKind::PlaneDown)
                }
                FaultEvent::PlaneUp { plane, .. } => {
                    fabric.recover_plane(plane.idx())?;
                    (plane, FaultKind::PlaneUp)
                }
                FaultEvent::LinkDegraded {
                    input,
                    plane,
                    until,
                    ..
                } => {
                    fabric.degrade_link(input.idx(), plane.idx(), until)?;
                    (plane, FaultKind::LinkDegraded)
                }
            };
            if telemetry::on() {
                telemetry::record(Engine::Pps, now, EventKind::FaultApplied { plane, kind });
            }
            self.next += 1;
        }
        Ok(())
    }
}

/// What differs between the paper's two PPS variants: how one slot's
/// arrivals (and whatever the stage still holds) reach the fabric. A stage
/// is built from, and driven by, one demultiplexing algorithm.
pub trait InputStage: Sized {
    /// The demultiplexing algorithm driving the stage.
    type Demux;

    /// Build the stage for `cfg`, rejecting a `cfg.buffer` of the wrong
    /// kind.
    fn build(cfg: &PpsConfig, demux: Self::Demux) -> Result<Self, ModelError>;

    /// The demultiplexor.
    fn demux(&self) -> &Self::Demux;

    /// The demultiplexor's information class (sizes the snapshot bus).
    fn info_class(&self) -> InfoClass;

    /// Cells buffered per input, as published in global snapshots (empty
    /// for a stage without buffers).
    fn buffer_live(&self) -> &[u32];

    /// Cells held in the stage, not yet handed to the fabric.
    fn backlog(&self) -> usize;

    /// One slot's ingest: consult the demultiplexor about `arrivals`
    /// (sorted by input port, as produced by [`Trace::cursor`]) and about
    /// anything buffered, and dispatch what it releases into `fabric`.
    fn ingest(
        &mut self,
        now: Slot,
        arrivals: &[Cell],
        fabric: &mut Fabric,
        global: Option<&GlobalSnapshot>,
        log: &mut RunLog,
    ) -> Result<(), ModelError>;

    /// Fold the stage's wake-ups after `now` — the demultiplexor's own, and
    /// those of buffered cells — into `t`, the earliest activity found so
    /// far.
    fn earliest_wake(&self, now: Slot, fabric: &Fabric, t: Option<Slot>) -> Option<Slot>;
}

#[inline(always)]
fn record_arrival(now: Slot, cell: &Cell) {
    debug_assert_eq!(cell.arrival, now);
    if telemetry::on() {
        let (cell, input, output) = (cell.id, cell.input, cell.output);
        telemetry::record(
            Engine::Pps,
            now,
            EventKind::Arrival {
                cell,
                input,
                output,
            },
        );
    }
}

#[inline(always)]
fn record_decision(now: Slot, cell: &Cell, plane: PlaneId) {
    if telemetry::on() {
        let (cell, input) = (cell.id, cell.input);
        telemetry::record(
            Engine::Pps,
            now,
            EventKind::DemuxDecision { cell, input, plane },
        );
    }
}

/// The Definition 1 input stage: no buffers, every arrival is dispatched
/// (or, with every line degraded, lost) in its arrival slot.
pub struct Unbuffered<D> {
    demux: D,
}

impl<D: Demultiplexor> InputStage for Unbuffered<D> {
    type Demux = D;

    fn build(cfg: &PpsConfig, demux: D) -> Result<Self, ModelError> {
        match cfg.buffer {
            BufferSpec::Bufferless => Ok(Unbuffered { demux }),
            BufferSpec::Buffered { .. } => Err(ModelError::InvalidConfig {
                reason: "BufferlessPps requires BufferSpec::Bufferless".into(),
            }),
        }
    }

    fn demux(&self) -> &D {
        &self.demux
    }

    fn info_class(&self) -> InfoClass {
        self.demux.info_class()
    }

    fn buffer_live(&self) -> &[u32] {
        &[]
    }

    fn backlog(&self) -> usize {
        0
    }

    fn ingest(
        &mut self,
        now: Slot,
        arrivals: &[Cell],
        fabric: &mut Fabric,
        global: Option<&GlobalSnapshot>,
        log: &mut RunLog,
    ) -> Result<(), ModelError> {
        self.demux.on_slot(now, global);
        for cell in arrivals {
            record_arrival(now, cell);
            fabric.register_arrival(cell);
            // Under link degradation an input can find *every* line busy —
            // the K >= r' guarantee only covers ordinary occupancy. A
            // bufferless input has nowhere to hold the cell: it is lost at
            // the first stage rather than reported as an algorithm bug.
            let local = fabric.local_view(cell.input, now);
            if local.free_planes().next().is_none() {
                fabric.drop_at_input(cell);
                continue;
            }
            let plane = self.demux.dispatch(cell, &DispatchCtx { local, global });
            record_decision(now, cell, plane);
            fabric.dispatch(*cell, plane, now, log)?;
        }
        Ok(())
    }

    fn earliest_wake(&self, now: Slot, _fabric: &Fabric, t: Option<Slot>) -> Option<Slot> {
        earliest(t, self.demux.next_activity(now))
    }
}

/// The Definition 2 input stage: one finite FIFO buffer per input, drained
/// at the demultiplexor's discretion.
pub struct InputBuffers<D> {
    demux: D,
    buffers: Vec<VecDeque<Cell>>,
    buffer_live: Vec<u32>,
    /// Running total of `buffer_live` — lets the skip logic test "any
    /// buffered cell anywhere" without an O(N) sweep.
    buffered_cells: usize,
    capacity: usize,
    /// Per-slot decision scratch, cleared and refilled for every input so
    /// deciding allocates nothing in the steady state.
    decision: BufferedDecision,
}

impl<D: BufferedDemultiplexor> InputBuffers<D> {
    fn apply_decision(
        &mut self,
        input: usize,
        now: Slot,
        arrival: Option<Cell>,
        decision: &mut BufferedDecision,
        fabric: &mut Fabric,
        log: &mut RunLog,
    ) -> Result<(), ModelError> {
        let port = PortId(input as u32);
        // Validate and perform releases, highest index first so earlier
        // indices stay valid during removal.
        let releases = &mut decision.releases;
        releases.sort_by_key(|r| std::cmp::Reverse(r.0));
        if let Some(w) = releases.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(ModelError::BadBufferIndex {
                input: port,
                index: w[0].0,
            });
        }
        for &(index, plane) in releases.iter() {
            let cell = self.buffers[input]
                .remove(index)
                .ok_or(ModelError::BadBufferIndex { input: port, index })?;
            self.buffer_live[input] -= 1;
            self.buffered_cells -= 1;
            record_decision(now, &cell, plane);
            fabric.dispatch(cell, plane, now, log)?;
        }
        match (arrival, decision.arrival) {
            (Some(cell), Some(ArrivalAction::Dispatch(plane))) => {
                record_decision(now, &cell, plane);
                fabric.dispatch(cell, plane, now, log)?;
            }
            (Some(cell), Some(ArrivalAction::Enqueue)) | (Some(cell), None) => {
                // A missing action defaults to buffering: the model forbids
                // dropping, so the engine never discards an arrival.
                if self.buffers[input].len() >= self.capacity {
                    return Err(ModelError::BufferOverflow {
                        input: port,
                        capacity: self.capacity,
                        cell: cell.id,
                    });
                }
                self.buffers[input].push_back(cell);
                self.buffer_live[input] += 1;
                self.buffered_cells += 1;
            }
            (None, _) => {}
        }
        Ok(())
    }
}

impl<D: BufferedDemultiplexor> InputStage for InputBuffers<D> {
    type Demux = D;

    fn build(cfg: &PpsConfig, demux: D) -> Result<Self, ModelError> {
        let BufferSpec::Buffered { size: capacity } = cfg.buffer else {
            return Err(ModelError::InvalidConfig {
                reason: "BufferedPps requires BufferSpec::Buffered".into(),
            });
        };
        Ok(InputBuffers {
            demux,
            buffers: vec![VecDeque::new(); cfg.n],
            buffer_live: vec![0; cfg.n],
            buffered_cells: 0,
            capacity,
            decision: BufferedDecision::default(),
        })
    }

    fn demux(&self) -> &D {
        &self.demux
    }

    fn info_class(&self) -> InfoClass {
        self.demux.info_class()
    }

    fn buffer_live(&self) -> &[u32] {
        &self.buffer_live
    }

    fn backlog(&self) -> usize {
        self.buffered_cells
    }

    /// The demultiplexor is consulted per input in port order, matching
    /// the global-FCFS tie-break.
    fn ingest(
        &mut self,
        now: Slot,
        arrivals: &[Cell],
        fabric: &mut Fabric,
        global: Option<&GlobalSnapshot>,
        log: &mut RunLog,
    ) -> Result<(), ModelError> {
        let mut arr_iter = arrivals.iter().peekable();
        for input in 0..self.buffers.len() {
            let arrival = arr_iter.next_if(|c| c.input.idx() == input).copied();
            if arrival.is_none() && self.buffers[input].is_empty() {
                continue;
            }
            if let Some(c) = &arrival {
                record_arrival(now, c);
                fabric.register_arrival(c);
            }
            let port = PortId(input as u32);
            let mut decision = std::mem::take(&mut self.decision);
            decision.clear();
            let ctx = DispatchCtx {
                local: fabric.local_view(port, now),
                global,
            };
            let buf = self.buffers[input].make_contiguous();
            self.demux
                .slot_decision(port, arrival.as_ref(), buf, &ctx, &mut decision);
            let applied = self.apply_decision(input, now, arrival, &mut decision, fabric, log);
            // Hand the scratch (and its allocation) back before surfacing
            // any model error.
            self.decision = decision;
            applied?;
        }
        Ok(())
    }

    /// While input buffers hold cells, each occupied input's wake-up comes
    /// from the demultiplexor's
    /// [`buffered_next_activity`](BufferedDemultiplexor::buffered_next_activity)
    /// for its head cell (conservative default: the very next slot, the
    /// pre-PR-8 dense behavior) — so hold-for-`u` style algorithms let
    /// buffered runs skip idle gaps too. Waking early is always safe (the
    /// dense walk would have decided "hold" and mutated nothing).
    fn earliest_wake(&self, now: Slot, fabric: &Fabric, t: Option<Slot>) -> Option<Slot> {
        let mut t = earliest(t, self.demux.next_activity(now));
        if self.buffered_cells > 0 {
            for (input, buf) in self.buffers.iter().enumerate() {
                if t == Some(now + 1) {
                    break; // cannot get earlier than the next slot
                }
                let Some(head) = buf.front() else { continue };
                let port = PortId(input as u32);
                let view = fabric.local_view(port, now);
                t = earliest(t, self.demux.buffered_next_activity(port, head, &view));
            }
        }
        t
    }
}

/// A PPS: the fabric, information bus and fault script every variant
/// shares, fronted by the [`InputStage`] that tells the variants apart.
pub struct Pps<S> {
    fabric: Fabric,
    stage: S,
    bus: InfoBus,
    faults: FaultSchedule,
    stepping: Stepping,
}

/// A bufferless PPS (Definition 1) driven by a [`Demultiplexor`].
pub type BufferlessPps<D> = Pps<Unbuffered<D>>;

/// An input-buffered PPS (Definition 2) driven by a
/// [`BufferedDemultiplexor`].
pub type BufferedPps<D> = Pps<InputBuffers<D>>;

impl<S: InputStage> Pps<S> {
    /// Build the switch; validates the configuration, whose buffer spec
    /// must match the input stage.
    pub fn new(cfg: PpsConfig, demux: S::Demux) -> Result<Self, ModelError> {
        cfg.validate()?;
        let stage = S::build(&cfg, demux)?;
        Ok(Pps {
            fabric: Fabric::new(cfg),
            bus: InfoBus::new(stage.info_class()),
            stage,
            faults: FaultSchedule::default(),
            stepping: stepping::process_default(),
        })
    }

    /// Override the slot-stepping mode (the default is the process-wide
    /// setting at construction time; see [`pps_core::stepping`]). Both
    /// modes produce byte-identical runs.
    pub fn set_stepping(&mut self, mode: Stepping) {
        self.stepping = mode;
    }

    /// Ignored; kept until the ROADMAP 1(a) benchmark PR drops the call.
    #[doc(hidden)]
    pub fn set_intra_jobs(&mut self, _n: usize) {}

    /// The demultiplexor (e.g. to read algorithm-specific statistics).
    pub fn demux(&self) -> &S::Demux {
        self.stage.demux()
    }

    /// The fabric (for congestion probes and statistics mid-run).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Fault-injection: fail plane `plane` from now on. Out-of-range plane
    /// indices are rejected, not a panic.
    pub fn fail_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.fabric.fail_plane(plane)
    }

    /// Test-only chaos hook; see `Fabric::inject_conservation_leak`.
    #[doc(hidden)]
    pub fn inject_conservation_leak(&mut self) {
        self.fabric.inject_conservation_leak();
    }

    /// Replay `plan` during the next [`run`](Self::run): each event takes
    /// effect at the start of its slot. Validates the plan against the
    /// switch geometry.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate(self.fabric.cfg())?;
        self.faults = FaultSchedule {
            plan: plan.clone(),
            next: 0,
        };
        Ok(())
    }

    /// Advance one slot: apply due faults, let the input stage dispatch
    /// this slot's arrivals (sorted by input port), serve the planes, emit
    /// at the outputs.
    pub fn slot(
        &mut self,
        now: Slot,
        arrivals: &[Cell],
        log: &mut RunLog,
    ) -> Result<(), ModelError> {
        self.faults.apply_due(now, &mut self.fabric)?;
        self.bus
            .begin_slot(now, &self.fabric, self.stage.buffer_live());
        let global = self.bus.view(now);
        self.stage
            .ingest(now, arrivals, &mut self.fabric, global, log)?;
        self.fabric.service(now)?;
        self.fabric.emit(now, log);
        self.bus
            .publish(now, now, &self.fabric, self.stage.buffer_live());
        Ok(())
    }

    /// Cells still inside the switch (input buffers + fabric).
    pub fn backlog(&self) -> usize {
        self.fabric.backlog() + self.stage.backlog()
    }

    /// The next slot strictly after `now` at which the switch does
    /// anything beyond per-slot stall accounting, ignoring future arrivals
    /// (the caller owns the arrival stream): the next scripted fault, any
    /// fabric service/emit/watchdog activity, or an input-stage wake-up.
    /// `None` means the switch is quiescent until the next arrival.
    pub fn next_activity(&self, now: Slot) -> Option<Slot> {
        let t = earliest(self.faults.next_activity(), self.fabric.next_activity(now));
        let t = self.stage.earliest_wake(now, &self.fabric, t);
        t.map(|s| s.max(now + 1))
    }

    /// Replay the dense loop's per-slot effects over the idle interval
    /// `[from, to]` in closed form: output-stall accounting, information-
    /// bus snapshot pushes, skipped-slot metering. Sound only when no cell
    /// arrives in the interval and [`next_activity`](Self::next_activity)
    /// reported nothing due before `to + 1`.
    pub fn skip_idle(&mut self, from: Slot, to: Slot) {
        self.fabric.skip_idle_slots(from, to);
        self.bus
            .publish(from, to, &self.fabric, self.stage.buffer_live());
    }

    /// Run a whole trace to completion (arrivals plus drain) under the
    /// engine's stepping mode.
    pub fn run(&mut self, trace: &Trace) -> Result<PpsRun, ModelError> {
        let cfg = *self.fabric.cfg();
        // Generous bound on how long draining can take: every cell
        // serialized through one line plus slack. Saturating, so a trace
        // parked near `Slot::MAX` gets an unreachable cap, not a wrapped
        // one.
        let cap = (trace.len() as Slot + 1)
            .saturating_mul(cfg.r_prime as Slot + 1)
            .saturating_add(trace.horizon())
            .saturating_add(cfg.buffer.capacity() as Slot + 64);
        let mode = self.stepping;
        let (log, end_slot) = stepping::drive(self, trace, cfg.n, cap, mode)?;
        Ok(PpsRun {
            log,
            stats: self.fabric.stats(),
            end_slot,
        })
    }
}

impl<S: InputStage> SlotEngine for Pps<S> {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        Pps::slot(self, now, arrivals, log)
    }

    fn backlog(&self) -> usize {
        Pps::backlog(self)
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        Pps::next_activity(self, now)
    }

    fn skip_idle(&mut self, from: Slot, to: Slot) {
        Pps::skip_idle(self, from, to)
    }
}

/// Convenience: run `trace` through a fresh bufferless PPS.
pub fn run_bufferless<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<PpsRun, ModelError> {
    BufferlessPps::new(cfg, demux)?.run(trace)
}

/// Convenience: run `trace` through a fresh input-buffered PPS.
pub fn run_buffered<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<PpsRun, ModelError> {
    BufferedPps::new(cfg, demux)?.run(trace)
}
