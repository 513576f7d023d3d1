//! Whole-engine model test for the PPS.
//!
//! Two engines that agree with each other share every composition bug, so
//! this test holds the *assembled* `Pps<S>` — both input stages, every
//! information class, every output discipline, under both stepping modes —
//! to a naive transcription of the formal model of DESIGN.md §2 (and the
//! fault and watchdog rules of §8), written without reading the fabric:
//!
//! * an internal line carries at most one cell per `r'` slots
//!   (`busy_until` per line; a `LinkDegraded` window raises it to the
//!   window's end); propagation is ignored, so a cell may cross both
//!   stages and depart in its arrival slot;
//! * the first stage is Definition 1 (each arrival is dispatched in its
//!   slot, or lost when a degrade leaves no line free) or Definition 2 (a
//!   `VecDeque` per input; `slot_decision` is asked per input in port
//!   order, whenever the input has an arrival or a buffered cell; its
//!   releases go out by index, then the arrival is dispatched or enqueued
//!   within capacity);
//! * the information bus is a history of `GlobalSnapshot`s built from the
//!   model's own queues, input buffers, output occupancy and plane mask: a
//!   fully-distributed demultiplexor gets no view, a `u`-RT one the
//!   end-of-slot view of slot `now − u` (none while `now < u`), a
//!   centralized one the view of `now` after the slot's faults;
//! * each plane is output-queued, one `VecDeque` per (plane, output),
//!   served FCFS whenever its line to the output is free;
//! * each output emits at most one cell per slot: FlowFifo resequences
//!   every flow through a `BTreeMap` and takes the earliest switch arrival
//!   among the flows' next cells; GlobalFcfs emits the oldest cell inside
//!   the switch once it is present; Greedy the earliest present cell;
//! * a dense slot loop up to the engine's livelock cap (DESIGN.md §10).
//!
//! The model drives the same demultiplexor type as the engine, so only the
//! switch is under test. Over dense and sparse random traces, fault free
//! and under `PlaneDown`/`PlaneUp` pulses and `LinkDegraded` windows with
//! the watchdog on or off, the engine under `Stepping::Dense` and under
//! `Stepping::SkipAhead` must depart every cell in the model's slot over
//! the model's plane, with equal `FabricStats` and end slot — or fail with
//! the model's error. Spies, one per information class and stage, must be
//! handed the model's views. Every run also meets the model's obligations:
//! fault free, every cell departs, at most one per output per slot;
//! faulted or not, each flow leaves in order (bar Greedy, an ablation that
//! does not resequence).

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use pps_core::demux::BufferedDecision;
use pps_core::oracle::check_flow_order;
use pps_core::prelude::*;
use pps_switch::demux::{
    ArbitratedCrossbarDemux, BufferedRoundRobinDemux, BufferedStaleDemux, CpaDemux,
    DelayedCpaDemux, FaultAwareRoundRobinDemux, FtdDemux, HashFlowDemux, LeastLoadedLocalDemux,
    LeastLoadedOfDDemux, PerFlowRoundRobinDemux, RandomDemux, RoundRobinDemux,
    StaleLeastLoadedDemux, StaticPartitionDemux, TwoStageLbDemux,
};
use pps_switch::engine::{InputBuffers, InputStage, Pps, PpsRun, Unbuffered};
use pps_switch::fabric::FabricStats;

/// A cell's emission key, `(switch arrival, id)`: ids number a trace in
/// `(arrival, input)` order, so this is "earliest arrival, then input".
type Key = (Slot, CellId);

/// One output port.
#[derive(Default)]
struct Output {
    /// FlowFifo, per input flow: parked cells by seq, the next expected
    /// seq, and the slot since which the flow is gap-blocked.
    reorder: Vec<BTreeMap<u32, CellId>>,
    next_seq: Vec<u32>,
    blocked_since: Vec<Option<Slot>>,
    /// FlowFifo: the flows' next cells; Greedy: every cell present.
    eligible: BTreeSet<Key>,
    /// GlobalFcfs: the cells bound here inside the switch (input buffers
    /// included), and those of them present at the mux.
    inside: BTreeSet<Key>,
    present: BTreeSet<Key>,
    held: usize,
    /// First slot of the current stall (cells held, nothing emitted).
    stalled_since: Option<Slot>,
}

impl Output {
    /// A flow is gap-blocked while it has cells waiting and none eligible;
    /// its timer starts in the slot it becomes blocked.
    fn refresh_timers(&mut self, cells: &[Cell], now: Slot) {
        for i in 0..self.reorder.len() {
            let flowing = self
                .eligible
                .iter()
                .any(|&(_, id)| cells[id.idx()].input.idx() == i);
            if self.reorder[i].is_empty() || flowing {
                self.blocked_since[i] = None;
            } else if self.blocked_since[i].is_none() {
                self.blocked_since[i] = Some(now);
            }
        }
    }

    /// The cell the discipline emits now, if any.
    fn pick(&mut self, cells: &[Cell], discipline: OutputDiscipline) -> Option<CellId> {
        match discipline {
            OutputDiscipline::FlowFifo => {
                let (_, id) = self.eligible.pop_first()?;
                let i = cells[id.idx()].input.idx();
                self.next_seq[i] += 1;
                if let Some(next) = self.reorder[i].remove(&self.next_seq[i]) {
                    self.eligible.insert((cells[next.idx()].arrival, next));
                }
                Some(id)
            }
            OutputDiscipline::GlobalFcfs => {
                let oldest = *self.present.first()?;
                if self.inside.first() != Some(&oldest) {
                    return None; // an older cell is still on its way
                }
                self.present.pop_first();
                self.inside.pop_first();
                Some(oldest.1)
            }
            OutputDiscipline::Greedy => self.eligible.pop_first().map(|(_, id)| id),
        }
    }
}

/// The switch behind the demultiplexors: input buffers, lines, planes,
/// outputs, and what the run log and `FabricStats` would record.
struct Core {
    cfg: PpsConfig,
    /// One FIFO per input under Definition 2; none under Definition 1.
    buffers: Vec<VecDeque<Cell>>,
    /// `in_busy[i][p]`: the slot the line input `i` → plane `p` frees.
    in_busy: Vec<Vec<Slot>>,
    /// `out_busy[p][j]`: the slot the line plane `p` → output `j` frees.
    out_busy: Vec<Vec<Slot>>,
    queues: Vec<Vec<VecDeque<CellId>>>,
    failed: Vec<bool>,
    outputs: Vec<Output>,
    /// Per cell: its departure and plane, the run log's two columns.
    log: Vec<(Option<Slot>, Option<PlaneId>)>,
    stats: FabricStats,
}

impl Core {
    fn new(cfg: &PpsConfig, cells: usize) -> Self {
        let (n, k) = (cfg.n, cfg.k);
        let inputs = if cfg.buffer.capacity() > 0 { n } else { 0 };
        Core {
            cfg: *cfg,
            buffers: vec![VecDeque::new(); inputs],
            in_busy: vec![vec![0; k]; n],
            out_busy: vec![vec![0; n]; k],
            queues: vec![vec![VecDeque::new(); n]; k],
            failed: vec![false; k],
            outputs: (0..n)
                .map(|_| Output {
                    reorder: vec![BTreeMap::new(); n],
                    next_seq: vec![0; n],
                    blocked_since: vec![None; n],
                    ..Output::default()
                })
                .collect(),
            log: vec![(None, None); cells],
            stats: FabricStats {
                plane_carried: vec![0; k],
                ..FabricStats::default()
            },
        }
    }

    fn backlog(&self) -> usize {
        let buffered: usize = self.buffers.iter().map(VecDeque::len).sum();
        let queued: usize = self.queues.iter().flatten().map(VecDeque::len).sum();
        buffered + queued + self.outputs.iter().map(|o| o.held).sum::<usize>()
    }

    fn local(&self, input: PortId, now: Slot) -> LocalView<'_> {
        LocalView {
            now,
            input,
            link_busy_until: &self.in_busy[input.idx()],
        }
    }

    fn apply(&mut self, ev: &FaultEvent, cells: &[Cell]) {
        match *ev {
            FaultEvent::PlaneDown { plane, .. } => {
                self.failed[plane.idx()] = true;
                for j in 0..self.cfg.n {
                    while let Some(id) = self.queues[plane.idx()][j].pop_front() {
                        self.lose(&cells[id.idx()]);
                    }
                }
            }
            FaultEvent::PlaneUp { plane, .. } => self.failed[plane.idx()] = false,
            FaultEvent::LinkDegraded {
                input,
                plane,
                until,
                ..
            } => {
                let line = &mut self.in_busy[input.idx()][plane.idx()];
                *line = (*line).max(until);
            }
        }
    }

    /// The cell has entered the switch.
    fn register(&mut self, cell: &Cell) {
        let out = &mut self.outputs[cell.output.idx()];
        out.inside.insert((cell.arrival, cell.id));
    }

    /// The cell is lost inside the switch: no output waits for it.
    fn lose(&mut self, cell: &Cell) {
        self.stats.dropped += 1;
        let out = &mut self.outputs[cell.output.idx()];
        out.inside.remove(&(cell.arrival, cell.id));
    }

    fn dispatch(&mut self, cell: &Cell, plane: PlaneId, now: Slot) {
        let (i, p) = (cell.input.idx(), plane.idx());
        assert!(self.in_busy[i][p] <= now, "dispatch on a busy line");
        self.in_busy[i][p] = now + self.cfg.r_prime as Slot;
        self.stats.input_line_uses += 1;
        self.log[cell.id.idx()].1 = Some(plane);
        if self.failed[p] {
            self.lose(cell);
            return;
        }
        let queue = &mut self.queues[p][cell.output.idx()];
        queue.push_back(cell.id);
        self.stats.plane_carried[p] += 1;
        self.stats.max_plane_queue = self.stats.max_plane_queue.max(queue.len());
    }

    /// The observable state, stamped `taken_at`. Definition 1 has no
    /// buffers and publishes an empty input-buffer column.
    fn snapshot(&self, taken_at: Slot) -> GlobalSnapshot {
        let (n, k) = (self.cfg.n, self.cfg.k);
        let mut plane_mask = PlaneMask::all_up(k);
        for p in 0..k {
            plane_mask.set_up(p, !self.failed[p]);
        }
        GlobalSnapshot {
            taken_at,
            k,
            n,
            plane_queue_len: (0..k * n)
                .map(|x| self.queues[x / n][x % n].len() as u32)
                .collect(),
            input_buffer_len: self.buffers.iter().map(|b| b.len() as u32).collect(),
            output_pending: self.outputs.iter().map(|o| o.held as u32).collect(),
            plane_mask,
        }
    }

    /// Every plane→output line that is free sends its queue's head cell.
    fn serve(&mut self, cells: &[Cell], now: Slot) {
        let discipline = self.cfg.discipline;
        for p in 0..self.cfg.k {
            for j in 0..self.cfg.n {
                if self.out_busy[p][j] > now {
                    continue;
                }
                let Some(id) = self.queues[p][j].pop_front() else {
                    continue;
                };
                self.out_busy[p][j] = now + self.cfg.r_prime as Slot;
                self.stats.output_line_uses += 1;
                let (c, out) = (&cells[id.idx()], &mut self.outputs[j]);
                let (key, i) = ((c.arrival, id), c.input.idx());
                let late = match discipline {
                    OutputDiscipline::FlowFifo => c.seq < out.next_seq[i],
                    OutputDiscipline::GlobalFcfs => !out.inside.contains(&key),
                    OutputDiscipline::Greedy => false,
                };
                if late {
                    // The watchdog already skipped past it.
                    self.stats.late_dropped += 1;
                    continue;
                }
                out.held += 1;
                self.stats.max_output_held = self.stats.max_output_held.max(out.held);
                match discipline {
                    OutputDiscipline::FlowFifo if c.seq > out.next_seq[i] => {
                        out.reorder[i].insert(c.seq, id);
                    }
                    OutputDiscipline::GlobalFcfs => {
                        out.present.insert(key);
                    }
                    _ => {
                        out.eligible.insert(key);
                    }
                }
            }
        }
        for out in &mut self.outputs {
            out.refresh_timers(cells, now);
        }
    }

    /// Output `j` emits at most one cell.
    fn emit(&mut self, cells: &[Cell], j: usize, now: Slot) {
        let (discipline, watchdog) = (self.cfg.discipline, self.cfg.watchdog);
        let out = &mut self.outputs[j];
        if out.held == 0 {
            out.stalled_since = None;
            return;
        }
        if let (OutputDiscipline::FlowFifo, Some(limit)) = (discipline, watchdog) {
            for i in 0..self.cfg.n {
                if out.blocked_since[i].is_some_and(|since| now - since + 1 >= limit) {
                    let (seq, head) = out.reorder[i].pop_first().expect("a blocked flow waits");
                    self.stats.skipped += u64::from(seq - out.next_seq[i]);
                    out.next_seq[i] = seq;
                    out.eligible.insert((cells[head.idx()].arrival, head));
                    out.refresh_timers(cells, now);
                }
            }
        }
        let mut picked = out.pick(cells, discipline);
        if picked.is_none() {
            let since = *out.stalled_since.get_or_insert(now);
            let fcfs = discipline == OutputDiscipline::GlobalFcfs;
            if fcfs && watchdog.is_some_and(|limit| now - since + 1 >= limit) {
                // Abandon every straggler older than the oldest present cell.
                let oldest = *out.present.first().expect("held cells are present");
                while out.inside.first().is_some_and(|&key| key < oldest) {
                    out.inside.pop_first();
                    self.stats.skipped += 1;
                }
                out.stalled_since = None;
                picked = out.pick(cells, discipline);
            }
        }
        let Some(id) = picked else {
            self.stats.stalled_slots += 1;
            return;
        };
        out.stalled_since = None;
        out.held -= 1;
        out.refresh_timers(cells, now);
        self.log[id.idx()].0 = Some(now);
    }
}

/// The model's first stage, paired with the engine's stage of the same
/// definition.
trait FirstStage: Sized {
    type Stage: InputStage;

    fn new(demux: Demux<Self>) -> Self;

    fn info_class(&self) -> InfoClass;

    /// One slot's ingest of `arrivals` (sorted by input) under `view`.
    fn slot(
        &mut self,
        core: &mut Core,
        arrivals: &[Cell],
        now: Slot,
        view: Option<&GlobalSnapshot>,
    ) -> Result<(), ModelError>;
}

type Demux<F> = <<F as FirstStage>::Stage as InputStage>::Demux;

/// Definition 1: each arrival is dispatched in its slot.
struct Bufferless<D>(D);

impl<D: Demultiplexor> FirstStage for Bufferless<D> {
    type Stage = Unbuffered<D>;

    fn new(demux: D) -> Self {
        Bufferless(demux)
    }

    fn info_class(&self) -> InfoClass {
        self.0.info_class()
    }

    fn slot(
        &mut self,
        core: &mut Core,
        arrivals: &[Cell],
        now: Slot,
        global: Option<&GlobalSnapshot>,
    ) -> Result<(), ModelError> {
        self.0.on_slot(now, global);
        for cell in arrivals {
            core.register(cell);
            let local = core.local(cell.input, now);
            if local.free_planes().next().is_none() {
                core.lose(cell);
                continue;
            }
            let plane = self.0.dispatch(cell, &DispatchCtx { local, global });
            core.dispatch(cell, plane, now);
        }
        Ok(())
    }
}

/// Definition 2: a finite FIFO per input, drained at the demultiplexor's
/// discretion.
struct Buffered<D>(D);

impl<D: BufferedDemultiplexor> FirstStage for Buffered<D> {
    type Stage = InputBuffers<D>;

    fn new(demux: D) -> Self {
        Buffered(demux)
    }

    fn info_class(&self) -> InfoClass {
        self.0.info_class()
    }

    fn slot(
        &mut self,
        core: &mut Core,
        arrivals: &[Cell],
        now: Slot,
        global: Option<&GlobalSnapshot>,
    ) -> Result<(), ModelError> {
        for i in 0..core.buffers.len() {
            let arrival = arrivals.iter().find(|c| c.input.idx() == i).copied();
            if arrival.is_none() && core.buffers[i].is_empty() {
                continue;
            }
            if let Some(cell) = &arrival {
                core.register(cell);
            }
            let (port, capacity) = (PortId(i as u32), core.cfg.buffer.capacity());
            let buffer: Vec<Cell> = core.buffers[i].iter().copied().collect();
            let local = core.local(port, now);
            let mut decision = BufferedDecision::default();
            let ctx = DispatchCtx { local, global };
            self.0
                .slot_decision(port, arrival.as_ref(), &buffer, &ctx, &mut decision);
            let released: BTreeMap<usize, PlaneId> = decision.releases.iter().copied().collect();
            assert_eq!(released.len(), decision.releases.len(), "a double release");
            for (&index, &plane) in &released {
                core.dispatch(&buffer[index], plane, now);
            }
            core.buffers[i] = (0..buffer.len())
                .filter(|index| !released.contains_key(index))
                .map(|index| buffer[index])
                .collect();
            match (arrival, decision.arrival) {
                (Some(cell), Some(ArrivalAction::Dispatch(plane))) => {
                    core.dispatch(&cell, plane, now)
                }
                (Some(cell), _) if core.buffers[i].len() >= capacity => {
                    let cell = cell.id;
                    return Err(ModelError::BufferOverflow {
                        input: port,
                        capacity,
                        cell,
                    });
                }
                (Some(cell), _) => core.buffers[i].push_back(cell),
                (None, _) => {}
            }
        }
        Ok(())
    }
}

/// Run `cells` (a trace's cells, in id order) through `first` and `core`
/// under `faults` until the switch is empty or `now` passes `cap`; returns
/// the slot after the last one processed.
fn run_model<F: FirstStage>(
    first: &mut F,
    core: &mut Core,
    cells: &[Cell],
    faults: &[FaultEvent],
    cap: Slot,
) -> Result<Slot, ModelError> {
    let class = first.info_class();
    // End-of-slot snapshots, one per slot processed.
    let mut history: Vec<GlobalSnapshot> = Vec::new();
    let (mut next, mut now) = (0, 0);
    while (next < cells.len() || core.backlog() > 0) && now <= cap {
        for ev in faults.iter().filter(|ev| ev.activates_at() == now) {
            core.apply(ev, cells);
        }
        let view = match class {
            InfoClass::FullyDistributed => None,
            InfoClass::RealTimeDistributed { u } => {
                now.checked_sub(u).map(|t| history[t as usize].clone())
            }
            InfoClass::Centralized => Some(core.snapshot(now)),
        };
        let start = next;
        while next < cells.len() && cells[next].arrival == now {
            next += 1;
        }
        first.slot(core, &cells[start..next], now, view.as_ref())?;
        core.serve(cells, now);
        for j in 0..core.cfg.n {
            core.emit(cells, j, now);
        }
        if let InfoClass::RealTimeDistributed { .. } = class {
            history.push(core.snapshot(now));
        }
        now += 1;
    }
    Ok(now)
}

/// The paper's obligations, read from a run log: fault free, every cell
/// departs, at most one per output per slot; faulted or not, delivered
/// cells keep their flow's order, bar Greedy's.
fn obligations(
    name: &str,
    cfg: &PpsConfig,
    run: &PpsRun,
    faulted: bool,
) -> Result<(), TestCaseError> {
    if cfg.discipline != OutputDiscipline::Greedy {
        let reorders = check_flow_order(&run.log);
        prop_assert!(reorders.is_empty(), "{}: reordered {:?}", name, reorders);
    }
    if faulted {
        return Ok(());
    }
    prop_assert_eq!(run.log.undelivered(), 0, "{}: cells stuck or lost", name);
    let mut busy = BTreeSet::new();
    for rec in run.log.records() {
        let dep = rec.departure().expect("every cell departs");
        prop_assert!(dep >= rec.arrival, "{}: departure before arrival", name);
        let once = busy.insert((rec.output, dep));
        prop_assert!(
            once,
            "{}: {:?} sends twice in slot {}",
            name,
            rec.output,
            dep
        );
    }
    Ok(())
}

/// Run the model and the engine (dense, then skip-ahead) on one
/// demultiplexor each and compare.
fn check<F: FirstStage>(
    name: &str,
    cfg: PpsConfig,
    mk: impl Fn() -> Demux<F>,
    trace: &Trace,
    plan: &FaultPlan,
) -> Result<(), TestCaseError> {
    let cells = trace.cells(cfg.n);
    let mut core = Core::new(&cfg, cells.len());
    // The engine's livelock cap (DESIGN.md §10).
    let cap = (trace.len() as Slot + 1) * (cfg.r_prime as Slot + 1)
        + trace.horizon()
        + cfg.buffer.capacity() as Slot
        + 64;
    let want = run_model(&mut F::new(mk()), &mut core, &cells, plan.events(), cap);
    for stepping in [Stepping::Dense, Stepping::SkipAhead] {
        let sink = Sink::new(RunSpec {
            stepping,
            ..RunSpec::default()
        });
        let got = Pps::<F::Stage>::new_in(cfg, mk(), &sink).and_then(|mut pps| {
            pps.set_fault_plan(plan)?;
            pps.run(trace)
        });
        let name = format!("{name} ({})", stepping.name());
        let (run, end_slot) = match (got, &want) {
            (Ok(run), Ok(end_slot)) => (run, *end_slot),
            (got, want) => {
                prop_assert_eq!(got.err(), want.clone().err(), "{}: outcome", name);
                continue;
            }
        };
        let log: Vec<_> = run
            .log
            .records()
            .map(|r| (r.departure(), r.plane()))
            .collect();
        if let Some(id) = (0..log.len()).find(|&id| log[id] != core.log[id]) {
            let (got, want) = (log[id], core.log[id]);
            prop_assert!(false, "{}: cell {}: {:?}, model {:?}", name, id, got, want);
        }
        prop_assert_eq!(&run.stats, &core.stats, "{}: fabric stats", name);
        prop_assert_eq!(run.end_slot, end_slot, "{}: end slot", name);
        obligations(&name, &cfg, &run, !plan.is_empty())?;
    }
    Ok(())
}

/// What a spy saw: the slot and the global view of each decision.
type Seen = Arc<Mutex<Vec<(Slot, Option<GlobalSnapshot>)>>>;

/// A demultiplexor of either stage that records the view it is handed at
/// every decision. Bufferless, it dispatches round robin; buffered, it
/// holds each cell `hold` slots and releases the head round robin.
struct Spy {
    class: InfoClass,
    hold: Slot,
    next: Vec<usize>,
    seen: Seen,
}

impl Spy {
    fn record(&self, ctx: &DispatchCtx<'_>) {
        let view = ctx.global.cloned();
        self.seen.lock().unwrap().push((ctx.local.now, view));
    }

    fn claim(&mut self, i: usize, local: &LocalView<'_>, taken: Option<usize>) -> Option<PlaneId> {
        let p = local.next_free_where(self.next[i], |p| Some(p) != taken)?;
        self.next[i] = (p + 1) % local.link_busy_until.len();
        Some(PlaneId(p as u32))
    }
}

impl Demultiplexor for Spy {
    fn info_class(&self) -> InfoClass {
        self.class
    }

    fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.record(ctx);
        let plane = self.claim(cell.input.idx(), &ctx.local, None);
        plane.expect("the engine offers a free line")
    }
}

impl BufferedDemultiplexor for Spy {
    fn info_class(&self) -> InfoClass {
        self.class
    }

    fn slot_decision(
        &mut self,
        input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        self.record(ctx);
        let (i, hold, now) = (input.idx(), self.hold, ctx.local.now);
        let ripe = |c: &Cell| c.arrival + hold <= now;
        let mut taken = None;
        if buffer.first().is_some_and(ripe) {
            if let Some(plane) = self.claim(i, &ctx.local, None) {
                out.releases.push((0, plane));
                taken = Some(plane.idx());
            }
        }
        out.arrival = arrival.map(|cell| {
            let direct = buffer.len() == out.releases.len() && ripe(cell);
            match direct.then(|| self.claim(i, &ctx.local, taken)).flatten() {
                Some(plane) => ArrivalAction::Dispatch(plane),
                None => ArrivalAction::Enqueue,
            }
        });
    }
}

/// Run a spy of `class` under the model and both engine modes: every run
/// must hand it the same views, and each the paper's view for its class.
fn check_spy<F>(
    class: InfoClass,
    hold: Slot,
    cfg: PpsConfig,
    trace: &Trace,
    plan: &FaultPlan,
) -> Result<(), TestCaseError>
where
    F: FirstStage,
    F::Stage: InputStage<Demux = Spy>,
{
    let spies = RefCell::new(Vec::<Seen>::new());
    let mk = || {
        let seen = Seen::default();
        spies.borrow_mut().push(seen.clone());
        let next = vec![0; cfg.n];
        Spy {
            class,
            hold,
            next,
            seen,
        }
    };
    check::<F>(&format!("spy {class:?}"), cfg, mk, trace, plan)?;
    let spies = spies.into_inner();
    let model = spies[0].lock().unwrap().clone();
    for seen in &spies[1..] {
        let same = *seen.lock().unwrap() == model;
        prop_assert!(same, "{:?}: the engine's views are not the model's", class);
    }
    for (now, view) in &model {
        let paper = match class {
            InfoClass::FullyDistributed => None,
            InfoClass::RealTimeDistributed { u } => now.checked_sub(u),
            InfoClass::Centralized => Some(*now),
        };
        let taken_at = view.as_ref().map(|v| v.taken_at);
        prop_assert_eq!(taken_at, paper, "{:?} at slot {}", class, now);
    }
    Ok(())
}

/// A buffered demultiplexor making arbitrary *legal* choices: seeded
/// releases of any buffered cells onto distinct free planes, and the
/// arrival buffered while there is room, else dispatched if a line is left.
struct Chaotic {
    state: u64,
    k: usize,
    cap: usize,
}

impl Chaotic {
    /// A free plane not in `used`, from a random start.
    fn plane(&mut self, local: &LocalView<'_>, used: &mut [bool]) -> Option<PlaneId> {
        let start = lcg(&mut self.state) as usize % self.k;
        let p = local.next_free_where(start, |p| !used[p])?;
        used[p] = true;
        Some(PlaneId(p as u32))
    }
}

impl BufferedDemultiplexor for Chaotic {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }

    fn slot_decision(
        &mut self,
        _input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        let mut used = vec![false; self.k];
        for idx in 0..buffer.len() {
            if lcg(&mut self.state).is_multiple_of(3) {
                continue;
            }
            match self.plane(&ctx.local, &mut used) {
                Some(p) => out.releases.push((idx, p)),
                None => break,
            }
        }
        let room = buffer.len() - out.releases.len() < self.cap;
        out.arrival = arrival.map(|_| {
            let dispatch = !room || lcg(&mut self.state).is_multiple_of(2);
            match dispatch.then(|| self.plane(&ctx.local, &mut used)) {
                Some(Some(p)) => ArrivalAction::Dispatch(p),
                _ => ArrivalAction::Enqueue,
            }
        });
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A random trace of `segments`, each an idle gap of `gap` slots and then
/// `len` slots in which each input gets a cell with probability `load`%,
/// bound for output 0 in `hot`% of cases (to build plane queues and
/// reorder gaps) and for a uniform output otherwise. A dense trace drops
/// the gaps; a sparse one cuts each burst to at most 5 slots.
fn random_trace(
    n: usize,
    segments: &[(Slot, Slot)],
    sparse: bool,
    load: u64,
    hot: u64,
    seed: u64,
) -> Trace {
    let mut state = seed | 1;
    let mut arrivals = Vec::new();
    let mut t = 0;
    for &(gap, len) in segments {
        let (gap, len) = if sparse { (gap, len % 5 + 1) } else { (0, len) };
        t += gap;
        for _ in 0..len {
            for i in 0..n as u32 {
                if lcg(&mut state) % 100 < load {
                    let j = if lcg(&mut state) % 100 < hot {
                        0
                    } else {
                        (lcg(&mut state) % n as u64) as u32
                    };
                    arrivals.push(Arrival::new(t, i, j));
                }
            }
            t += 1;
        }
    }
    Trace::build(arrivals, n).expect("trace")
}

/// `PlaneDown`/`PlaneUp` pulses and `LinkDegraded` windows, each drawn as
/// (position ‰ of the horizon, index, index, length).
fn fault_plan(
    (n, k, horizon): (usize, usize, Slot),
    pulses: &[(u64, u32, u64)],
    degrades: &[(u64, u32, u32, u64)],
) -> FaultPlan {
    let at = |permille: u64| permille * (horizon + 1) / 1000;
    let mut plan = FaultPlan::new();
    for &(pos, p, len) in pulses {
        let (p, from) = (p % k as u32, at(pos));
        plan = plan.plane_down(p, from).plane_up(p, from + len);
    }
    for &(pos, i, p, len) in degrades {
        let from = at(pos);
        plan = plan.link_degraded(i % n as u32, p % k as u32, from, from + len);
    }
    plan
}

/// (N, r', K): N 2–9, r' 1–4, K from r' to 4r'.
fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..=9, 1usize..=4).prop_flat_map(|(n, r)| (r..=4 * r).prop_map(move |k| (n, r, k)))
}

/// The fault-free configuration (no watchdog, which could skip a slow
/// cell) and the faulted one, watchdog on (1–7 slots) or off.
fn configs(cfg: PpsConfig, disc: u8, watchdog: u64) -> [PpsConfig; 2] {
    use OutputDiscipline::*;
    let cfg = cfg.with_discipline([FlowFifo, GlobalFcfs, Greedy][disc as usize]);
    let watchdog = (1..8).contains(&watchdog).then_some(watchdog);
    [cfg, PpsConfig { watchdog, ..cfg }]
}

/// One spy per information class.
fn classes(u: Slot) -> [InfoClass; 3] {
    use InfoClass::*;
    [FullyDistributed, RealTimeDistributed { u }, Centralized]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bufferless_pps_matches_the_paper_model(
        (n, r_prime, k) in geometry(),
        segments in proptest::collection::vec((0u64..600, 1u64..30), 1..4),
        (sparse, load, hot, seed) in (0u8..2, 30u64..=100, 0u64..=100, 0u64..1_000_000),
        (disc, u, watchdog) in (0u8..3, 1u64..6, 0u64..10),
        pulses in proptest::collection::vec((0u64..1000, 0u32..16, 1u64..60), 1usize..3),
        degrades in proptest::collection::vec((0u64..1000, 0u32..9, 0u32..16, 1u64..6), 0usize..8),
    ) {
        let trace = random_trace(n, &segments, sparse == 1, load, hot, seed);
        let faults = fault_plan((n, k, trace.horizon()), &pulses, &degrades);
        let [fault_free, faulted] = configs(PpsConfig::bufferless(n, k, r_prime), disc, watchdog);
        for (cfg, faults) in [(fault_free, &FaultPlan::new()), (faulted, &faults)] {
            type B<D> = Bufferless<D>;
            check::<B<_>>("round robin", cfg, || RoundRobinDemux::new(n, k), &trace, faults)?;
            check::<B<_>>("per-flow rr", cfg, || PerFlowRoundRobinDemux::new(n, k), &trace, faults)?;
            check::<B<_>>("random", cfg, || RandomDemux::new(n, seed), &trace, faults)?;
            let partition = || StaticPartitionDemux::minimal(n, k, r_prime);
            check::<B<_>>("static partition", cfg, partition, &trace, faults)?;
            if k >= 2 * r_prime {
                check::<B<_>>("ftd", cfg, || FtdDemux::new(n, k, r_prime, 2), &trace, faults)?;
            }
            check::<B<_>>("hash flow", cfg, || HashFlowDemux::new(n, k), &trace, faults)?;
            let local = || LeastLoadedLocalDemux::new(n, k, r_prime);
            check::<B<_>>("least loaded (local)", cfg, local, &trace, faults)?;
            check::<B<_>>("two-stage lb", cfg, || TwoStageLbDemux::new(k), &trace, faults)?;
            let of_d = || LeastLoadedOfDDemux::new(n, k, r_prime, 2, seed);
            check::<B<_>>("least loaded of d", cfg, of_d, &trace, faults)?;
            let stale = || StaleLeastLoadedDemux::new(n, k, u);
            check::<B<_>>("stale least loaded", cfg, stale, &trace, faults)?;
            let fcfs = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
            check::<B<_>>("cpa", fcfs, || CpaDemux::new(n, k, r_prime), &trace, faults)?;
            let aware = || FaultAwareRoundRobinDemux::centralized(n, k);
            check::<B<_>>("fault-aware (centralized)", cfg, aware, &trace, faults)?;
            let aware = || FaultAwareRoundRobinDemux::urt(n, k, u);
            check::<B<_>>("fault-aware (u-RT)", cfg, aware, &trace, faults)?;
            for class in classes(u) {
                check_spy::<B<Spy>>(class, 0, cfg, &trace, faults)?;
            }
        }
    }

    #[test]
    fn buffered_pps_matches_the_paper_model(
        (n, r_prime, k) in geometry(),
        segments in proptest::collection::vec((0u64..600, 1u64..30), 1..4),
        (sparse, load, hot, seed) in (0u8..2, 30u64..=100, 0u64..=100, 0u64..1_000_000),
        (disc, u, watchdog, buffer) in (0u8..3, 1u64..6, 0u64..10, 1usize..=64),
        pulses in proptest::collection::vec((0u64..1000, 0u32..16, 1u64..60), 0usize..3),
        degrades in proptest::collection::vec((0u64..1000, 0u32..9, 0u32..16, 1u64..6), 0usize..8),
        (pos, input, len) in (0u64..1000, 0u32..9, 1u64..40),
    ) {
        let trace = random_trace(n, &segments, sparse == 1, load, hot, seed);
        // Besides the pulses and windows, black out every line of one
        // input for a while, so buffered heads ripen with no line free.
        let blackout = (0..k as u32).map(|p| (pos, input, p, len));
        let degrades: Vec<_> = degrades.into_iter().chain(blackout).collect();
        let faults = fault_plan((n, k, trace.horizon()), &pulses, &degrades);
        let geometry = PpsConfig::buffered(n, k, r_prime, buffer);
        let [fault_free, faulted] = configs(geometry, disc, watchdog);
        // The hold rules keep up to `u` cells per input (more across a
        // blackout): give them room to wait out their information lag.
        let roomy = |cfg: PpsConfig| PpsConfig { buffer: BufferSpec::Buffered { size: buffer + 64 }, ..cfg };
        for (cfg, faults) in [(fault_free, &FaultPlan::new()), (faulted, &faults)] {
            type B<D> = Buffered<D>;
            check::<B<_>>("buffered rr", cfg, || BufferedRoundRobinDemux::new(n, k), &trace, faults)?;
            let chaotic = || Chaotic { state: seed | 1, k, cap: buffer };
            check::<B<_>>("chaotic", cfg, chaotic, &trace, faults)?;
            let stale = || BufferedStaleDemux::new(n, k, u, seed % (u + 1));
            check::<B<_>>("buffered stale", roomy(cfg), stale, &trace, faults)?;
            let arbitrated = || ArbitratedCrossbarDemux::new(k, u);
            check::<B<_>>("arbitrated crossbar", roomy(cfg), arbitrated, &trace, faults)?;
            let fcfs = roomy(cfg).with_discipline(OutputDiscipline::GlobalFcfs);
            let delayed = || DelayedCpaDemux::new(n, k, r_prime, u);
            check::<B<_>>("delayed cpa", fcfs, delayed, &trace, faults)?;
            for class in classes(u) {
                check_spy::<B<Spy>>(class, seed % 3, roomy(cfg), &trace, faults)?;
            }
        }
    }
}
