//! Whole-engine model test for the bufferless PPS.
//!
//! Each fast structure of the fabric has a model test of its own (agenda,
//! resequencer, dense ≡ skip), but two engines that agree with each other
//! share every composition bug. This test holds the *assembled*
//! `BufferlessPps` to a naive transcription of the formal model of
//! DESIGN.md §2 (and the fault and watchdog rules of §8), written without
//! reading the fabric:
//!
//! * an internal line carries at most one cell per `r'` slots
//!   (`busy_until` per line); propagation is ignored, so a cell may cross
//!   both stages and depart in its arrival slot;
//! * each plane is output-queued, one `VecDeque` per (plane, output),
//!   served FCFS whenever its line to the output is free;
//! * each output emits at most one cell per slot, resequencing every flow
//!   through a `BTreeMap` and taking the earliest switch arrival among the
//!   flows' next cells;
//! * a dense slot loop: no slab, wheel, heap or skip-ahead.
//!
//! The model drives the same `Demultiplexor` type as the engine under
//! test, so only the fabric is under test. For every bufferless
//! fully-distributed demultiplexor of the zoo, over random traces, fault
//! free and under `PlaneDown`/`PlaneUp` and `LinkDegraded` pulses with a
//! resequencer watchdog, the engine (in its skip-ahead product mode) must
//! depart every cell in the same slot as the model and report equal
//! `FabricStats`. A degraded line is busy until the window ends, never
//! shorter than the occupancy it already has (DESIGN.md §8).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pps_core::prelude::*;
use pps_switch::demux::{
    FtdDemux, HashFlowDemux, LeastLoadedLocalDemux, LeastLoadedOfDDemux, PerFlowRoundRobinDemux,
    RandomDemux, RoundRobinDemux, StaticPartitionDemux, TwoStageLbDemux,
};
use pps_switch::engine::BufferlessPps;
use pps_switch::fabric::FabricStats;

/// One output port: a reorder map, next expected seq and gap timer per
/// input flow, and the flows' next cells in emission order.
struct Output {
    reorder: Vec<BTreeMap<u32, CellId>>,
    next_seq: Vec<u32>,
    blocked_since: Vec<Option<Slot>>,
    eligible: BTreeSet<(Slot, CellId)>,
    held: usize,
}

impl Output {
    fn new(n: usize) -> Self {
        Output {
            reorder: vec![BTreeMap::new(); n],
            next_seq: vec![0; n],
            blocked_since: vec![None; n],
            eligible: BTreeSet::new(),
            held: 0,
        }
    }

    /// A flow is gap-blocked while it has cells waiting and none eligible;
    /// its timer starts in the slot it becomes blocked.
    fn refresh_timers(&mut self, cells: &[Cell], now: Slot) {
        for i in 0..self.reorder.len() {
            let has_eligible = self
                .eligible
                .iter()
                .any(|&(_, id)| cells[id.idx()].input.idx() == i);
            if self.reorder[i].is_empty() || has_eligible {
                self.blocked_since[i] = None;
            } else if self.blocked_since[i].is_none() {
                self.blocked_since[i] = Some(now);
            }
        }
    }
}

/// The naive bufferless PPS.
struct Model<D> {
    n: usize,
    r_prime: Slot,
    watchdog: Option<Slot>,
    demux: D,
    /// `in_busy[i][p]`: the slot the line input `i` → plane `p` frees.
    in_busy: Vec<Vec<Slot>>,
    /// `out_busy[p][j]`: the slot the line plane `p` → output `j` frees.
    out_busy: Vec<Vec<Slot>>,
    queues: Vec<Vec<VecDeque<CellId>>>,
    failed: Vec<bool>,
    outputs: Vec<Output>,
    departures: Vec<Option<Slot>>,
    stats: FabricStats,
}

impl<D: Demultiplexor> Model<D> {
    fn new(cfg: &PpsConfig, demux: D, cells: usize) -> Self {
        let (n, k) = (cfg.n, cfg.k);
        Model {
            n,
            r_prime: cfg.r_prime as Slot,
            watchdog: cfg.watchdog,
            demux,
            in_busy: vec![vec![0; k]; n],
            out_busy: vec![vec![0; n]; k],
            queues: vec![vec![VecDeque::new(); n]; k],
            failed: vec![false; k],
            outputs: (0..n).map(|_| Output::new(n)).collect(),
            departures: vec![None; cells],
            stats: FabricStats {
                plane_carried: vec![0; k],
                ..FabricStats::default()
            },
        }
    }

    fn backlog(&self) -> usize {
        let queued: usize = self.queues.iter().flatten().map(VecDeque::len).sum();
        queued + self.outputs.iter().map(|o| o.held).sum::<usize>()
    }

    /// Run `cells` (a trace's cells, in id order) under `faults`; returns
    /// the slot after the last one processed.
    fn run(&mut self, cells: &[Cell], faults: &[FaultEvent]) -> Slot {
        let mut next = 0;
        let mut now = 0;
        while next < cells.len() || self.backlog() > 0 {
            for ev in faults.iter().filter(|ev| ev.activates_at() == now) {
                match *ev {
                    FaultEvent::PlaneDown { plane, .. } => {
                        self.failed[plane.idx()] = true;
                        for q in &mut self.queues[plane.idx()] {
                            self.stats.dropped += q.len() as u64;
                            q.clear();
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
            self.demux.on_slot(now, None);
            while next < cells.len() && cells[next].arrival == now {
                self.arrive(&cells[next], now);
                next += 1;
            }
            self.serve(cells, now);
            for j in 0..self.n {
                self.emit(cells, j, now);
            }
            now += 1;
        }
        now
    }

    fn arrive(&mut self, cell: &Cell, now: Slot) {
        let i = cell.input.idx();
        let local = LocalView {
            now,
            input: cell.input,
            link_busy_until: &self.in_busy[i],
        };
        if local.free_planes().next().is_none() {
            self.stats.dropped += 1;
            return;
        }
        let ctx = DispatchCtx {
            local,
            global: None,
        };
        let p = self.demux.dispatch(cell, &ctx).idx();
        assert!(self.in_busy[i][p] <= now, "dispatch on a busy line");
        self.in_busy[i][p] = now + self.r_prime;
        self.stats.input_line_uses += 1;
        if self.failed[p] {
            self.stats.dropped += 1;
            return;
        }
        let queue = &mut self.queues[p][cell.output.idx()];
        queue.push_back(cell.id);
        self.stats.plane_carried[p] += 1;
        self.stats.max_plane_queue = self.stats.max_plane_queue.max(queue.len());
    }

    /// Every plane→output line that is free sends its queue's head cell.
    fn serve(&mut self, cells: &[Cell], now: Slot) {
        for p in 0..self.queues.len() {
            for j in 0..self.n {
                if self.out_busy[p][j] > now {
                    continue;
                }
                let Some(id) = self.queues[p][j].pop_front() else {
                    continue;
                };
                self.out_busy[p][j] = now + self.r_prime;
                self.stats.output_line_uses += 1;
                let c = &cells[id.idx()];
                let out = &mut self.outputs[j];
                let i = c.input.idx();
                if c.seq < out.next_seq[i] {
                    // The watchdog already skipped past it.
                    self.stats.late_dropped += 1;
                    continue;
                }
                out.held += 1;
                self.stats.max_output_held = self.stats.max_output_held.max(out.held);
                if c.seq == out.next_seq[i] {
                    out.eligible.insert((c.arrival, id));
                } else {
                    out.reorder[i].insert(c.seq, id);
                }
            }
        }
        for out in &mut self.outputs {
            out.refresh_timers(cells, now);
        }
    }

    fn emit(&mut self, cells: &[Cell], j: usize, now: Slot) {
        let out = &mut self.outputs[j];
        if out.held == 0 {
            return;
        }
        if let Some(limit) = self.watchdog {
            for i in 0..self.n {
                match out.blocked_since[i] {
                    Some(since) if now - since + 1 >= limit => {
                        let (seq, head) = out.reorder[i].pop_first().expect("a blocked flow waits");
                        self.stats.skipped += u64::from(seq - out.next_seq[i]);
                        out.next_seq[i] = seq;
                        out.eligible.insert((cells[head.idx()].arrival, head));
                        out.refresh_timers(cells, now);
                    }
                    _ => {}
                }
            }
        }
        let Some((_, id)) = out.eligible.pop_first() else {
            self.stats.stalled_slots += 1;
            return;
        };
        let i = cells[id.idx()].input.idx();
        out.next_seq[i] += 1;
        if let Some(next) = out.reorder[i].remove(&out.next_seq[i]) {
            out.eligible.insert((cells[next.idx()].arrival, next));
        }
        out.refresh_timers(cells, now);
        out.held -= 1;
        self.departures[id.idx()] = Some(now);
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A random trace: each input gets a cell in a slot with probability
/// `load`%, bound for output 0 in `hot`% of cases (to build plane queues
/// and reorder gaps) and for a uniform output otherwise.
fn random_trace(n: usize, horizon: Slot, load: u64, hot: u64, seed: u64) -> Trace {
    let mut state = seed | 1;
    let mut arrivals = Vec::new();
    for t in 0..horizon {
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
    }
    Trace::build(arrivals, n).expect("trace")
}

/// Run the engine and the model on one demultiplexor each and compare.
fn check<D: Demultiplexor>(
    name: &str,
    cfg: PpsConfig,
    mk: impl Fn() -> D,
    trace: &Trace,
    plan: &FaultPlan,
) -> Result<(), TestCaseError> {
    let mut pps = BufferlessPps::new(cfg, mk()).expect("engine");
    pps.set_fault_plan(plan).expect("plan");
    let run = pps.run(trace).expect("run");

    let cells = trace.cells(cfg.n);
    let mut model = Model::new(&cfg, mk(), cells.len());
    let end_slot = model.run(&cells, plan.events());

    let departures: Vec<_> = run.log.departures().collect();
    if let Some(id) = (0..cells.len()).find(|&id| departures[id] != model.departures[id]) {
        prop_assert!(
            false,
            "{}: cell {} departs at {:?}, the model at {:?}",
            name,
            id,
            departures[id],
            model.departures[id]
        );
    }
    prop_assert_eq!(&run.stats, &model.stats, "{}: fabric stats", name);
    prop_assert_eq!(run.end_slot, end_slot, "{}: end slot", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bufferless_pps_matches_the_paper_model(
        n in 2usize..=6,
        r_prime in 2usize..=4,
        extra_planes in 0usize..=3,
        horizon in 10u64..60,
        load in 30u64..=100,
        hot in 0u64..=100,
        seed in 0u64..1_000_000,
        pulses in proptest::collection::vec((0u64..50, 0u32..8, 1u64..20), 1usize..3),
        degrades in proptest::collection::vec((0u64..50, 0u32..6, 0u32..8, 1u64..4), 0usize..8),
        watchdog in 1u64..8,
    ) {
        // K >= 2r' so that FTD (block h·r' with h = 2) fits.
        let k = 2 * r_prime + extra_planes;
        let trace = random_trace(n, horizon, load, hot, seed);
        let mut faults = FaultPlan::new();
        for &(at, p, len) in &pulses {
            let p = p % k as u32;
            faults = faults.plane_down(p, at).plane_up(p, at + len);
        }
        for &(from, i, p, len) in &degrades {
            faults = faults.link_degraded(i % n as u32, p % k as u32, from, from + len);
        }
        let fault_free = PpsConfig::bufferless(n, k, r_prime);
        let faulted = fault_free.with_watchdog(watchdog);
        for (cfg, faults) in [(fault_free, &FaultPlan::new()), (faulted, &faults)] {
            check("round robin", cfg, || RoundRobinDemux::new(n, k), &trace, faults)?;
            check("per-flow rr", cfg, || PerFlowRoundRobinDemux::new(n, k), &trace, faults)?;
            check("random", cfg, || RandomDemux::new(n, seed), &trace, faults)?;
            check(
                "static partition",
                cfg,
                || StaticPartitionDemux::minimal(n, k, r_prime),
                &trace,
                faults,
            )?;
            check("ftd", cfg, || FtdDemux::new(n, k, r_prime, 2), &trace, faults)?;
            check("hash flow", cfg, || HashFlowDemux::new(n, k), &trace, faults)?;
            check(
                "least loaded (local)",
                cfg,
                || LeastLoadedLocalDemux::new(n, k, r_prime),
                &trace,
                faults,
            )?;
            check("two-stage lb", cfg, || TwoStageLbDemux::new(k), &trace, faults)?;
            check(
                "least loaded of d",
                cfg,
                || LeastLoadedOfDDemux::new(n, k, r_prime, 2, seed),
                &trace,
                faults,
            )?;
        }
    }
}
