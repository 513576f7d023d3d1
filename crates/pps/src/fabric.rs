//! The switching fabric shared by the bufferless and input-buffered engines:
//! input→plane lines, the `K` planes, plane→output lines, and the output
//! multiplexors, advanced with an event agenda so per-slot cost scales with
//! *activity*, not with `K × N`.

use crate::agenda::Agenda;
use crate::output::OutputMux;
use crate::plane::Plane;
use pps_core::prelude::*;
use pps_core::telemetry::{Engine, EventKind};
use std::sync::Arc;

/// Aggregate fabric statistics for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricStats {
    /// Cells carried per plane — the concentration profile (Lemma 4's `c`
    /// is the maximum entry restricted to one output).
    pub plane_carried: Vec<u64>,
    /// Highest per-destination queue occupancy in any plane.
    pub max_plane_queue: usize,
    /// Highest occupancy of any output multiplexor.
    pub max_output_held: usize,
    /// Cells lost to failed planes (fault-injection runs only).
    pub dropped: u64,
    /// Cells the resequencer watchdogs skipped past (declared lost).
    pub skipped: u64,
    /// Slots in which an output mux held cells but emitted nothing, summed
    /// over outputs — the head-of-line-blocking exposure of the run.
    pub stalled_slots: u64,
    /// Cells that arrived at an output after the watchdog had skipped past
    /// them and were discarded to preserve emission order.
    pub late_dropped: u64,
    /// Total transmissions on input→plane lines.
    pub input_line_uses: u64,
    /// Total transmissions on plane→output lines.
    pub output_line_uses: u64,
}

/// The three-stage fabric.
#[derive(Clone, Debug)]
pub struct Fabric {
    cfg: PpsConfig,
    in_links: LinkBank,
    out_links: LinkBank,
    planes: Vec<Plane>,
    outputs: Vec<OutputMux>,
    /// The cell table of the log cells are dispatched into (adopted by
    /// [`dispatch`](Self::dispatch)); plane queues and output muxes park
    /// bare ids and read a cell's facts here. The fabric stores none.
    cells: Arc<CellTable>,
    /// Pending plane-service events, `(slot, plane, output)`, at most one
    /// per line.
    agenda: Agenda,
    /// Outputs that may be able to emit (dense list + membership flags:
    /// the emit sweep compacts the list in place, no per-slot allocation).
    active_list: Vec<u32>,
    active_flag: Vec<bool>,
    /// Live per-(plane,output) queue lengths for snapshots.
    plane_len_live: Vec<u32>,
    /// Live per-output mux occupancy for snapshots.
    output_pending_live: Vec<u32>,
    dropped: u64,
    /// Test-only chaos hook: number of flushed cells to "lose" without
    /// accounting them (see [`inject_conservation_leak`]). Always 0 in
    /// real runs.
    ///
    /// [`inject_conservation_leak`]: Self::inject_conservation_leak
    leak_budget: u32,
    /// The run's telemetry gate and meters.
    sink: Sink,
}

impl Fabric {
    /// Build an idle fabric for `cfg` (assumed validated), outside any run
    /// ([`Sink::detached`]).
    pub fn new(cfg: PpsConfig) -> Self {
        Fabric::new_in(cfg, Sink::detached())
    }

    /// Build an idle fabric for `cfg` (assumed validated) that records
    /// into `sink`.
    pub(crate) fn new_in(cfg: PpsConfig, sink: Sink) -> Self {
        let (n, k) = (cfg.n, cfg.k);
        Fabric {
            cfg,
            in_links: LinkBank::new(n, k, cfg.r_prime, LinkSide::InputToPlane),
            out_links: LinkBank::new(k, n, cfg.r_prime, LinkSide::PlaneToOutput),
            planes: (0..k).map(|_| Plane::new(n)).collect(),
            outputs: (0..n)
                .map(|j| {
                    let mut mux = OutputMux::new(n, cfg.discipline);
                    mux.set_watchdog(cfg.watchdog);
                    mux.set_port(PortId(j as u32), sink.clone());
                    mux
                })
                .collect(),
            cells: Arc::default(),
            agenda: Agenda::new(n, k, cfg.r_prime),
            active_list: Vec::with_capacity(n),
            active_flag: vec![false; n],
            plane_len_live: vec![0; k * n],
            output_pending_live: vec![0; n],
            dropped: 0,
            leak_budget: 0,
            sink,
        }
    }

    /// The switch configuration.
    pub fn cfg(&self) -> &PpsConfig {
        &self.cfg
    }

    /// The run's telemetry gate and meters.
    pub(crate) fn sink(&self) -> &Sink {
        &self.sink
    }

    /// This input's local view of its lines (the *only* information a
    /// fully-distributed demultiplexor is entitled to).
    pub fn local_view(&self, input: PortId, now: Slot) -> LocalView<'_> {
        LocalView {
            now,
            input,
            link_busy_until: self.in_links.row(input.idx()),
        }
    }

    /// Ignored: the fabric stores no per-cell state to pre-size. Kept until
    /// the ROADMAP 1(a) benchmark PR drops the call.
    #[doc(hidden)]
    pub fn reserve_cells(&mut self, _cells: usize) {}

    /// Register a cell as inside the switch, bound for its output: the
    /// GlobalFcfs discipline records it for straggler detection. Engines
    /// call this at *switch arrival* so buffered cells count too.
    pub fn register_arrival(&mut self, cell: &Cell) {
        self.outputs[cell.output.idx()].register_in_flight(cell.id);
    }

    /// Dispatch `cell` onto plane `plane` at `now`, acquiring the input
    /// line. Fails if the line is busy or the plane index is out of range —
    /// both are demultiplexor bugs under the model.
    ///
    /// The fabric reads every cell it holds from `log`'s cell table, so
    /// all cells in flight at once must be dispatched into logs of one
    /// table; `cell` must be its row there (debug builds check it).
    pub fn dispatch(
        &mut self,
        cell: Cell,
        plane: PlaneId,
        now: Slot,
        log: &mut RunLog,
    ) -> Result<(), ModelError> {
        let (i, p, j) = (cell.input.idx(), plane.idx(), cell.output.idx());
        if p >= self.cfg.k {
            return Err(ModelError::PlaneOutOfRange {
                plane,
                k: self.cfg.k,
            });
        }
        self.in_links.acquire(i, p, now)?;
        log.set_plane(cell.id, plane);
        let id = cell.id;
        if !Arc::ptr_eq(&self.cells, log.table()) {
            self.cells = Arc::clone(log.table());
        }
        debug_assert_eq!(
            cell,
            self.cells.cell(id),
            "cell {id:?} is not its row of the log's table"
        );
        if self.planes[p].accept(id, j) {
            self.sink
                .record(Engine::Pps, now, || EventKind::PlaneEnqueue {
                    cell: id,
                    plane,
                    output: PortId(j as u32),
                });
            self.plane_len_live[p * self.cfg.n + j] += 1;
            // The queue may have become serviceable.
            let at = now.max(self.out_links.free_at(p, j));
            self.schedule(p, j, at);
        } else {
            // Failed plane: the cell is lost. Un-register it so GlobalFcfs
            // does not wait forever.
            self.dropped += 1;
            if self.cfg.discipline == OutputDiscipline::GlobalFcfs {
                self.outputs[j].unregister_in_flight(cell.id);
            }
        }
        Ok(())
    }

    /// Arm line `(plane, output)` for service at `at` unless it already
    /// has an agenda entry.
    fn schedule(&mut self, plane: usize, output: usize, at: Slot) {
        self.agenda.push(at, plane, output);
    }

    /// Serve every `(plane, output)` line whose service event is due:
    /// deliver the head cell to the output multiplexor and re-arm the line
    /// after `r'` slots.
    ///
    /// Call it in every slot an entry is due ([`next_activity`] names the
    /// next one). Late service is drained in slot order, but only while
    /// the pending slots fit the agenda's `r' + 2`-bucket window; beyond
    /// that [`Agenda::push`] panics rather than mis-order.
    ///
    /// [`next_activity`]: Self::next_activity
    pub fn service(&mut self, now: Slot) -> Result<(), ModelError> {
        while let Some((_, p, j)) = self.agenda.pop_due(now) {
            let (p, j) = (p as usize, j as usize);
            if self.planes[p].queue_len(j) == 0 {
                continue; // drained in the meantime; re-armed on next push
            }
            if !self.out_links.is_free(p, j, now) {
                // Defensive: re-arm at the line's free time.
                let at = self.out_links.free_at(p, j);
                self.schedule(p, j, at);
                continue;
            }
            let id = self.planes[p].pop_for(j).expect("non-empty checked");
            self.out_links.acquire(p, j, now)?;
            self.plane_len_live[p * self.cfg.n + j] -= 1;
            self.sink
                .record(Engine::Pps, now, || EventKind::PlaneDeliver {
                    cell: id,
                    plane: PlaneId(p as u32),
                    output: PortId(j as u32),
                });
            if self.outputs[j].deliver(&self.cells, id, now) {
                self.output_pending_live[j] += 1;
                if !self.active_flag[j] {
                    self.active_flag[j] = true;
                    self.active_list.push(j as u32);
                }
            }
            if self.planes[p].queue_len(j) > 0 {
                // Re-arm when the line frees: `now + r'`, which `acquire`
                // has just checked against slot overflow.
                let at = self.out_links.free_at(p, j);
                self.schedule(p, j, at);
            }
        }
        Ok(())
    }

    /// Let every output with work emit at most one cell; record departures.
    pub fn emit(&mut self, now: Slot, log: &mut RunLog) {
        self.sink.slots(1);
        let mut write = 0usize;
        for read in 0..self.active_list.len() {
            let j = self.active_list[read];
            let mux = &mut self.outputs[j as usize];
            if let Some(id) = mux.emit(&self.cells, now) {
                self.output_pending_live[j as usize] -= 1;
                self.sink.record(Engine::Pps, now, || EventKind::Depart {
                    cell: id,
                    output: PortId(j),
                });
                log.set_departure(id, now);
            }
            if mux.has_work() {
                self.active_list[write] = j;
                write += 1;
            } else {
                self.active_flag[j as usize] = false;
            }
        }
        self.active_list.truncate(write);
    }

    /// The next slot strictly after `now` at which the fabric does
    /// something beyond per-slot stall accounting: a plane-service event
    /// comes due, an output emits, or a resequencer watchdog fires. `None`
    /// means the fabric is inert until new cells are dispatched into it.
    ///
    /// Skip-ahead stepping jumps `now` to the minimum of this and the
    /// other components' activity, replaying the gap through
    /// [`skip_idle_slots`](Self::skip_idle_slots).
    pub fn next_activity(&self, now: Slot) -> Option<Slot> {
        // Stale agenda entries (drained queues, busy lines) are legitimate
        // activity: the dense loop pops them at exactly this slot, so the
        // skip must stop there too to keep the agenda evolution identical.
        let mut min = self.agenda.peek().map(|at| at.max(now + 1));
        if min == Some(now + 1) {
            return min;
        }
        for idx in 0..self.active_list.len() {
            let mux = &self.outputs[self.active_list[idx] as usize];
            if let Some(at) = mux.next_activity(now) {
                min = Some(min.map_or(at, |m| m.min(at)));
                if min == Some(now + 1) {
                    break;
                }
            }
        }
        min
    }

    /// Replay the dense loop's effects over the skipped interval
    /// `[from, to]` in closed form: meter the slots as skipped and account
    /// the stall exposure of every active output. Valid only for intervals
    /// in which [`next_activity`](Self::next_activity) reported nothing due
    /// (debug builds assert it: a jump over a pending event is a missed
    /// wake-up, never a silent one).
    pub fn skip_idle_slots(&mut self, from: Slot, to: Slot) {
        debug_assert!(
            self.next_activity(from.saturating_sub(1))
                .is_none_or(|at| at > to),
            "skip over [{from}, {to}] jumps fabric activity due at {:?}",
            self.next_activity(from.saturating_sub(1))
        );
        self.sink.skipped(to - from + 1);
        for idx in 0..self.active_list.len() {
            let j = self.active_list[idx] as usize;
            self.outputs[j].skip_idle(from, to);
        }
    }

    /// Total cells emitted by the output multiplexors so far — the
    /// departure side of the conservation ledger.
    pub fn departed(&self) -> u64 {
        self.outputs.iter().map(|o| o.emitted()).sum()
    }

    /// Cells currently inside the fabric destined for `output` (its plane
    /// queues plus its multiplexor) — the occupancy the congestion-shape
    /// oracle samples per slot.
    pub fn queued_for(&self, output: usize) -> usize {
        self.planes
            .iter()
            .map(|p| p.queue_len(output))
            .sum::<usize>()
            + self.outputs[output].held()
    }

    /// Test-only chaos hook: arm the fabric to silently lose the next
    /// flushed cell on a plane failure *without* counting it dropped —
    /// an intentional conservation bug the chaos harness must catch and
    /// shrink. Never called outside the oracle-validation tests.
    #[doc(hidden)]
    pub(crate) fn inject_conservation_leak(&mut self) {
        self.leak_budget += 1;
    }

    /// Total cells inside the fabric (plane queues + output muxes).
    pub fn backlog(&self) -> usize {
        self.planes.iter().map(|p| p.backlog()).sum::<usize>()
            + self.outputs.iter().map(|o| o.held()).sum::<usize>()
    }

    /// Whether every plane buffer for `output` is currently non-empty — the
    /// paper's *congestion* predicate (Section 5) at one instant.
    pub fn all_planes_backlogged_for(&self, output: usize) -> bool {
        self.planes.iter().all(|p| p.queue_len(output) > 0)
    }

    /// Mark plane `plane` failed (fault-injection). Cells already queued
    /// inside the plane are lost with it: they are counted dropped and
    /// unregistered from the GlobalFcfs straggler tracking so outputs do
    /// not wait for them forever.
    ///
    /// The plane's agenda entries stay armed. They pop as stale at their
    /// slot (empty queue: nothing delivered, nothing re-armed), and until
    /// then [`next_activity`](Self::next_activity) still names that slot,
    /// so skip-ahead wakes once more for the dead plane. Pruning them here
    /// would change the pinned `slots`/`slots_skipped` counts of every
    /// faulted run and needs a re-bless.
    pub fn fail_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.check_plane(plane)?;
        for (j, id) in self.planes[plane].fail() {
            self.plane_len_live[plane * self.cfg.n + j] -= 1;
            if self.leak_budget > 0 {
                // Injected bug (test-only, see `inject_conservation_leak`):
                // the cell vanishes without being counted dropped or
                // unregistered — exactly the accounting slip the chaos
                // conservation oracle exists to catch.
                self.leak_budget -= 1;
                continue;
            }
            self.dropped += 1;
            if self.cfg.discipline == OutputDiscipline::GlobalFcfs {
                self.outputs[j].unregister_in_flight(id);
            }
        }
        Ok(())
    }

    /// Bring a failed plane back into service. It restarts empty; cells
    /// lost to the failure are not restored.
    pub fn recover_plane(&mut self, plane: usize) -> Result<(), ModelError> {
        self.check_plane(plane)?;
        self.planes[plane].recover();
        Ok(())
    }

    /// Degrade the `input → plane` line: it presents as busy through slot
    /// `until` (exclusive) to the input's local view and rejects dispatch.
    pub fn degrade_link(
        &mut self,
        input: usize,
        plane: usize,
        until: Slot,
    ) -> Result<(), ModelError> {
        self.check_plane(plane)?;
        if input >= self.cfg.n {
            return Err(ModelError::InvalidConfig {
                reason: format!("input {input} out of range for N = {}", self.cfg.n),
            });
        }
        self.in_links.degrade(input, plane, until);
        Ok(())
    }

    fn check_plane(&self, plane: usize) -> Result<(), ModelError> {
        if plane >= self.cfg.k {
            return Err(ModelError::InvalidConfig {
                reason: format!("plane {plane} out of range for K = {}", self.cfg.k),
            });
        }
        Ok(())
    }

    /// Record a cell lost at the first stage: a bufferless input with no
    /// usable line (possible only under link degradation) has nowhere to
    /// hold it.
    pub fn drop_at_input(&mut self, cell: &Cell) {
        self.dropped += 1;
        if self.cfg.discipline == OutputDiscipline::GlobalFcfs {
            self.outputs[cell.output.idx()].unregister_in_flight(cell.id);
        }
    }

    /// Build the observable global snapshot at `taken_at`.
    ///
    /// Thin allocating wrapper over [`snapshot_into`](Self::snapshot_into)
    /// for external callers; the engines' per-slot paths reuse buffers
    /// through `snapshot_into` instead.
    pub(crate) fn snapshot(&self, taken_at: Slot, input_buffer_len: &[u32]) -> GlobalSnapshot {
        let mut out = GlobalSnapshot::empty(self.cfg.n, self.cfg.k, taken_at);
        self.snapshot_into(taken_at, input_buffer_len, &mut out);
        out
    }

    /// Fill `out` with the observable global snapshot at `taken_at`,
    /// reusing its buffers when the geometry matches (the per-slot case)
    /// and reallocating only on a geometry change.
    pub(crate) fn snapshot_into(
        &self,
        taken_at: Slot,
        input_buffer_len: &[u32],
        out: &mut GlobalSnapshot,
    ) {
        out.taken_at = taken_at;
        out.k = self.cfg.k;
        out.n = self.cfg.n;
        if out.plane_queue_len.len() != self.plane_len_live.len() {
            out.plane_queue_len = vec![0; self.plane_len_live.len()].into_boxed_slice();
        }
        out.plane_queue_len.copy_from_slice(&self.plane_len_live);
        if out.input_buffer_len.len() != input_buffer_len.len() {
            out.input_buffer_len = vec![0; input_buffer_len.len()].into_boxed_slice();
        }
        out.input_buffer_len.copy_from_slice(input_buffer_len);
        if out.output_pending.len() != self.output_pending_live.len() {
            out.output_pending = vec![0; self.output_pending_live.len()].into_boxed_slice();
        }
        out.output_pending
            .copy_from_slice(&self.output_pending_live);
        if out.plane_mask.k() != self.cfg.k {
            out.plane_mask = PlaneMask::all_up(self.cfg.k);
        }
        for (p, plane) in self.planes.iter().enumerate() {
            out.plane_mask.set_up(p, !plane.is_failed());
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            plane_carried: self.planes.iter().map(|p| p.carried()).collect(),
            max_plane_queue: self
                .planes
                .iter()
                .map(|p| p.max_queue_occupancy())
                .max()
                .unwrap_or(0),
            max_output_held: self.outputs.iter().map(|o| o.max_held()).max().unwrap_or(0),
            dropped: self.dropped,
            skipped: self.outputs.iter().map(|o| o.skipped()).sum(),
            stalled_slots: self.outputs.iter().map(|o| o.stalled_slots()).sum(),
            late_dropped: self.outputs.iter().map(|o| o.late_dropped()).sum(),
            input_line_uses: self.in_links.acquisitions(),
            output_line_uses: self.out_links.acquisitions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn cell(id: u64, input: u32, output: u32, arrival: Slot) -> Cell {
        Cell {
            id: CellId(id),
            input: PortId(input),
            output: PortId(output),
            seq: 0,
            arrival,
        }
    }

    /// An idle fabric and a log whose table holds exactly the cells the
    /// test dispatches (`cells[i].id == i`): the fabric reads them there.
    fn setup(n: usize, k: usize, rp: usize, cells: &[Cell]) -> (Fabric, RunLog) {
        let fabric = Fabric::new(PpsConfig::bufferless(n, k, rp));
        (fabric, RunLog::with_cells(cells))
    }

    /// Cell 0 on input 0 and cell 1 on input 1, both for output 0 in slot 0.
    const TWO: [Cell; 2] = [cell(0, 0, 0, 0), cell(1, 1, 0, 0)];

    #[test]
    fn same_slot_passthrough() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO[..1]);
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.service(0).unwrap();
        f.emit(0, &mut log);
        assert_eq!(log.get(CellId(0)).departure(), Some(0));
        assert_eq!(log.get(CellId(0)).plane(), Some(PlaneId(0)));
        assert_eq!(f.backlog(), 0);
    }

    #[test]
    fn plane_drains_one_cell_per_r_prime_slots() {
        // Two cells to the same output through the same plane: second
        // delivery waits r' slots — the concentration bottleneck of Lemma 4.
        let (mut f, mut log) = setup(2, 2, 3, &TWO);
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.dispatch(TWO[1], PlaneId(0), 0, &mut log).unwrap();
        for now in 0..=3 {
            f.service(now).unwrap();
            f.emit(now, &mut log);
        }
        assert_eq!(log.get(CellId(0)).departure(), Some(0));
        assert_eq!(log.get(CellId(1)).departure(), Some(3));
    }

    #[test]
    fn input_constraint_is_enforced() {
        // Input 0 offers a cell in slot 0 and another in slot 1, while its
        // line to plane 0 is still busy (r' = 2).
        let c = [cell(0, 0, 0, 0), cell(1, 0, 1, 1)];
        let (mut f, mut log) = setup(2, 2, 2, &c);
        f.dispatch(c[0], PlaneId(0), 0, &mut log).unwrap();
        let err = f.dispatch(c[1], PlaneId(0), 1, &mut log).unwrap_err();
        assert!(matches!(err, ModelError::InputConstraintViolation { .. }));
        // A different plane is fine.
        f.dispatch(c[1], PlaneId(1), 1, &mut log).unwrap();
    }

    #[test]
    fn plane_out_of_range_is_reported() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO[..1]);
        let err = f.dispatch(TWO[0], PlaneId(5), 0, &mut log).unwrap_err();
        assert!(matches!(err, ModelError::PlaneOutOfRange { k: 2, .. }));
    }

    #[test]
    fn two_planes_drain_in_parallel() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO);
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.dispatch(TWO[1], PlaneId(1), 0, &mut log).unwrap();
        f.service(0).unwrap();
        f.emit(0, &mut log);
        f.service(1).unwrap();
        f.emit(1, &mut log);
        // Both delivered in slot 0 (different planes), emitted 0 and 1.
        assert_eq!(log.get(CellId(0)).departure(), Some(0));
        assert_eq!(log.get(CellId(1)).departure(), Some(1));
        assert_eq!(f.stats().max_output_held, 2);
    }

    #[test]
    fn failed_plane_drops_and_counts() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO[..1]);
        f.fail_plane(1).unwrap();
        f.dispatch(TWO[0], PlaneId(1), 0, &mut log).unwrap();
        f.service(0).unwrap();
        f.emit(0, &mut log);
        assert_eq!(log.get(CellId(0)).departure(), None);
        assert_eq!(f.stats().dropped, 1);
        assert_eq!(f.backlog(), 0);
    }

    #[test]
    fn fail_plane_out_of_range_is_an_error_not_a_panic() {
        let (mut f, _) = setup(2, 2, 2, &[]);
        assert!(matches!(
            f.fail_plane(2),
            Err(ModelError::InvalidConfig { .. })
        ));
        assert!(matches!(
            f.recover_plane(7),
            Err(ModelError::InvalidConfig { .. })
        ));
        assert_eq!(f.stats().dropped, 0);
    }

    #[test]
    fn mid_run_failure_flushes_queued_cells() {
        // Two cells queued behind each other in plane 0 for output 0; fail
        // the plane after the first has been delivered but before the
        // second can be (r' = 3 holds the line).
        let (mut f, mut log) = setup(2, 2, 3, &TWO);
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.dispatch(TWO[1], PlaneId(0), 0, &mut log).unwrap();
        f.service(0).unwrap();
        f.emit(0, &mut log);
        assert_eq!(log.get(CellId(0)).departure(), Some(0));
        f.fail_plane(0).unwrap();
        for now in 1..=6 {
            f.service(now).unwrap();
            f.emit(now, &mut log);
        }
        assert_eq!(log.get(CellId(1)).departure(), None);
        assert_eq!(f.stats().dropped, 1);
        assert_eq!(f.backlog(), 0);
    }

    #[test]
    fn failed_planes_agenda_entry_stays_armed_and_pops_stale() {
        let c = [TWO[0], TWO[1], cell(2, 1, 0, 5)];
        let (mut f, mut log) = setup(2, 2, 3, &c);
        f.dispatch(c[0], PlaneId(0), 0, &mut log).unwrap();
        f.dispatch(c[1], PlaneId(0), 0, &mut log).unwrap();
        f.service(0).unwrap();
        f.emit(0, &mut log);
        assert_eq!(f.next_activity(0), Some(3), "line (0, 0) re-armed");
        f.fail_plane(0).unwrap();
        assert_eq!(f.backlog(), 0);
        // The dead plane's entry still wakes the skip loop at its slot...
        assert_eq!(f.next_activity(0), Some(3));
        f.skip_idle_slots(1, 2);
        // ...where it delivers nothing and re-arms nothing.
        f.service(3).unwrap();
        f.emit(3, &mut log);
        assert_eq!(log.get(CellId(1)).departure(), None);
        assert_eq!(f.stats().output_line_uses, 1);
        assert_eq!(f.next_activity(3), None);
        // Recovery plus a dispatch arms the line as on a fresh fabric.
        f.recover_plane(0).unwrap();
        f.dispatch(c[2], PlaneId(0), 5, &mut log).unwrap();
        assert_eq!(f.next_activity(4), Some(5));
        f.service(5).unwrap();
        f.emit(5, &mut log);
        assert_eq!(log.get(CellId(2)).departure(), Some(5));
        assert_eq!(f.next_activity(5), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "jumps fabric activity")]
    fn skipping_across_a_pending_service_event_panics() {
        let (mut f, mut log) = setup(2, 2, 3, &TWO);
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.dispatch(TWO[1], PlaneId(0), 0, &mut log).unwrap();
        f.service(0).unwrap();
        f.emit(0, &mut log);
        // Cell 1's service event is due at slot 3.
        f.skip_idle_slots(1, 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not its row of the log's table")]
    fn dispatching_a_cell_the_log_does_not_hold_panics() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO);
        // Cell 1 of the table arrives on input 1, not 0.
        let _ = f.dispatch(cell(1, 0, 0, 0), PlaneId(0), 0, &mut log);
    }

    /// Dispatch a fixed script (four cells a slot for ten slots, squeezed
    /// onto two outputs so plane queues and busy lines form) from slot
    /// `base`, run service/emit for `horizon` slots, and return every
    /// cell's departure and every slot's `next_activity`, relative to
    /// `base`.
    fn shifted_script(base: Slot, horizon: Slot) -> (Vec<Option<Slot>>, Vec<Option<Slot>>) {
        let (n, k, rp) = (4, 4, 4);
        let mut f = Fabric::new(PpsConfig::bufferless(n, k, rp));
        let cells: Vec<Cell> = (0..10u64)
            .flat_map(|t| (0..n as u64).map(move |i| (t, i)))
            .enumerate()
            .map(|(id, (t, i))| Cell {
                id: CellId(id as u64),
                input: PortId(i as u32),
                output: PortId(((i + t) % 2) as u32),
                seq: (t / 2) as u32,
                arrival: base + t,
            })
            .collect();
        let mut log = RunLog::with_cells(&cells);
        let mut wakes = Vec::new();
        for t in 0..horizon {
            let now = base + t;
            for c in cells.iter().filter(|c| c.arrival == now) {
                f.register_arrival(c);
                let plane = PlaneId(((t + c.input.0 as u64) % k as u64) as u32);
                f.dispatch(*c, plane, now, &mut log).unwrap();
            }
            f.service(now).unwrap();
            f.emit(now, &mut log);
            wakes.push(f.next_activity(now).map(|at| at - base));
        }
        assert_eq!(f.backlog(), 0, "script must drain within the horizon");
        let departures = cells
            .iter()
            .map(|c| log.get(c.id).departure().map(|d| d - base))
            .collect();
        (departures, wakes)
    }

    #[test]
    fn script_near_the_last_slot_matches_slot_zero() {
        let horizon = 40;
        let at_zero = shifted_script(0, horizon);
        assert!(
            at_zero.0.iter().flatten().any(|&d| d > 20),
            "the script should queue cells behind busy lines"
        );
        // 4·r' of headroom: no `now + r'` of the script can wrap, wherever
        // the shift lands the wheel's buckets.
        for slack in [16, 17, 19] {
            assert_eq!(
                shifted_script(Slot::MAX - slack - horizon, horizon),
                at_zero
            );
        }
    }

    #[test]
    fn line_occupancy_past_the_last_slot_is_a_typed_error() {
        let late = cell(0, 0, 0, Slot::MAX - 2);
        let (mut f, mut log) = setup(2, 2, 3, &[late]);
        let err = f
            .dispatch(late, PlaneId(0), Slot::MAX - 2, &mut log)
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::SlotOverflow {
                at: Slot::MAX - 2,
                r_prime: 3
            }
        );
    }

    #[test]
    fn recovered_plane_carries_again() {
        let c = [cell(0, 0, 0, 0), cell(1, 0, 0, 2)];
        let (mut f, mut log) = setup(2, 2, 2, &c);
        f.fail_plane(0).unwrap();
        f.dispatch(c[0], PlaneId(0), 0, &mut log).unwrap();
        f.recover_plane(0).unwrap();
        // The input line is still occupied by the (lost) slot-0 dispatch.
        f.dispatch(c[1], PlaneId(0), 2, &mut log).unwrap();
        f.service(2).unwrap();
        f.emit(2, &mut log);
        assert_eq!(log.get(CellId(0)).departure(), None);
        assert_eq!(log.get(CellId(1)).departure(), Some(2));
        assert_eq!(f.stats().dropped, 1);
    }

    #[test]
    fn degraded_link_rejects_dispatch_and_shows_busy() {
        let c = cell(0, 0, 0, 5);
        let (mut f, mut log) = setup(2, 2, 2, &[c]);
        f.degrade_link(0, 1, 10).unwrap();
        assert!(!f.local_view(PortId(0), 5).is_free(1));
        assert!(f.dispatch(c, PlaneId(1), 5, &mut log).is_err());
        assert!(f.degrade_link(0, 9, 10).is_err());
        assert!(f.degrade_link(9, 0, 10).is_err());
    }

    #[test]
    fn snapshot_reports_plane_mask() {
        let (mut f, _) = setup(2, 2, 2, &[]);
        assert!(!f.snapshot(0, &[0, 0]).plane_mask.any_down());
        f.fail_plane(1).unwrap();
        let snap = f.snapshot(1, &[0, 0]);
        assert!(snap.plane_mask.is_up(0));
        assert!(!snap.plane_mask.is_up(1));
        f.recover_plane(1).unwrap();
        assert!(!f.snapshot(2, &[0, 0]).plane_mask.any_down());
    }

    #[test]
    fn snapshot_into_matches_allocating_snapshot() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO[..1]);
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.fail_plane(1).unwrap();
        let fresh = f.snapshot(3, &[1, 2]);
        // Filling a snapshot of the wrong geometry must rebuild it; a
        // matching one must be overwritten in place. Both end identical to
        // the allocating wrapper.
        let mut wrong = GlobalSnapshot::empty(5, 7, 0);
        f.snapshot_into(3, &[1, 2], &mut wrong);
        assert_eq!(fresh, wrong);
        let mut reused = f.snapshot(0, &[9, 9]);
        f.snapshot_into(3, &[1, 2], &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn congestion_predicate() {
        let (mut f, mut log) = setup(2, 2, 2, &TWO);
        assert!(!f.all_planes_backlogged_for(0));
        f.dispatch(TWO[0], PlaneId(0), 0, &mut log).unwrap();
        f.dispatch(TWO[1], PlaneId(1), 0, &mut log).unwrap();
        assert!(f.all_planes_backlogged_for(0));
    }
}
