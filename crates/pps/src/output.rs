//! Output multiplexors.
//!
//! The third stage of the PPS: each output port gathers cells delivered by
//! up to `K` planes and emits at most one cell per slot on the external
//! line. Because a flow's cells may ride different planes with different
//! queuing, the multiplexor is where order is re-established. Three
//! emission disciplines are supported (see
//! [`pps_core::OutputDiscipline`]): flow-FIFO resequencing (default),
//! global FCFS (exact mimicking of a FCFS output-queued switch, footnote 3
//! of the paper), and unordered greedy (ablation only).
//!
//! The mux holds bare [`CellId`]s and reads what a cell is from the trace's
//! [`CellTable`]. FlowFifo state costs 8 bytes per input (`Flow`: the
//! next seq, and one word for the eligible bit and the ring's slab index),
//! allocated at the mux's first delivery, so an output no cell reaches
//! holds none; a flow that parks an out-of-order cell takes a `SeqRing`,
//! with its gap timer, from a per-mux slab and hands it back when the ring
//! empties, so a mux holds rings only for the flows that have a gap right
//! now.
//!
//! A FlowFifo delivery is placed in one pass: `deliver` pushes the cell the
//! flow waits for straight into the eligible heap (or parks any other in
//! the flow's ring) and refreshes that flow's gap timer at once. Within a
//! slot's delivery phase a flow's state only gains cells, so the timer's
//! end-of-slot state is the same whatever order the planes deliver in.

use pps_core::prelude::*;
use pps_core::telemetry::{Engine, EventKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sparse sequence-indexed ring holding one flow's gap-blocked cell ids.
///
/// Cells wait here keyed by their per-flow sequence number; at any moment
/// the pending seqs live in a window no wider than the flow's in-switch
/// reordering span, so a power-of-two ring addressed by `seq & (cap − 1)`
/// holds them collision-free (capacity grows to cover the live span; the
/// occupancy check compares the stored seq, so a stale slot can never
/// masquerade as a hit). Insert, remove-min, and min queries are O(1)
/// amortized — the resequencer's whole hot path, which previously walked a
/// `BTreeMap` per delivery and per emission. Slots store `(seq, id)` — two
/// words — instead of a whole `Cell`. An emptied ring has every slot
/// vacant, so a flow that takes it from the slab starts clean and keeps
/// only its capacity.
#[derive(Clone, Debug, Default)]
struct SeqRing {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Option<(u32, CellId)>>,
    /// Pending-cell count.
    len: usize,
    /// Exact smallest pending seq (meaningful while `len > 0`).
    min_seq: u32,
    /// Exact largest pending seq (meaningful while `len > 0`).
    max_seq: u32,
}

impl SeqRing {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest pending seq, if any.
    fn min_seq(&self) -> Option<u32> {
        (self.len > 0).then_some(self.min_seq)
    }

    /// Grow (rehash) until `span` consecutive seqs fit collision-free.
    fn ensure_span(&mut self, span: usize) {
        if span <= self.slots.len() {
            return;
        }
        let new_cap = span.next_power_of_two().max(8);
        let mut new_slots = vec![None; new_cap];
        for (seq, id) in self.slots.drain(..).flatten() {
            new_slots[seq as usize & (new_cap - 1)] = Some((seq, id));
        }
        self.slots = new_slots;
    }

    /// Park cell `id` under its sequence number `seq`.
    fn insert(&mut self, seq: u32, id: CellId) {
        let (lo, hi) = if self.len == 0 {
            (seq, seq)
        } else {
            (self.min_seq.min(seq), self.max_seq.max(seq))
        };
        self.ensure_span((hi - lo) as usize + 1);
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[seq as usize & mask];
        debug_assert!(slot.is_none(), "duplicate seq {seq} delivered");
        *slot = Some((seq, id));
        self.len += 1;
        self.min_seq = lo;
        self.max_seq = hi;
    }

    /// Take the cell parked under `seq`, if present. Callers only ever
    /// remove the current minimum (the head the flow is waiting on), so
    /// the min is maintained by scanning forward from the vacated slot.
    fn remove(&mut self, seq: u32) -> Option<CellId> {
        if self.len == 0 {
            return None;
        }
        let cap = self.slots.len();
        let slot = &mut self.slots[seq as usize & (cap - 1)];
        match slot {
            Some((s, _)) if *s == seq => {}
            _ => return None,
        }
        let (_, id) = slot.take().expect("matched above");
        self.len -= 1;
        if self.len > 0 && seq == self.min_seq {
            let mut s = seq + 1;
            self.min_seq = loop {
                if matches!(&self.slots[s as usize & (cap - 1)], Some((q, _)) if *q == s) {
                    break s;
                }
                s += 1;
            };
        }
        Some(id)
    }
}

/// FlowFifo state of one input's flow to this output: 8 bytes, all zero
/// while the flow is idle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Flow {
    /// Next expected sequence number.
    next_seq: u32,
    /// Bit 0: whether the flow's cell `next_seq` sits in the eligible heap
    /// (a flow with an eligible cell is progressing, not gap-blocked). Only
    /// that cell is ever eligible, and `next_seq` moves only on its
    /// emission or a watchdog skip, so a flow has at most one. Bits 1–31:
    /// one more than the slab index of the flow's [`Gap`] while it has
    /// cells parked, 0 otherwise (a slab holds at most one ring per flow,
    /// and flows number at most `MAX_PORTS`, far below 2³¹).
    state: u32,
}

impl Flow {
    fn eligible(self) -> bool {
        self.state & 1 == 1
    }

    fn set_eligible(&mut self, eligible: bool) {
        self.state = self.state & !1 | u32::from(eligible);
    }

    /// Slab index of the flow's ring, if it has cells parked.
    fn ring(self) -> Option<u32> {
        (self.state >> 1).checked_sub(1)
    }

    fn set_ring(&mut self, ring: Option<u32>) {
        let tag = ring.map_or(0, |r| r + 1);
        debug_assert!(tag < 1 << 31, "ring index {ring:?} overflows the tag");
        self.state = self.state & 1 | tag << 1;
    }
}

/// What a flow holds only while it has cells parked: the ring they wait
/// in, and the slot since which the flow has been gap-blocked (cells
/// parked, none eligible) — the watchdog's per-flow timer.
#[derive(Clone, Debug, Default)]
struct Gap {
    ring: SeqRing,
    blocked_since: Option<Slot>,
}

/// One output port's multiplexor.
#[derive(Clone, Debug)]
pub struct OutputMux {
    discipline: OutputDiscipline,
    /// Which output port this mux serves (telemetry track id; defaults to
    /// port 0 for muxes built outside a fabric, e.g. unit tests).
    port: PortId,
    /// The run's telemetry gate (detached outside a fabric).
    sink: Sink,
    /// FlowFifo/Greedy: cells eligible for emission right now, min-heap
    /// by id. The trace numbers cells in `(arrival slot, input)` order, so
    /// the smallest id is the earliest switch arrival, ties broken by
    /// input. (A binary heap, not a BTreeMap: push/pop-min dominate the
    /// hot path and keys are never removed out of order.)
    eligible: BinaryHeap<Reverse<CellId>>,
    /// FlowFifo: each input's flow, empty until the mux's first delivery
    /// sizes it to `inputs` (an output no cell reaches holds none).
    flows: Vec<Flow>,
    /// FlowFifo: the switch's input count, the length `flows` takes.
    inputs: usize,
    /// FlowFifo: the slab of rings, one per flow with cells waiting for
    /// earlier cells of their flow (O(1) park/unpark, see [`SeqRing`]),
    /// plus the released ones listed in `free`: empty, with no timer.
    gaps: Vec<Gap>,
    free: Vec<u32>,
    /// GlobalFcfs: ids of cells bound for this output that are inside the
    /// switch but have not yet been emitted (registered at dispatch time).
    /// Kept sorted; the bufferless engine registers in increasing id order
    /// so insertion is an O(1) push, and the buffered engine's occasional
    /// out-of-order dispatch falls back to a binary-search insert.
    in_flight: VecDeque<CellId>,
    /// GlobalFcfs: cells parked at the mux, min-heap by id (emission only
    /// ever takes the oldest; ids are globally unique and encode FCFS
    /// order).
    present: BinaryHeap<Reverse<CellId>>,
    /// Number of cells currently held (all disciplines).
    held: usize,
    /// High-water mark of `held`.
    max_held: usize,
    /// Total emitted.
    emitted: u64,
    /// Resequencer watchdog: skip ahead after this many consecutive
    /// stalled slots (`None` disables).
    watchdog: Option<Slot>,
    /// First slot of the current stall (held cells but nothing emitted).
    stalled_since: Option<Slot>,
    /// Cells the watchdog declared lost (skipped past).
    skipped: u64,
    /// Slots in which the mux held cells but emitted nothing.
    stalled_slots: u64,
    /// Cells that arrived after the watchdog had skipped past them and
    /// were discarded to preserve the already-emitted order.
    late_dropped: u64,
}

impl OutputMux {
    /// An empty multiplexor for an `n`-input switch.
    pub fn new(n: usize, discipline: OutputDiscipline) -> Self {
        OutputMux {
            discipline,
            port: PortId(0),
            sink: Sink::detached(),
            eligible: BinaryHeap::new(),
            flows: Vec::new(),
            inputs: n,
            gaps: Vec::new(),
            free: Vec::new(),
            in_flight: VecDeque::new(),
            present: BinaryHeap::new(),
            held: 0,
            max_held: 0,
            emitted: 0,
            watchdog: None,
            stalled_since: None,
            skipped: 0,
            stalled_slots: 0,
            late_dropped: 0,
        }
    }

    /// Configure the resequencer watchdog (see [`PpsConfig::watchdog`]):
    /// after `timeout` consecutive slots in which cells are held but none
    /// can be emitted, the mux skips past the missing cell(s). The timeout
    /// fires *during* the `timeout`-th consecutive blocked slot — a limit
    /// of 1 skips in the very slot the stall is first observed.
    pub fn set_watchdog(&mut self, timeout: Option<Slot>) {
        self.watchdog = timeout;
    }

    /// Tell the mux which output port it serves and which run it records
    /// into, so its telemetry events land on the right track.
    pub(crate) fn set_port(&mut self, port: PortId, sink: Sink) {
        self.port = port;
        self.sink = sink;
    }

    /// GlobalFcfs only: register that `id` has entered the switch bound for
    /// this output (called by the engine at dispatch time, so the mux knows
    /// whether an earlier cell is still in transit).
    pub(crate) fn register_in_flight(&mut self, id: CellId) {
        if self.discipline == OutputDiscipline::GlobalFcfs {
            match self.in_flight.back() {
                Some(&last) if last >= id => {
                    // Buffered engine releasing an older buffered cell
                    // after a younger immediate dispatch: keep sorted.
                    if let Err(pos) = self.in_flight.binary_search(&id) {
                        self.in_flight.insert(pos, id);
                    }
                }
                _ => self.in_flight.push_back(id),
            }
        }
    }

    /// GlobalFcfs only: remove a registration made by
    /// [`register_in_flight`](Self::register_in_flight) for a cell that
    /// will never arrive (lost to a failed plane), so the mux does not wait
    /// for it forever.
    pub(crate) fn unregister_in_flight(&mut self, id: CellId) {
        if let Ok(pos) = self.in_flight.binary_search(&id) {
            self.in_flight.remove(pos);
        }
    }

    /// A plane delivered cell `id` to this output in slot `now`. Returns
    /// `false` if the cell was discarded as *late*: the watchdog had
    /// already skipped past it, so emitting it now would reorder cells
    /// already sent on the external line. (Without a watchdog every
    /// delivery is accepted.)
    pub fn deliver(&mut self, cells: &CellTable, id: CellId, now: Slot) -> bool {
        match self.discipline {
            OutputDiscipline::FlowFifo => {
                if self.flows.is_empty() {
                    self.flows = vec![Flow::default(); self.inputs];
                }
                let i = cells.input(id).idx();
                let seq = cells.seq(id);
                let flow = &mut self.flows[i];
                if seq < flow.next_seq {
                    self.late_dropped += 1;
                    return false;
                }
                self.held += 1;
                self.max_held = self.max_held.max(self.held);
                if seq == flow.next_seq {
                    self.push_eligible(i, id);
                } else {
                    self.sink.record(Engine::Pps, now, || EventKind::ReseqHold {
                        cell: id,
                        output: self.port,
                    });
                    self.park(i, seq, id);
                }
                self.refresh_gap(i, now);
            }
            OutputDiscipline::GlobalFcfs => {
                if self.in_flight.binary_search(&id).is_err() {
                    self.late_dropped += 1;
                    return false;
                }
                self.held += 1;
                self.max_held = self.max_held.max(self.held);
                if self.sink.on() && self.in_flight.front() != Some(&id) {
                    // Parked behind a straggler still in transit.
                    self.sink.record(Engine::Pps, now, || EventKind::ReseqHold {
                        cell: id,
                        output: self.port,
                    });
                }
                self.present.push(Reverse(id));
            }
            OutputDiscipline::Greedy => {
                self.held += 1;
                self.max_held = self.max_held.max(self.held);
                self.eligible.push(Reverse(id));
            }
        }
        true
    }

    /// Make `id`, the cell input `i`'s flow waits for, eligible.
    fn push_eligible(&mut self, i: usize, id: CellId) {
        let flow = &mut self.flows[i];
        debug_assert!(
            !flow.eligible(),
            "input {i}'s flow already has an eligible cell"
        );
        flow.set_eligible(true);
        self.eligible.push(Reverse(id));
    }

    /// Park cell `id` under `seq` in input `i`'s ring, taking one from the
    /// slab if the flow has none.
    fn park(&mut self, i: usize, seq: u32, id: CellId) {
        let flow = &mut self.flows[i];
        let ring = flow.ring().unwrap_or_else(|| {
            let ring = self.free.pop().unwrap_or_else(|| {
                self.gaps.push(Gap::default());
                (self.gaps.len() - 1) as u32
            });
            flow.set_ring(Some(ring));
            ring
        });
        self.gaps[ring as usize].ring.insert(seq, id);
    }

    /// Take the cell parked under `seq` in input `i`'s ring, if present. A
    /// ring left empty goes back to the slab, its timer cleared.
    fn unpark(&mut self, i: usize, seq: u32) -> Option<CellId> {
        let flow = &mut self.flows[i];
        let ring = flow.ring()?;
        let gap = &mut self.gaps[ring as usize];
        let id = gap.ring.remove(seq)?;
        if gap.ring.is_empty() {
            gap.blocked_since = None;
            self.free.push(ring);
            flow.set_ring(None);
        }
        Some(id)
    }

    /// Restart or clear input `i`'s gap timer: the flow is gap-blocked iff
    /// it has cells parked and none eligible (an eligible cell means the
    /// flow is progressing — it will emit and advance `next_seq`). A flow
    /// with nothing parked holds no ring, and so no timer.
    fn refresh_gap(&mut self, i: usize, now: Slot) {
        let flow = self.flows[i];
        let Some(ring) = flow.ring() else {
            return;
        };
        let since = &mut self.gaps[ring as usize].blocked_since;
        if flow.eligible() {
            *since = None;
        } else if since.is_none() {
            *since = Some(now);
        }
    }

    /// Emit at most one cell in slot `now`, per the discipline. Tracks
    /// stalls (held cells, nothing emittable) and, when the watchdog is
    /// armed, skips past missing cells after the configured timeout —
    /// per-flow for FlowFifo (a gap must not wait behind other flows'
    /// emissions), whole-mux for GlobalFcfs (where a straggler blocks
    /// everything by definition).
    pub fn emit(&mut self, cells: &CellTable, now: Slot) -> Option<CellId> {
        if self.watchdog.is_some() && self.discipline == OutputDiscipline::FlowFifo {
            self.expire_gaps(now);
        }
        if let Some(id) = self.try_emit(cells, now) {
            self.stalled_since = None;
            return Some(id);
        }
        if self.held == 0 {
            self.stalled_since = None;
            return None;
        }
        let since = *self.stalled_since.get_or_insert(now);
        if let Some(limit) = self.watchdog {
            if self.discipline == OutputDiscipline::GlobalFcfs && now - since + 1 >= limit {
                self.skip_stragglers(now);
                self.stalled_since = None;
                if let Some(id) = self.try_emit(cells, now) {
                    // The skip unblocked an emission, so by definition
                    // ("held cells but emitted nothing") this slot is not
                    // stalled — it must not be counted below.
                    return Some(id);
                }
            }
        }
        self.stalled_slots += 1;
        None
    }

    /// FlowFifo watchdog: skip past the gap of every flow that has been
    /// blocked for the timeout, making its waiting head eligible. Flows
    /// are visited in input order, which fixes the telemetry order.
    fn expire_gaps(&mut self, now: Slot) {
        let limit = self.watchdog.expect("caller checked");
        for i in 0..self.flows.len() {
            let flow = self.flows[i];
            let Some(ring) = flow.ring() else {
                continue;
            };
            let gap = &self.gaps[ring as usize];
            let Some(since) = gap.blocked_since else {
                continue;
            };
            if now - since + 1 < limit {
                continue;
            }
            let seq = gap.ring.min_seq().expect("a blocked flow parks a cell");
            // The gap [next_seq, seq) is declared lost.
            let lost = seq - flow.next_seq;
            self.skipped += u64::from(lost);
            self.flows[i].next_seq = seq;
            let head = self.unpark(i, seq).expect("min seq is present");
            self.sink
                .record(Engine::Pps, now, || EventKind::WatchdogDrop {
                    output: self.port,
                    cells: lost,
                });
            self.sink
                .record(Engine::Pps, now, || EventKind::ReseqRelease {
                    cell: head,
                    output: self.port,
                });
            self.push_eligible(i, head);
            self.refresh_gap(i, now);
        }
    }

    fn try_emit(&mut self, cells: &CellTable, now: Slot) -> Option<CellId> {
        let id = match self.discipline {
            OutputDiscipline::FlowFifo => {
                let Reverse(id) = self.eligible.pop()?;
                let i = cells.input(id).idx();
                let flow = &mut self.flows[i];
                // The flow's one eligible cell is the one it waits for.
                debug_assert_eq!(cells.seq(id), flow.next_seq);
                let next_seq = flow.next_seq + 1;
                flow.set_eligible(false);
                flow.next_seq = next_seq;
                // The successor may now be eligible.
                if let Some(next) = self.unpark(i, next_seq) {
                    self.sink
                        .record(Engine::Pps, now, || EventKind::ReseqRelease {
                            cell: next,
                            output: self.port,
                        });
                    self.push_eligible(i, next);
                }
                self.refresh_gap(i, now);
                id
            }
            OutputDiscipline::GlobalFcfs => {
                // Emit the oldest present cell only if nothing older is
                // still in transit inside the switch.
                let &Reverse(oldest_present) = self.present.peek()?;
                let &oldest_in_flight = self
                    .in_flight
                    .front()
                    .expect("present cells are always registered in flight");
                if oldest_present != oldest_in_flight {
                    return None; // wait for the straggler
                }
                self.in_flight.pop_front();
                self.present.pop().expect("peeked above").0
            }
            OutputDiscipline::Greedy => self.eligible.pop()?.0,
        };
        self.held -= 1;
        self.emitted += 1;
        Some(id)
    }

    /// GlobalFcfs watchdog: abandon in-flight registrations older than the
    /// oldest present cell — they are the stragglers blocking emission.
    /// Called by [`emit`](Self::emit) once a whole-mux stall outlives the
    /// watchdog timeout.
    fn skip_stragglers(&mut self, now: Slot) {
        let Some(&Reverse(oldest_present)) = self.present.peek() else {
            return;
        };
        let mut abandoned = 0u32;
        while let Some(&oldest) = self.in_flight.front() {
            if oldest >= oldest_present {
                break;
            }
            self.in_flight.pop_front();
            self.skipped += 1;
            abandoned += 1;
        }
        if abandoned > 0 {
            self.sink
                .record(Engine::Pps, now, || EventKind::WatchdogDrop {
                    output: self.port,
                    cells: abandoned,
                });
        }
    }

    /// Whether a dense [`emit`](Self::emit) call right now would emit a
    /// cell without watchdog help: FlowFifo/Greedy need an eligible cell,
    /// GlobalFcfs needs the oldest present cell to be the oldest still
    /// registered in flight.
    fn can_emit(&self) -> bool {
        match self.discipline {
            OutputDiscipline::FlowFifo | OutputDiscipline::Greedy => !self.eligible.is_empty(),
            OutputDiscipline::GlobalFcfs => match self.present.peek() {
                Some(&Reverse(oldest)) => self.in_flight.front() == Some(&oldest),
                None => false,
            },
        }
    }

    /// The next slot strictly after `now` at which this mux does something
    /// beyond stall accounting: emits a cell, or fires a watchdog. `None`
    /// means the mux is inert until its next delivery (which the fabric's
    /// agenda tracks) — an unarmed watchdog stalls indefinitely.
    ///
    /// Used by skip-ahead stepping: slots in between are replayed in
    /// closed form by [`skip_idle`](Self::skip_idle).
    pub(crate) fn next_activity(&self, now: Slot) -> Option<Slot> {
        if self.held == 0 {
            return None;
        }
        if self.can_emit() {
            return Some(now + 1);
        }
        let limit = self.watchdog?;
        // A stall clock started at `since` fires during its limit-th
        // consecutive stalled slot: `since + limit - 1`, saturating — a
        // limit near `Slot::MAX` is a deadline at the end of time, not a
        // wrapped one in the past.
        let fires = |since: Slot| since.saturating_add(limit - 1).max(now + 1);
        match self.discipline {
            // The earliest per-flow gap clock (only flows with a ring run one).
            OutputDiscipline::FlowFifo => self
                .gaps
                .iter()
                .filter_map(|gap| gap.blocked_since)
                .map(fires)
                .min(),
            // Whole-mux stall clock; if it has not started yet, dense would
            // start it at the next stalled slot (`now + 1`).
            OutputDiscipline::GlobalFcfs => Some(fires(self.stalled_since.unwrap_or(now + 1))),
            // Greedy with held cells always has an eligible cell, so
            // `can_emit` above already returned.
            OutputDiscipline::Greedy => None,
        }
    }

    /// Replay the stall accounting of the dense loop over the skipped
    /// interval `[from, to]` in closed form. Every slot in the interval
    /// must be one where a dense [`emit`](Self::emit) would have held cells
    /// but emitted nothing and fired no watchdog — which is exactly what
    /// [`next_activity`](Self::next_activity) guarantees for slots before
    /// the one it reports.
    pub(crate) fn skip_idle(&mut self, from: Slot, to: Slot) {
        debug_assert!(self.held > 0 && !self.can_emit(), "skipped a live slot");
        self.stalled_slots += to - from + 1;
        // Dense `emit` starts the whole-mux stall clock at the first
        // stalled slot of the gap.
        if self.stalled_since.is_none() {
            self.stalled_since = Some(from);
        }
    }

    /// Cells currently held at the mux.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Whether the mux could possibly emit this slot (cheap pre-check used
    /// by the engine's active-output tracking).
    pub(crate) fn has_work(&self) -> bool {
        self.held > 0
    }

    /// High-water mark of held cells — the output-side buffer requirement.
    pub(crate) fn max_held(&self) -> usize {
        self.max_held
    }

    /// Total cells emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Cells the watchdog skipped past (declared lost).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Slots in which cells were held but nothing could be emitted.
    pub fn stalled_slots(&self) -> u64 {
        self.stalled_slots
    }

    /// Cells discarded on delivery because the watchdog had already skipped
    /// past them.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cell(id: u64, input: u32, seq: u32, arrival: Slot) -> Cell {
        Cell {
            id: CellId(id),
            input: PortId(input),
            output: PortId(0),
            seq,
            arrival,
        }
    }

    /// Test harness: a mux plus a table of every cell handed to it (ids
    /// the test never uses hold filler rows), so test bodies deliver
    /// `Cell`s.
    struct Rig {
        rows: Vec<Cell>,
        /// The ids a test has entered (filler rows are not among them).
        named: BTreeSet<CellId>,
        log: RunLog,
        m: OutputMux,
    }

    impl Rig {
        fn new(n: usize, discipline: OutputDiscipline) -> Self {
            Rig {
                rows: Vec::new(),
                named: BTreeSet::new(),
                log: RunLog::default(),
                m: OutputMux::new(n, discipline),
            }
        }

        /// Enter `c` as its id's row of the table. The rows a test names
        /// must be in `(arrival, input)` order by id, as in every table a
        /// trace builds: the mux's eligible heap relies on it.
        fn add(&mut self, c: Cell) {
            while self.rows.len() <= c.id.idx() {
                self.rows.push(cell(self.rows.len() as u64, 0, 0, 0));
            }
            self.rows[c.id.idx()] = c;
            self.named.insert(c.id);
            let keys: Vec<_> = self
                .named
                .iter()
                .map(|id| (self.rows[id.idx()].arrival, self.rows[id.idx()].input))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "no table numbers these cells so: {:?}",
                self.named.iter().zip(&keys).collect::<Vec<_>>()
            );
            self.log = RunLog::with_cells(&self.rows);
        }

        fn deliver(&mut self, c: Cell, now: Slot) -> bool {
            self.add(c);
            self.m.deliver(self.log.table(), c.id, now)
        }

        fn emit(&mut self, now: Slot) -> Option<CellId> {
            self.m.emit(self.log.table(), now)
        }

        fn emit_seq(&mut self, now: Slot) -> Option<u32> {
            self.emit(now).map(|id| self.log.table().seq(id))
        }
    }

    #[test]
    fn flow_fifo_resequences_within_flow() {
        let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
        // Flow from input 0 delivered out of order: seq 1 first.
        assert!(m.deliver(cell(1, 0, 1, 1), 0));
        assert_eq!(m.emit(0), None); // seq 0 missing — blocked
        assert!(m.deliver(cell(0, 0, 0, 0), 1));
        assert_eq!(m.emit(1), Some(CellId(0)));
        assert_eq!(m.emit(2), Some(CellId(1)));
        assert_eq!(m.emit(3), None);
    }

    #[test]
    fn flow_fifo_does_not_block_other_flows() {
        let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
        m.deliver(cell(5, 0, 1, 5), 0); // blocked: waits for seq 0 of input 0
        m.deliver(cell(7, 1, 0, 7), 0); // eligible
        assert_eq!(m.emit(0), Some(CellId(7)));
        assert_eq!(m.emit(1), None);
        assert_eq!(m.m.held(), 1);
    }

    #[test]
    fn flow_fifo_prefers_earliest_arrival() {
        let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
        m.deliver(cell(9, 1, 0, 9), 9);
        m.deliver(cell(3, 0, 0, 3), 9);
        assert_eq!(m.emit(9), Some(CellId(3)));
    }

    #[test]
    fn global_fcfs_waits_for_stragglers() {
        let mut m = Rig::new(2, OutputDiscipline::GlobalFcfs);
        m.m.register_in_flight(CellId(1));
        m.m.register_in_flight(CellId(2));
        m.deliver(cell(2, 1, 0, 0), 0);
        // Cell 1 is still in a plane: the mux must idle.
        assert_eq!(m.emit(0), None);
        m.deliver(cell(1, 0, 0, 0), 1);
        assert_eq!(m.emit(1), Some(CellId(1)));
        assert_eq!(m.emit(2), Some(CellId(2)));
    }

    #[test]
    fn greedy_emits_anything_earliest_first() {
        let mut m = Rig::new(2, OutputDiscipline::Greedy);
        m.deliver(cell(5, 0, 1, 5), 0); // out of order within its flow — greedy does not care
        m.deliver(cell(8, 0, 0, 8), 0);
        assert_eq!(m.emit(0), Some(CellId(5)));
        assert_eq!(m.emit(1), Some(CellId(8)));
    }

    #[test]
    fn high_water_mark() {
        let mut m = Rig::new(1, OutputDiscipline::FlowFifo);
        m.deliver(cell(0, 0, 0, 0), 0);
        m.deliver(cell(1, 0, 1, 1), 1);
        m.emit(1);
        m.deliver(cell(2, 0, 2, 2), 2);
        assert_eq!(m.m.max_held(), 2);
        assert_eq!(m.m.emitted(), 1);
    }

    /// Every ordering of `items`.
    fn permutations<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (k, &first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(k);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn within_slot_delivery_order_does_not_move_emission() {
        // The planes may deliver one slot's cells in any order; each
        // delivery refreshes its flow's gap timer at once, and the slot
        // must end in the same state whatever the order. Emissions and
        // counters agree for all 24 orders, the watchdog skip included.
        let cells = [
            cell(2, 1, 0, 2), // eligible
            cell(3, 0, 0, 3), // eligible
            cell(4, 0, 1, 4), // waits behind seq 0 of input 0
            cell(5, 1, 2, 5), // seq 1 of input 1 is lost: a gap
        ];
        let run = |order: &[Cell]| {
            let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
            m.m.set_watchdog(Some(2));
            for &c in order {
                assert!(m.deliver(c, 5));
            }
            let out: Vec<_> = (5..10).map(|now| m.emit(now)).collect();
            let counters = (
                m.m.held(),
                m.m.emitted(),
                m.m.skipped(),
                m.m.stalled_slots(),
                m.m.max_held(),
            );
            (out, counters)
        };
        let ids = |v: [u64; 4]| v.map(|id| Some(CellId(id)));
        let expect = run(&cells);
        assert_eq!(expect.0[..4], ids([2, 3, 4, 5]));
        assert_eq!(expect.1, (0, 4, 1, 0, 4));
        for order in permutations(&cells) {
            assert_eq!(run(&order), expect, "delivered in order {order:?}");
        }
    }

    #[test]
    fn watchdog_skips_past_a_lost_cell() {
        let mut m = Rig::new(1, OutputDiscipline::FlowFifo);
        m.m.set_watchdog(Some(3));
        // seq 0 was lost to a failed plane; seq 1 and 2 arrive in slot 10.
        m.deliver(cell(1, 0, 1, 1), 10);
        m.deliver(cell(2, 0, 2, 2), 10);
        assert_eq!(m.emit(10), None); // gap blocked 1 slot
        assert_eq!(m.emit(11), None); // gap blocked 2 slots
                                      // Third blocked slot hits the 3-slot timeout: skip past seq 0 and
                                      // emit seq 1 in the same slot.
        assert_eq!(m.emit_seq(12), Some(1));
        assert_eq!(m.emit_seq(13), Some(2));
        assert_eq!(m.m.skipped(), 1);
        assert_eq!(m.m.stalled_slots(), 2);
    }

    #[test]
    fn watchdog_fires_during_limit_th_blocked_slot_exactly() {
        // Slot-exact pin of the boundary: with limit L, a gap first
        // observed blocked in slot s fires in slot s + L − 1 (the L-th
        // consecutive blocked slot), not one slot later. Counters pin the
        // DESIGN.md definitions: the firing slot emits, so only the L − 1
        // preceding slots count as stalled; the gap counts as skipped.
        for limit in 1..=4u64 {
            let mut m = Rig::new(1, OutputDiscipline::FlowFifo);
            m.m.set_watchdog(Some(limit));
            m.deliver(cell(1, 0, 1, 1), 20);
            for offset in 0..limit - 1 {
                assert_eq!(m.emit(20 + offset), None, "limit {limit}: blocked");
            }
            assert_eq!(
                m.emit_seq(20 + limit - 1),
                Some(1),
                "limit {limit}: must fire in the {limit}-th blocked slot"
            );
            assert_eq!(m.m.skipped(), 1);
            assert_eq!(m.m.stalled_slots(), limit - 1);
            assert_eq!(m.m.late_dropped(), 0);
        }
    }

    #[test]
    fn watchdog_gap_timer_ignores_other_flow_progress() {
        let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
        m.m.set_watchdog(Some(4));
        m.deliver(cell(4, 0, 1, 0), 0); // waits for seq 0 of input 0
        assert_eq!(m.emit(0), None);
        assert_eq!(m.emit(1), None);
        // Another flow emits in slot 2 — but the gap timer is per flow, so
        // input 0's countdown keeps running instead of resetting (a busy mux
        // must not let gap-blocked flows rot behind other flows' progress).
        m.deliver(cell(9, 1, 0, 1), 2);
        assert_eq!(m.emit(2), Some(CellId(9)));
        // Slot 3 is the 4th slot input 0 has been blocked: timeout fires.
        assert_eq!(m.emit(3), Some(CellId(4)));
        assert_eq!(m.m.skipped(), 1);
    }

    #[test]
    fn late_cell_is_dropped_not_reordered() {
        let mut m = Rig::new(1, OutputDiscipline::FlowFifo);
        m.m.set_watchdog(Some(1));
        m.deliver(cell(1, 0, 1, 1), 5);
        // Immediate skip past missing seq 0.
        assert_eq!(m.emit_seq(5), Some(1));
        // seq 0 shows up late (straggler from a slow plane): emitting it now
        // would reorder the flow, so it must be discarded.
        assert!(!m.deliver(cell(0, 0, 0, 0), 6));
        assert_eq!(m.emit(6), None);
        assert_eq!(m.m.late_dropped(), 1);
        assert_eq!(m.m.held(), 0);
    }

    #[test]
    fn expired_gaps_emit_in_emit_key_order() {
        let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
        m.m.set_watchdog(Some(1));
        // Both inputs are gap-blocked and both timeouts expire in slot 0,
        // so both gaps are declared lost at once; emission then follows the
        // emit key — input 1's waiting cell arrived earlier and goes first.
        m.deliver(cell(11, 0, 3, 7), 0);
        m.deliver(cell(10, 1, 2, 4), 0);
        assert_eq!(m.emit(0), Some(CellId(10)));
        assert_eq!(m.m.skipped(), 5); // seqs 0–1 of input 1 and 0–2 of input 0
        assert_eq!(m.emit(1), Some(CellId(11)));
    }

    #[test]
    fn global_fcfs_watchdog_abandons_stragglers() {
        let mut m = Rig::new(2, OutputDiscipline::GlobalFcfs);
        m.m.set_watchdog(Some(2));
        m.m.register_in_flight(CellId(1));
        m.m.register_in_flight(CellId(2));
        m.deliver(cell(2, 1, 0, 0), 0);
        assert_eq!(m.emit(0), None); // waiting for cell 1
                                     // Second stalled slot: give up on cell 1 and emit cell 2.
        assert_eq!(m.emit(1), Some(CellId(2)));
        assert_eq!(m.m.skipped(), 1);
        // If cell 1 then limps in, it is late: accepted order already went out.
        assert!(!m.deliver(cell(1, 0, 0, 0), 2));
        assert_eq!(m.m.late_dropped(), 1);
    }

    #[test]
    fn global_fcfs_firing_slot_that_emits_is_not_stalled() {
        // Regression for the stall counter: the slot in which the watchdog
        // fires *and* an emission goes out must not be counted stalled —
        // DESIGN.md defines stalled_slots as "held cells but emitted
        // nothing". Before the fix the counter was bumped before the
        // watchdog check, over-counting every firing slot by one.
        let mut m = Rig::new(2, OutputDiscipline::GlobalFcfs);
        m.m.set_watchdog(Some(3));
        m.m.register_in_flight(CellId(1));
        m.m.register_in_flight(CellId(2));
        m.deliver(cell(2, 1, 0, 0), 0);
        assert_eq!(m.emit(0), None); // stall slot 1
        assert_eq!(m.emit(1), None); // stall slot 2
        assert_eq!(m.emit(2), Some(CellId(2))); // fires and emits
        assert_eq!(m.m.stalled_slots(), 2);
        assert_eq!(m.m.skipped(), 1);
    }

    #[test]
    fn next_activity_names_flow_fifo_fire_slot_and_skip_idle_matches_dense() {
        // Skip-ahead boundary audit: for every watchdog limit, the fire
        // slot predicted by next_activity must equal the slot a dense
        // emit walk actually fires in, and replaying the gap via
        // skip_idle must leave stalled_slots (and everything else the
        // SeqRing path tracks) identical to the dense walk.
        for limit in 2..=6u64 {
            let mk = || {
                let mut r = Rig::new(1, OutputDiscipline::FlowFifo);
                r.m.set_watchdog(Some(limit));
                // seq 0 lost; seq 1 waits behind the gap from slot 20 on.
                r.deliver(cell(1, 0, 1, 1), 20);
                r
            };
            let mut dense = mk();
            let mut fire_slot = None;
            for now in 20..20 + limit + 2 {
                if dense.emit(now).is_some() {
                    fire_slot = Some(now);
                    break;
                }
            }
            let fire_slot = fire_slot.expect("watchdog must fire");
            assert_eq!(fire_slot, 20 + limit - 1);

            let mut skip = mk();
            assert_eq!(skip.emit(20), None); // the slot the stall is observed
            assert_eq!(
                skip.m.next_activity(20),
                Some(fire_slot),
                "limit {limit}: predicted wake-up is off"
            );
            if fire_slot > 21 {
                skip.m.skip_idle(21, fire_slot - 1);
            }
            assert_eq!(skip.emit_seq(fire_slot), Some(1));
            assert_eq!(skip.m.stalled_slots(), dense.m.stalled_slots());
            assert_eq!(skip.m.skipped(), dense.m.skipped());
            assert_eq!(skip.m.emitted(), dense.m.emitted());
            assert_eq!(skip.m.held(), dense.m.held());
        }
    }

    #[test]
    fn next_activity_names_global_fcfs_fire_slot_and_skip_idle_matches_dense() {
        // Same audit for the whole-mux stall: stalled_since is only
        // materialized by the first idle emit, and next_activity must
        // predict the fire slot from it (or conservatively from now + 1
        // when no idle emit has run yet — covered by the engine-level
        // equivalence suite).
        for limit in 2..=6u64 {
            let mk = || {
                let mut r = Rig::new(2, OutputDiscipline::GlobalFcfs);
                r.m.set_watchdog(Some(limit));
                r.m.register_in_flight(CellId(1));
                r.m.register_in_flight(CellId(2));
                r.deliver(cell(2, 1, 0, 0), 0); // cell 1 never arrives
                r
            };
            let mut dense = mk();
            let mut fire_slot = None;
            for now in 0..limit + 2 {
                if dense.emit(now).is_some() {
                    fire_slot = Some(now);
                    break;
                }
            }
            let fire_slot = fire_slot.expect("watchdog must fire");
            assert_eq!(fire_slot, limit - 1);

            let mut skip = mk();
            assert_eq!(skip.emit(0), None);
            assert_eq!(
                skip.m.next_activity(0),
                Some(fire_slot),
                "limit {limit}: predicted wake-up is off"
            );
            if fire_slot > 1 {
                skip.m.skip_idle(1, fire_slot - 1);
            }
            assert_eq!(skip.emit(fire_slot), Some(CellId(2)));
            assert_eq!(skip.m.stalled_slots(), dense.m.stalled_slots());
            assert_eq!(skip.m.skipped(), dense.m.skipped());
            assert_eq!(skip.m.late_dropped(), dense.m.late_dropped());
        }
    }

    #[test]
    fn next_activity_without_watchdog_is_quiescent_while_blocked() {
        // A gap-blocked mux with no watchdog can do nothing until the
        // next delivery: next_activity must report None (the engine then
        // waits on arrivals/faults alone) and a multi-slot skip must
        // account exactly the jumped span as stalled.
        let mut m = Rig::new(1, OutputDiscipline::FlowFifo);
        m.deliver(cell(1, 0, 1, 1), 10);
        assert_eq!(m.emit(10), None);
        assert_eq!(m.m.next_activity(10), None);
        m.m.skip_idle(11, 10_010);
        assert_eq!(m.m.stalled_slots(), 1 + 10_000);
        // The straggler finally arrives: the flow unblocks as in dense.
        assert!(m.deliver(cell(0, 0, 0, 0), 10_011));
        assert_eq!(m.emit_seq(10_011), Some(0));
        assert_eq!(m.emit_seq(10_012), Some(1));
        assert_eq!(m.m.skipped(), 0);
    }

    #[test]
    fn a_watchdog_limit_at_the_end_of_time_saturates_its_deadline() {
        // `since + limit - 1` with `limit = Slot::MAX` (which `validate()`
        // accepts) used to overflow: a debug panic, and in release a
        // wrapped deadline in the past that woke the mux every slot.
        let mut fifo = Rig::new(1, OutputDiscipline::FlowFifo);
        fifo.m.set_watchdog(Some(Slot::MAX));
        fifo.deliver(cell(1, 0, 1, 1), 10); // gap-blocked behind seq 0
        assert_eq!(fifo.emit(10), None);
        assert_eq!(fifo.m.next_activity(10), Some(Slot::MAX));

        let mut fcfs = Rig::new(1, OutputDiscipline::GlobalFcfs);
        fcfs.m.set_watchdog(Some(Slot::MAX));
        fcfs.m.register_in_flight(CellId(0));
        fcfs.m.register_in_flight(CellId(1));
        fcfs.deliver(cell(1, 0, 1, 1), 10); // cell 0 is still in a plane
        assert_eq!(
            fcfs.m.next_activity(9),
            Some(Slot::MAX),
            "clock not started"
        );
        assert_eq!(fcfs.emit(10), None);
        assert_eq!(
            fcfs.m.next_activity(10),
            Some(Slot::MAX),
            "stalled since 10"
        );

        for m in [&mut fifo, &mut fcfs] {
            m.m.skip_idle(11, 1_000_010);
            assert_eq!(m.emit(1_000_011), None, "the watchdog never fires");
            assert_eq!(m.m.stalled_slots(), 1_000_002);
            assert_eq!(m.m.skipped(), 0);
        }
    }

    #[test]
    fn next_activity_is_immediate_when_emittable_or_empty() {
        // Emittable backlog → next activity is the very next slot; empty
        // mux → quiescent regardless of discipline or watchdog.
        for d in [
            OutputDiscipline::FlowFifo,
            OutputDiscipline::GlobalFcfs,
            OutputDiscipline::Greedy,
        ] {
            let mut m = Rig::new(1, d);
            m.m.set_watchdog(Some(4));
            assert_eq!(m.m.next_activity(7), None, "{d:?}: empty mux");
            m.m.register_in_flight(CellId(0));
            m.deliver(cell(0, 0, 0, 0), 7);
            assert_eq!(m.m.next_activity(7), Some(8), "{d:?}: emittable");
        }
    }

    #[test]
    fn a_flow_is_eight_bytes_and_zero_while_idle() {
        assert_eq!(std::mem::size_of::<Flow>(), 8);
        let mut flow = Flow::default();
        assert_eq!((flow.next_seq, flow.state), (0, 0));
        assert_eq!((flow.eligible(), flow.ring()), (false, None));
        flow.set_ring(Some(0));
        flow.set_eligible(true);
        assert_eq!((flow.eligible(), flow.ring()), (true, Some(0)));
        flow.set_ring(None);
        assert_eq!((flow.eligible(), flow.ring()), (true, None));
        flow.set_eligible(false);
        assert_eq!(flow, Flow::default());
    }

    #[test]
    fn only_a_flow_fifo_mux_that_got_a_cell_holds_flow_state() {
        let idle = Rig::new(1024, OutputDiscipline::FlowFifo);
        assert_eq!(idle.m.flows.capacity(), 0, "no cell, no flows");
        for d in [OutputDiscipline::GlobalFcfs, OutputDiscipline::Greedy] {
            let mut m = Rig::new(1024, d);
            for k in 0..4 {
                m.m.register_in_flight(CellId(k));
                assert!(m.deliver(cell(k, k as u32, 0, k), k));
            }
            assert_eq!(m.m.held(), 4);
            assert_eq!(m.m.flows.capacity(), 0, "{d:?} keeps no flows");
        }
        let mut fifo = Rig::new(1024, OutputDiscipline::FlowFifo);
        assert!(fifo.deliver(cell(0, 7, 0, 0), 0));
        assert_eq!(fifo.m.flows.len(), 1024);
    }

    #[test]
    fn every_flow_of_a_full_width_mux_parks_and_drains_in_order() {
        // N = MAX_PORTS: every flow parks its seq 1 behind a missing seq 0,
        // so the slab's last ring is index 65 535. Seq 0 of input i is cell
        // i (slot 0) and seq 1 is cell N + i (slot 1).
        let n = pps_core::trace::MAX_PORTS;
        let cells: Vec<Cell> = (0..2 * n)
            .map(|k| cell(k as u64, (k % n) as u32, (k / n) as u32, (k / n) as Slot))
            .collect();
        let log = RunLog::with_cells(&cells);
        let mut m = OutputMux::new(n, OutputDiscipline::FlowFifo);
        for c in &cells[n..] {
            assert!(m.deliver(log.table(), c.id, 0));
        }
        assert_eq!(rings(&m), (n, n));
        for (i, flow) in m.flows.iter().enumerate() {
            assert_eq!((flow.eligible(), flow.ring()), (false, Some(i as u32)));
        }
        for c in &cells[..n] {
            assert!(m.deliver(log.table(), c.id, 1));
        }
        for (i, flow) in m.flows.iter().enumerate() {
            assert_eq!((flow.eligible(), flow.ring()), (true, Some(i as u32)));
        }
        // Each emitted seq 0 makes its flow's seq 1 eligible; the heap
        // orders by id, so the cells leave in id order.
        for (now, c) in cells.iter().enumerate() {
            assert_eq!(m.emit(log.table(), 2 + now as Slot), Some(c.id));
        }
        assert_eq!(m.held(), 0);
        assert_eq!(rings(&m), (n, 0));
        for flow in &m.flows {
            assert_eq!((flow.next_seq, flow.state), (2, 0));
        }
    }

    /// Rings in the slab, and how many of them flows hold right now.
    fn rings(m: &OutputMux) -> (usize, usize) {
        (m.gaps.len(), m.gaps.len() - m.free.len())
    }

    #[test]
    fn the_slab_holds_no_more_rings_than_flows_ever_had_gaps_at_once() {
        let mut m = Rig::new(64, OutputDiscipline::FlowFifo);
        assert_eq!(rings(&m.m), (0, 0), "a new mux holds no ring");
        let (mut base, mut now, mut peak) = (0, 0, 0);
        // Each round gives fresh flows a gap at once (seq 1 delivered before
        // seq 0), then fills the gaps and drains. A cell's id is its
        // arrival slot: each flow's seq 0 arrived first.
        for flows in [0..4u32, 40..43, 10..16, 60..62] {
            let len = flows.len() as u64;
            for seq in [1, 0] {
                for (k, input) in flows.clone().enumerate() {
                    let id = base + u64::from(seq) * len + k as u64;
                    m.deliver(cell(id, input, seq, id), now);
                }
                if seq == 1 {
                    peak = peak.max(flows.len());
                    assert_eq!(rings(&m.m), (peak, flows.len()));
                }
                now += 1;
            }
            while m.m.held() > 0 {
                assert!(m.emit(now).is_some());
                now += 1;
            }
            base += 2 * len;
            assert_eq!(rings(&m.m), (peak, 0), "every emptied ring went back");
        }
        assert_eq!(peak, 6);
    }

    #[test]
    fn a_recycled_ring_carries_no_stale_seq_or_timer() {
        let mut m = Rig::new(2, OutputDiscipline::FlowFifo);
        m.m.set_watchdog(Some(4));
        // Input 0 parks seq 5 in slot 0; its gap expires in slot 3 and the
        // emptied ring goes back to the slab.
        m.deliver(cell(0, 0, 5, 0), 0);
        for now in 0..3 {
            assert_eq!(m.emit(now), None);
        }
        assert_eq!(m.emit_seq(3), Some(5));
        assert_eq!(rings(&m.m), (1, 0));
        let gap = &m.m.gaps[0];
        assert!(gap.ring.is_empty() && gap.ring.slots.iter().all(Option::is_none));
        assert_eq!(gap.blocked_since, None);
        // Input 1 takes the same ring in slot 10 for seq 2: its gap is
        // timed from slot 10 and covers seqs 0 and 1 only.
        m.deliver(cell(1, 1, 2, 10), 10);
        assert_eq!(m.emit(10), None);
        assert_eq!(rings(&m.m), (1, 1));
        assert_eq!(m.m.gaps[0].ring.min_seq(), Some(2));
        assert_eq!(m.m.next_activity(10), Some(13));
        m.m.skip_idle(11, 12);
        assert_eq!(m.emit(13), Some(CellId(1)));
        assert_eq!(m.m.skipped(), 5 + 2);
    }
}
