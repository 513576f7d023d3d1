//! Zero-overhead structured event tracing for every engine.
//!
//! The engines in this workspace — the PPS fabric, the shadow OQ switch,
//! and the crossbar/CIOQ baselines — are black boxes between a trace in
//! and a [`crate::record::RunLog`] out. This module gives them a shared,
//! slot-stamped event vocabulary ([`EventKind`]) recorded through the
//! [`Sink`](crate::run::Sink) each engine is built with. The sink carries
//! its run's [`Level`], so the *disabled* path is one load of an engine
//! field and a predictable branch per call site, and allocates nothing.
//!
//! ## Recording model
//!
//! Recording belongs to a run ([`crate::run`]): every engine of a run
//! feeds that run's sink — its [`Meters`] and, at [`Level::Full`], its
//! bounded event ring. A sweep gives each point a child sink and merges
//! the children's logs in **declared point order**, preserving the
//! determinism contract (DESIGN.md §9): the final bundle is identical at
//! any `--jobs`. Engines that run in lockstep on one sink (the chaos
//! harness's four) share its ring, so their events interleave in emission
//! order.
//!
//! ## Counters
//!
//! Independent of the ring, every recorded event bumps a per-kind counter
//! of the run's [`Meters`] at [`Level::Counters`] and above, next to the
//! slot meters every engine feeds at any level.

use crate::ids::{CellId, PlaneId, PortId};
use crate::time::Slot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// How much a run records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing: the fast path is one load + branch per site.
    Off = 0,
    /// Per-kind event counters only (no buffers).
    Counters = 1,
    /// Counters plus full event streams into the run's ring.
    Full = 2,
}

/// Which engine emitted an event — the track axis of every sink, so
/// lockstep runs (PPS vs shadow on the same trace) render side by side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Engine {
    /// The parallel packet switch under test.
    Pps = 0,
    /// The FCFS output-queued shadow reference.
    ShadowOq = 1,
    /// The VOQ + iSLIP input-queued crossbar baseline.
    Crossbar = 2,
    /// The CIOQ crossbar with fabric speedup.
    Cioq = 3,
}

impl Engine {
    /// Stable display name (used by every sink).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Pps => "pps",
            Engine::ShadowOq => "shadow-oq",
            Engine::Crossbar => "crossbar",
            Engine::Cioq => "cioq",
        }
    }
}

/// The kind of scripted fault applied to a PPS fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A plane failed (cells inside it were flushed and lost).
    PlaneDown,
    /// A failed plane came back into service.
    PlaneUp,
    /// An input→plane line was degraded (presents busy).
    LinkDegraded,
}

impl FaultKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PlaneDown => "plane-down",
            FaultKind::PlaneUp => "plane-up",
            FaultKind::LinkDegraded => "link-degraded",
        }
    }
}

/// One structured engine event. Payloads are small and `Copy`; occupancy
/// time series are derived by the sinks from enqueue/deliver/depart pairs
/// rather than carried on every event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A cell entered the switch.
    Arrival {
        /// The arriving cell.
        cell: CellId,
        /// Its input port.
        input: PortId,
        /// Its destination output.
        output: PortId,
    },
    /// The demultiplexor chose a plane for a cell.
    DemuxDecision {
        /// The dispatched cell.
        cell: CellId,
        /// The deciding input port.
        input: PortId,
        /// The chosen plane.
        plane: PlaneId,
    },
    /// A cell was accepted into a plane's per-output queue.
    PlaneEnqueue {
        /// The queued cell.
        cell: CellId,
        /// The carrying plane.
        plane: PlaneId,
        /// The destination output.
        output: PortId,
    },
    /// A plane delivered a cell to its output multiplexor.
    PlaneDeliver {
        /// The delivered cell.
        cell: CellId,
        /// The carrying plane.
        plane: PlaneId,
        /// The destination output.
        output: PortId,
    },
    /// The resequencer parked a cell (gap-blocked behind missing
    /// earlier cells of its flow, or an FCFS straggler).
    ReseqHold {
        /// The parked cell.
        cell: CellId,
        /// The output whose resequencer holds it.
        output: PortId,
    },
    /// A previously parked cell became eligible for emission.
    ReseqRelease {
        /// The released cell.
        cell: CellId,
        /// The output whose resequencer released it.
        output: PortId,
    },
    /// A cell departed on the external line.
    Depart {
        /// The departing cell.
        cell: CellId,
        /// The emitting output.
        output: PortId,
    },
    /// A scripted fault event took effect.
    FaultApplied {
        /// The plane concerned (for `LinkDegraded`, the line's plane end).
        plane: PlaneId,
        /// What happened.
        kind: FaultKind,
    },
    /// A resequencer watchdog skipped past or discarded cells.
    WatchdogDrop {
        /// The output whose watchdog fired.
        output: PortId,
        /// How many cells were declared lost by this firing.
        cells: u32,
    },
}

impl EventKind {
    /// Stable short name (one per variant; used by counters and sinks).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::DemuxDecision { .. } => "demux-decision",
            EventKind::PlaneEnqueue { .. } => "plane-enqueue",
            EventKind::PlaneDeliver { .. } => "plane-deliver",
            EventKind::ReseqHold { .. } => "reseq-hold",
            EventKind::ReseqRelease { .. } => "reseq-release",
            EventKind::Depart { .. } => "depart",
            EventKind::FaultApplied { .. } => "fault-applied",
            EventKind::WatchdogDrop { .. } => "watchdog-drop",
        }
    }

    fn counter_index(self) -> usize {
        match self {
            EventKind::Arrival { .. } => 0,
            EventKind::DemuxDecision { .. } => 1,
            EventKind::PlaneEnqueue { .. } => 2,
            EventKind::PlaneDeliver { .. } => 3,
            EventKind::ReseqHold { .. } => 4,
            EventKind::ReseqRelease { .. } => 5,
            EventKind::Depart { .. } => 6,
            EventKind::FaultApplied { .. } => 7,
            EventKind::WatchdogDrop { .. } => 8,
        }
    }
}

/// Number of [`EventKind`] variants (counter registry width).
const KINDS: usize = 9;

/// A slot-stamped event as recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The slot in which the event happened.
    pub slot: Slot,
    /// The emitting engine.
    pub engine: Engine,
    /// What happened.
    pub kind: EventKind,
}

/// Ring capacity of every run and sweep point (events). Large enough for a
/// full experiment point at the registry's sizes; bounded so a runaway
/// soak run cannot exhaust memory (the ring overwrites its oldest entries
/// and counts the overflow).
const RING_CAPACITY: usize = 1 << 20;

const COUNTER_NAMES: [&str; KINDS] = [
    "arrival",
    "demux-decision",
    "plane-enqueue",
    "plane-deliver",
    "reseq-hold",
    "reseq-release",
    "depart",
    "fault-applied",
    "watchdog-drop",
];

/// What one run (or everything a sink absorbed) metered: slots, and the
/// events of each kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Meters {
    /// Slots the engines processed one by one (every level).
    pub slots_simulated: u64,
    /// Slots covered by skip-ahead jumps instead (every level): the sum of
    /// the two is the span an equivalent dense run would have walked.
    pub slots_skipped: u64,
    /// Events per [`EventKind`], in declaration order
    /// ([`Level::Counters`] and up).
    events: [u64; KINDS],
    /// Events written into a ring ([`Level::Full`]).
    recorded: u64,
    /// Events a full ring overwrote.
    overflowed: u64,
}

impl Meters {
    /// The meters as `(name, value)` pairs, in the order `ppslab
    /// --telemetry counters` prints them.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::with_capacity(KINDS + 4);
        out.push(("perf.slots_simulated", self.slots_simulated));
        out.push(("perf.slots_skipped", self.slots_skipped));
        out.extend(COUNTER_NAMES.iter().copied().zip(self.events));
        out.push(("events.recorded", self.recorded));
        out.push(("events.overflowed", self.overflowed));
        out
    }

    /// Add `other`'s meters to these.
    pub fn add(&mut self, other: &Meters) {
        self.slots_simulated += other.slots_simulated;
        self.slots_skipped += other.slots_skipped;
        for (a, b) in self.events.iter_mut().zip(other.events) {
            *a += b;
        }
        self.recorded += other.recorded;
        self.overflowed += other.overflowed;
    }
}

/// A run's recording state, shared by the handles on its sink its engines
/// hold: the meters, and at [`Level::Full`] the event ring plus the logs
/// of the sweep points it absorbed.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub(crate) slots: AtomicU64,
    pub(crate) skipped: AtomicU64,
    events: [AtomicU64; KINDS],
    log: Mutex<Log>,
}

impl Recorder {
    pub(crate) fn new(label: String) -> Recorder {
        Recorder {
            log: Mutex::new(Log {
                label,
                ..Log::default()
            }),
            ..Recorder::default()
        }
    }

    /// Every update under this lock is one push or one addition, so a
    /// panic elsewhere cannot leave the log half-written: a poisoned lock
    /// is taken as is.
    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count `event` at any level above `Off`; ring it at `Full`.
    #[inline]
    pub(crate) fn record(&self, level: Level, event: Event) {
        self.events[event.kind.counter_index()].fetch_add(1, Ordering::Relaxed);
        if level == Level::Full {
            let mut log = self.lock();
            log.ring.push(event);
            log.recorded += 1;
        }
    }

    /// Fold a finished child's meters in, and at `Full` its log.
    pub(crate) fn absorb(&self, meters: &Meters, child: Option<EventLog>) {
        let mut log = self.lock();
        log.absorbed.add(meters);
        log.children.extend(child);
    }

    /// The meters so far.
    pub(crate) fn meters(&self) -> Meters {
        let log = self.lock();
        let mut meters = log.absorbed;
        meters.add(&Meters {
            slots_simulated: self.slots.load(Ordering::Relaxed),
            slots_skipped: self.skipped.load(Ordering::Relaxed),
            events: std::array::from_fn(|i| self.events[i].load(Ordering::Relaxed)),
            recorded: log.recorded,
            overflowed: log.ring.overwritten,
        });
        meters
    }

    /// Drain the log: the ring's events and the absorbed child logs. The
    /// meters keep counting what was drained.
    pub(crate) fn take_log(&self) -> EventLog {
        let mut log = self.lock();
        let ring = std::mem::take(&mut log.ring);
        log.absorbed.overflowed += ring.overwritten;
        EventLog {
            label: log.label.clone(),
            overflowed: ring.overwritten,
            events: ring.into_events(),
            children: std::mem::take(&mut log.children),
        }
    }

    /// The log and the meters of a finished run.
    pub(crate) fn finish(&self) -> (Meters, EventLog) {
        let log = self.take_log();
        (self.meters(), log)
    }
}

/// Set the process default's recording level: a shim of the benchmark
/// seam (DESIGN.md, "The benchmark's surface").
pub fn set_level(level: Level) {
    crate::process::update(|spec| spec.telemetry = level);
}

/// The process meters as named counters: a shim of the benchmark seam.
/// Cumulative over every run on the process default.
pub fn counters() -> Vec<(&'static str, u64)> {
    crate::process::meters().named()
}

/// Run `f` and return, with its result, the events the process default
/// recorded meanwhile: a shim of the benchmark seam.
pub fn collect<R>(label: impl Into<String>, f: impl FnOnce() -> R) -> (R, EventLog) {
    let result = f();
    (
        result,
        EventLog {
            label: label.into(),
            ..crate::process::take_log()
        },
    )
}

/// Drain the sweep-point logs the process default absorbed: a shim of the
/// benchmark seam.
pub fn take_absorbed() -> Vec<EventLog> {
    crate::process::take_log().children
}

// ---------------------------------------------------------------------------
// Ring buffer and logs
// ---------------------------------------------------------------------------

/// A bounded event buffer: grows lazily up to its capacity, then wraps,
/// overwriting the oldest events (counted). Draining returns events in
/// emission order.
#[derive(Debug)]
struct EventRing {
    buf: Vec<Event>,
    /// Next write position once `buf.len() == cap` (wrap mode).
    head: usize,
    cap: usize,
    /// Events overwritten after the ring filled.
    pub overwritten: u64,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(RING_CAPACITY)
    }
}

impl EventRing {
    /// An empty ring that holds at most `cap` events.
    fn new(cap: usize) -> Self {
        EventRing {
            buf: Vec::new(),
            head: 0,
            cap: cap.max(1),
            overwritten: 0,
        }
    }

    /// Append an event, overwriting the oldest once full.
    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Drain into a `Vec` in emission order (oldest first).
    fn into_events(mut self) -> Vec<Event> {
        if self.head == 0 {
            return self.buf;
        }
        self.buf.rotate_left(self.head);
        self.buf
    }
}

/// The events one sink recorded, plus the logs of the child sinks it
/// absorbed (sweep points inside an experiment, experiments inside the
/// registry sweep).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    /// The sink's label (run label, `plan-id/point-index`, …).
    pub label: String,
    /// Events recorded directly into this sink, in emission order.
    pub events: Vec<Event>,
    /// Events lost to ring overflow in this sink.
    pub overflowed: u64,
    /// Nested logs, in the order they were absorbed (declared sweep order).
    pub children: Vec<EventLog>,
}

impl EventLog {
    /// Total events in this log and all children.
    pub fn total_events(&self) -> usize {
        self.events.len()
            + self
                .children
                .iter()
                .map(EventLog::total_events)
                .sum::<usize>()
    }

    /// Depth-first flatten: `(label-path, &events)` pairs in deterministic
    /// order, parents before children.
    pub fn flatten(&self) -> Vec<(String, &[Event])> {
        let mut out = Vec::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into<'a>(&'a self, prefix: &str, out: &mut Vec<(String, &'a [Event])>) {
        let path = if prefix.is_empty() {
            self.label.clone()
        } else {
            format!("{prefix}/{}", self.label)
        };
        if !self.events.is_empty() || self.children.is_empty() {
            out.push((path.clone(), self.events.as_slice()));
        }
        for child in &self.children {
            child.flatten_into(&path, out);
        }
    }
}

/// The log half of a [`Recorder`].
#[derive(Debug, Default)]
struct Log {
    label: String,
    ring: EventRing,
    children: Vec<EventLog>,
    /// Events pushed into `ring`.
    recorded: u64,
    /// Meters of the children folded in.
    absorbed: Meters,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(slot: Slot) -> (Engine, Slot, EventKind) {
        (
            Engine::Pps,
            slot,
            EventKind::Depart {
                cell: CellId(slot),
                output: PortId(0),
            },
        )
    }

    #[test]
    fn off_by_default_records_nothing() {
        let report = crate::run::run(&crate::run::RunSpec::default(), "idle", |sink| {
            let (e, s, k) = ev(1);
            sink.record(e, s, || k);
        });
        assert_eq!(report.log.events.len(), 0);
        assert_eq!(report.meters, Meters::default());
    }

    #[test]
    fn ring_wraps_and_counts() {
        let mut ring = EventRing::new(2);
        for slot in 0..5 {
            let (e, s, k) = ev(slot);
            ring.push(Event {
                slot: s,
                engine: e,
                kind: k,
            });
        }
        assert_eq!(ring.overwritten, 3);
        let events = ring.into_events();
        let slots: Vec<Slot> = events.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![3, 4]);
    }
}
