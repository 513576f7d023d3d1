//! Zero-overhead structured event tracing for every engine.
//!
//! The engines in this workspace — the PPS fabric, the shadow OQ switch,
//! and the crossbar/CIOQ baselines — are black boxes between a trace in
//! and a [`crate::record::RunLog`] out. This module gives them a shared,
//! slot-stamped event vocabulary ([`EventKind`]) and a recording substrate
//! designed so that the *disabled* path costs one relaxed atomic load and
//! a predictable branch per call site and allocates nothing.
//!
//! ## Recording model
//!
//! Recording is **scoped**: [`collect`] installs a bounded per-thread ring
//! buffer (`EventRing`) for the duration of a closure and returns the
//! events it captured as an [`EventLog`]. Because a scope is thread-local
//! and every sweep point runs start-to-finish on one worker thread, scopes
//! double as the per-worker ring buffers of the parallel executor: workers
//! never contend on a shared event sink, and the sweep merge loop absorbs
//! per-point logs in **declared point order**, preserving the determinism
//! contract (DESIGN.md §10) — the final bundle is identical at any
//! `--jobs`.
//!
//! Events emitted while no scope is active (and the level is
//! [`Level::Full`]) are counted in `events_unscoped` and discarded; they
//! are never buffered globally, so library users cannot leak memory by
//! enabling telemetry without collecting.
//!
//! ## Counters
//!
//! Independent of ring buffers, every recorded event bumps a per-kind
//! process-wide counter at [`Level::Counters`] and above. The registry is
//! folded into the [`crate::perf`] meters: [`counters`] reports the event
//! counters alongside `perf.slots_simulated`, so one snapshot captures
//! both the slot meter and the event mix.

use crate::ids::{CellId, PlaneId, PortId};
use crate::time::Slot;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// How much the process records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing: the fast path is one relaxed load + branch per site.
    Off = 0,
    /// Per-kind event counters only (process-wide atomics, no buffers).
    Counters = 1,
    /// Counters plus full event streams into the active scope's ring.
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

// ---------------------------------------------------------------------------
// Level gate
// ---------------------------------------------------------------------------

static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Ring capacity of every scope (events). Large enough for a full
/// experiment point at the registry's sizes; bounded so a runaway soak run
/// cannot exhaust memory (the ring overwrites its oldest entries and
/// counts the overflow).
const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// Set the process-wide recording level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::SeqCst);
}

/// The current recording level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        _ => Level::Full,
    }
}

/// The disabled-path gate: `true` iff any recording is enabled. Call sites
/// guard event construction behind this so the off path never builds
/// payloads.
#[inline(always)]
pub fn on() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------------
// Counter registry (folded into the perf meters)
// ---------------------------------------------------------------------------

static COUNTERS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
/// Events recorded into some ring.
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
/// Events emitted at `Full` with no scope active (discarded).
static EVENTS_UNSCOPED: AtomicU64 = AtomicU64::new(0);
/// Events overwritten by ring overflow.
static EVENTS_OVERFLOWED: AtomicU64 = AtomicU64::new(0);

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

/// A named-counter snapshot: the telemetry event registry folded together
/// with the `perf` slot meter. Cumulative and monotonic, like
/// [`crate::perf::slots_simulated`].
pub fn counters() -> Vec<(&'static str, u64)> {
    let mut out = Vec::with_capacity(KINDS + 5);
    out.push(("perf.slots_simulated", crate::perf::slots_simulated()));
    out.push(("perf.slots_skipped", crate::perf::slots_skipped()));
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        out.push((*name, COUNTERS[i].load(Ordering::Relaxed)));
    }
    out.push(("events.recorded", EVENTS_RECORDED.load(Ordering::Relaxed)));
    out.push(("events.unscoped", EVENTS_UNSCOPED.load(Ordering::Relaxed)));
    out.push((
        "events.overflowed",
        EVENTS_OVERFLOWED.load(Ordering::Relaxed),
    ));
    out
}

// ---------------------------------------------------------------------------
// Ring buffer and scopes
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

/// The events captured by one [`collect`] scope, plus the logs of any
/// nested scopes absorbed while it was active (sweep points inside an
/// experiment, experiments inside the registry sweep).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    /// Scope label (experiment id, `plan-id/point-index`, …).
    pub label: String,
    /// Events recorded directly in this scope, in emission order.
    pub events: Vec<Event>,
    /// Events lost to ring overflow in this scope.
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

struct Scope {
    label: String,
    ring: EventRing,
    children: Vec<EventLog>,
}

thread_local! {
    static SCOPES: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
}

/// Logs absorbed outside any scope — the process-level bundle a driver
/// (e.g. `ppslab`) drains once at the end with [`take_absorbed`].
static ABSORBED: Mutex<Vec<EventLog>> = Mutex::new(Vec::new());

/// Record one event. Call sites must guard with [`on`] so the disabled
/// path never constructs payloads:
///
/// ```
/// use pps_core::telemetry::{self, Engine, EventKind};
/// use pps_core::{CellId, PortId};
/// if telemetry::on() {
///     telemetry::record(Engine::Pps, 7, EventKind::Depart {
///         cell: CellId(0),
///         output: PortId(3),
///     });
/// }
/// ```
#[inline]
pub fn record(engine: Engine, slot: Slot, kind: EventKind) {
    let level = level();
    if level == Level::Off {
        return;
    }
    COUNTERS[kind.counter_index()].fetch_add(1, Ordering::Relaxed);
    if level != Level::Full {
        return;
    }
    SCOPES.with(|scopes| {
        let mut scopes = scopes.borrow_mut();
        match scopes.last_mut() {
            Some(scope) => {
                scope.ring.push(Event { slot, engine, kind });
                EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                EVENTS_UNSCOPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
}

/// Run `f` with a fresh recording scope installed on this thread and
/// return its result together with the captured [`EventLog`]. Scopes nest:
/// an inner `collect` captures its own events, and its log lands in the
/// *parent's* `children` only when routed there with [`absorb`] — the
/// sweep executor does exactly that, in declared point order.
pub fn collect<R>(label: impl Into<String>, f: impl FnOnce() -> R) -> (R, EventLog) {
    let label = label.into();
    SCOPES.with(|scopes| {
        scopes.borrow_mut().push(Scope {
            label: label.clone(),
            ring: EventRing::new(DEFAULT_RING_CAPACITY),
            children: Vec::new(),
        });
    });
    // Pop the scope even if `f` panics, so a failed point cannot poison
    // the thread for subsequent points.
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            SCOPES.with(|scopes| {
                scopes.borrow_mut().pop();
            });
        }
    }
    let result = {
        let _guard = PopGuard;
        let result = f();
        // Take the scope contents before the guard pops it.
        let log = SCOPES.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            let scope = scopes.last_mut().expect("collect scope present");
            let ring = std::mem::replace(&mut scope.ring, EventRing::new(1));
            let children = std::mem::take(&mut scope.children);
            let overflowed = ring.overwritten;
            EVENTS_OVERFLOWED.fetch_add(overflowed, Ordering::Relaxed);
            EventLog {
                label: scope.label.clone(),
                events: ring.into_events(),
                overflowed,
                children,
            }
        });
        (result, log)
    };
    result
}

/// Route a finished [`EventLog`] to its destination: the enclosing scope
/// on this thread if one is active (nested sweeps), else the process-level
/// bundle. The sweep executor calls this from its merge loop, in declared
/// point order, which is what makes the final bundle independent of the
/// worker schedule.
pub fn absorb(log: EventLog) {
    let unrouted = SCOPES.with(|scopes| {
        let mut scopes = scopes.borrow_mut();
        match scopes.last_mut() {
            Some(scope) => {
                scope.children.push(log);
                None
            }
            None => Some(log),
        }
    });
    if let Some(log) = unrouted {
        ABSORBED.lock().expect("telemetry bundle lock").push(log);
    }
}

/// Drain every log absorbed at process level (outside any scope), in
/// absorption order.
pub fn take_absorbed() -> Vec<EventLog> {
    std::mem::take(&mut ABSORBED.lock().expect("telemetry bundle lock"))
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
        let ((), log) = collect("idle", || {
            let (e, s, k) = ev(1);
            if on() {
                record(e, s, k);
            }
        });
        assert_eq!(log.events.len(), 0);
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
