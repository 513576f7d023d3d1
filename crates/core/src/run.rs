//! One run: the [`RunSpec`] it is configured by, the [`Sink`] its engines
//! record into, and the [`RunReport`] it hands back.
//!
//! A run's tables depend only on its spec and its inputs. Its three knobs
//! — worker budget, stepping mode, telemetry level — are one `Copy` value,
//! and every engine takes them from the sink it is built with (the
//! `new_in` constructors). Nothing here is process state: two runs on two
//! threads share nothing. The process default behind the benchmark's
//! frozen surface is [`crate::process`], and only its shims read it.
//!
//! ```
//! use pps_core::run::{self, RunSpec};
//! use pps_core::sweep::SweepPlan;
//!
//! let spec = RunSpec { jobs: 2, ..RunSpec::default() };
//! let report = run::run(&spec, "squares", |sink| {
//!     SweepPlan::new_in("squares", vec![1u64, 2, 3], sink).run(|pt| {
//!         pt.sink.slots(*pt.params);
//!         pt.params * pt.params
//!     })
//! });
//! assert_eq!(report.output, vec![1, 4, 9]);
//! assert_eq!(report.meters.slots_simulated, 6);
//! ```

use crate::stepping::Stepping;
use crate::telemetry::{Engine, Event, EventKind, EventLog, Level, Meters, Recorder};
use crate::time::Slot;
use crate::workers::WorkerLease;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How one run executes. Geometry, demultiplexor and faults stay
/// arguments of the point that uses them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Worker budget: the most threads, callers included, making progress
    /// at once across every sweep of the run (at least 1).
    pub jobs: usize,
    /// How engines advance time; dense is the test oracle.
    pub stepping: Stepping,
    /// What the run records.
    pub telemetry: Level,
}

impl Default for RunSpec {
    /// One worker, skip-ahead stepping, no telemetry.
    fn default() -> Self {
        RunSpec {
            jobs: 1,
            stepping: Stepping::SkipAhead,
            telemetry: Level::Off,
        }
    }
}

/// Where one run records: its spec, its worker lease count, its meters and
/// (at [`Level::Full`]) its event ring. Every engine of the run holds a
/// handle (a clone); a sweep point gets a child sink that shares the lease
/// count and has meters and a ring of its own.
#[derive(Clone, Debug)]
pub struct Sink {
    pub(crate) spec: RunSpec,
    pub(crate) rec: Arc<Recorder>,
    pub(crate) leased: Arc<AtomicUsize>,
}

impl Default for Sink {
    /// A sink on [`RunSpec::default`].
    fn default() -> Self {
        Sink::new(RunSpec::default())
    }
}

impl Sink {
    /// A root sink for `spec`, for a run whose report nobody reads.
    pub fn new(spec: RunSpec) -> Sink {
        Sink::labelled(spec, String::new())
    }

    fn labelled(spec: RunSpec, label: String) -> Sink {
        let jobs = spec.jobs.max(1);
        Sink {
            spec: RunSpec { jobs, ..spec },
            rec: Arc::new(Recorder::new(label)),
            leased: Arc::default(),
        }
    }

    /// The sink of an engine built outside any run: default spec, slots
    /// metered into the process total behind the benchmark seam.
    pub fn detached() -> Sink {
        crate::process::detached()
    }

    /// The run's spec.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// `true` iff the run records anything: the disabled-path gate, for a
    /// call site that has more to decide than [`record`](Self::record)
    /// does.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.spec.telemetry != Level::Off
    }

    /// Record one event. `kind` is only called when the run records
    /// anything, so the disabled path is one load and one branch and
    /// builds no payload:
    ///
    /// ```
    /// use pps_core::run::{self, RunSpec};
    /// use pps_core::telemetry::{Engine, EventKind, Level};
    /// use pps_core::{CellId, PortId};
    /// let spec = RunSpec { telemetry: Level::Full, ..RunSpec::default() };
    /// let report = run::run(&spec, "demo", |sink| {
    ///     sink.record(Engine::Pps, 7, || EventKind::Depart { cell: CellId(0), output: PortId(3) });
    /// });
    /// assert_eq!(report.log.events.len(), 1);
    /// ```
    #[inline(always)]
    pub fn record(&self, engine: Engine, slot: Slot, kind: impl FnOnce() -> EventKind) {
        if self.on() {
            let kind = kind();
            self.rec
                .record(self.spec.telemetry, Event { slot, engine, kind });
        }
    }

    /// Meter `n` processed slots (engines: one per slot).
    #[inline]
    pub fn slots(&self, n: u64) {
        self.rec.slots.fetch_add(n, Ordering::Relaxed);
    }

    /// Meter `n` slots elided by a skip-ahead jump.
    #[inline]
    pub fn skipped(&self, n: u64) {
        self.rec.skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Take one extra worker from the run's budget; `None` when it is
    /// spent.
    pub(crate) fn lease(&self) -> Option<WorkerLease> {
        WorkerLease::try_new(&self.leased, self.spec.jobs)
    }

    /// A sink for one part of this run (a sweep point): same spec and
    /// worker budget, meters and ring of its own. `label` names its event
    /// log and is only built at [`Level::Full`].
    pub(crate) fn child(&self, label: impl FnOnce() -> String) -> Sink {
        let label = match self.spec.telemetry {
            Level::Full => label(),
            _ => String::new(),
        };
        Sink {
            rec: Arc::new(Recorder::new(label)),
            leased: Arc::clone(&self.leased),
            spec: self.spec,
        }
    }

    /// Fold a finished child in: its meters always, its log at
    /// [`Level::Full`] (as the next of this sink's child logs).
    pub(crate) fn absorb(&self, meters: &Meters, log: EventLog) {
        let tracing = self.spec.telemetry == Level::Full;
        self.rec.absorb(meters, tracing.then_some(log));
    }

    /// Run `f` on a child sink labelled `label` whose meters fold into
    /// this sink and whose event log goes to the caller instead — for a
    /// part of the run that reads its own events (a chaos case's oracles).
    pub fn scope<R>(
        &self,
        label: impl FnOnce() -> String,
        f: impl FnOnce(&Sink) -> R,
    ) -> (R, EventLog) {
        let child = self.child(label);
        let out = f(&child);
        let (meters, log) = child.rec.finish();
        self.rec.absorb(&meters, None);
        (out, log)
    }
}

/// What a run hands back.
#[derive(Clone, Debug)]
pub struct RunReport<T> {
    /// What the run computed.
    pub output: T,
    /// Its slot and event meters.
    pub meters: Meters,
    /// Its events (empty below [`Level::Full`]), labelled as the run.
    pub log: EventLog,
}

/// Run `f` on a fresh sink for `spec`; report what it computed, metered
/// and recorded.
pub fn run<T>(spec: &RunSpec, label: &str, f: impl FnOnce(&Sink) -> T) -> RunReport<T> {
    let sink = Sink::labelled(*spec, label.to_string());
    let output = f(&sink);
    let (meters, log) = sink.rec.finish();
    RunReport {
        output,
        meters,
        log,
    }
}
