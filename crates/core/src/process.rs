//! The process default behind the benchmark's frozen surface.
//!
//! `ppsbench` sets its knobs and reads its meters through names that
//! predate [`RunSpec`] (DESIGN.md, "The benchmark's surface"). Each is a
//! one-line shim over this module: one process-default [`RunSpec`] and one
//! [`Sink`] whose meters, event bundle and worker budget every shim run
//! shares. Engines built with a plain `new`, outside any run, meter their
//! slots into the same sink ([`Sink::detached`]).
//!
//! Nothing in the product calls a shim. The benchmark PR that moves
//! `ppsbench` onto [`RunSpec`] deletes this module with them.

use crate::run::{RunSpec, Sink};
use crate::telemetry::{EventLog, Meters};
use std::sync::{LazyLock, Mutex, PoisonError};

/// The process default's spec and the sink every shim run records into.
static PROCESS: LazyLock<(Mutex<RunSpec>, Sink)> =
    LazyLock::new(|| (Mutex::default(), Sink::default()));

fn spec() -> RunSpec {
    *PROCESS.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Change the process default (the setter shims).
pub(crate) fn update(f: impl FnOnce(&mut RunSpec)) {
    f(&mut PROCESS.0.lock().unwrap_or_else(PoisonError::into_inner));
}

/// A sink on the process default: the spec the setter shims left, the
/// process meters and bundle, the process worker budget.
pub fn sink() -> Sink {
    Sink {
        spec: spec(),
        ..PROCESS.1.clone()
    }
}

/// The process sink at the default spec ([`Sink::detached`]).
pub(crate) fn detached() -> Sink {
    PROCESS.1.clone()
}

/// The process meters, cumulative over every shim run (the meter shims).
pub(crate) fn meters() -> Meters {
    PROCESS.1.rec.meters()
}

/// Drain the events the process sink recorded and the logs it absorbed.
pub(crate) fn take_log() -> EventLog {
    PROCESS.1.rec.take_log()
}
