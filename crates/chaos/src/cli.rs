//! `ppslab chaos` — the campaign options and the fuzzing driver.
//!
//! Lives here (not in the driver binary) so the harness tests exercise
//! the exact code path the CLI runs: `ppslab`'s one argv pass fills
//! [`ChaosOptions`] and the [`RunSpec`] it hands [`run`]. An unwritable
//! repro directory is a typed error, which the driver prints before it
//! exits nonzero.

use crate::case::ChaosCase;
use crate::report::{case_line, failure_block, render, write_repro};
use crate::runner::{run_case, CaseOutcome, RunOpts};
use crate::shrink::{shrink, ShrinkResult};
use pps_core::fault::FaultPlan;
use pps_core::run::RunSpec;
use pps_core::sweep::SweepPlan;
use pps_core::telemetry::{Level, Meters};
use pps_core::time::Slot;
use std::fmt;
use std::path::PathBuf;

/// Writing a repro failed: the directory and the underlying error. The
/// driver prints it and exits nonzero, never panics.
#[derive(Debug)]
pub struct ChaosError {
    path: PathBuf,
    source: std::io::Error,
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i/o error on {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for ChaosError {}

/// `ppslab chaos`'s options, filled by `ppslab`'s one argv pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Number of cases to generate and run.
    pub cases: usize,
    /// Arrival horizon per case, in slots.
    pub budget_slots: Slot,
    /// Where minimized repros are written.
    pub repro_out: PathBuf,
    /// Run only this case index (repro replay).
    pub only_case: Option<usize>,
    /// Replace the generated fault plan (repro replay; requires
    /// [`ChaosOptions::only_case`]).
    pub plan_override: Option<FaultPlan>,
    /// Cut arrivals after this slot (repro replay).
    pub truncate_at: Option<Slot>,
    /// Arm the test-only conservation-leak hook this many times per case.
    pub inject_leak: u32,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            cases: 64,
            budget_slots: 256,
            repro_out: PathBuf::from("chaos-repros"),
            only_case: None,
            plan_override: None,
            truncate_at: None,
            inject_leak: 0,
        }
    }
}

/// A finished chaos run: the rendered report, the failure count and what
/// the campaign metered.
#[derive(Debug)]
pub struct ChaosReport {
    /// The full deterministic report (byte-identical at any job count).
    pub text: String,
    /// Number of failing cases (0 means the run is green).
    pub failed: usize,
    /// Slots and events of every case run, shrinking included.
    pub meters: Meters,
}

/// Run a chaos campaign on `spec`'s worker budget and stepping mode. The
/// report bytes depend only on the options — cases fan out over the
/// worker budget via the deterministic sweep executor, results merge in
/// case order, and repros are written from this thread in that same
/// order. The campaign records at `full` whatever `spec` says: its stream
/// oracles fold over each case's event log.
pub fn run(opts: &ChaosOptions, spec: &RunSpec) -> Result<ChaosReport, ChaosError> {
    let campaign = RunSpec {
        telemetry: Level::Full,
        ..*spec
    };

    let indices: Vec<usize> = match opts.only_case {
        Some(i) => vec![i],
        None => (0..opts.cases).collect(),
    };
    let run_opts = RunOpts {
        keep_events: false,
        inject_leak: opts.inject_leak,
        force_cioq_speedup: None,
    };
    let seed = opts.seed;
    let budget = opts.budget_slots;
    let plan_override = opts.plan_override.clone();
    let truncate_at = opts.truncate_at;

    let report = pps_core::run::run(&campaign, "chaos", |sink| {
        SweepPlan::new_in("chaos", indices, sink).run(|pt| {
            let mut case = ChaosCase::generate(seed, *pt.params, budget);
            if let Some(p) = &plan_override {
                case.plan = p.clone();
            }
            if let Some(t) = truncate_at {
                case.truncate_at = Some(t);
            }
            let out = run_case(&case, run_opts, pt.sink);
            let shrunk = out.failed().then(|| shrink(&case, &out, run_opts, pt.sink));
            (case, out, shrunk)
        })
    });
    let results: Vec<(ChaosCase, CaseOutcome, Option<ShrinkResult>)> = report.output;

    let mut lines = Vec::with_capacity(results.len());
    let mut failed = 0usize;
    let mut cells = 0u64;
    let mut fault_events = 0usize;
    for (case, out, shrunk) in &results {
        cells += out.cells as u64;
        fault_events += case.plan.len();
        let mut line = case_line(case, out);
        if out.failed() {
            failed += 1;
            let repro_dir = match shrunk {
                Some(sh) => {
                    let dir =
                        write_repro(&opts.repro_out, seed, budget, case, sh, opts.inject_leak)
                            .map_err(|source| ChaosError {
                                path: opts.repro_out.clone(),
                                source,
                            })?;
                    Some(dir)
                }
                None => None,
            };
            line.push('\n');
            line.push_str(&failure_block(out, shrunk.as_ref(), repro_dir.as_deref()));
            // failure_block ends with a newline; render() adds none then.
            while line.ends_with('\n') {
                line.pop();
            }
        }
        lines.push(line);
    }

    Ok(ChaosReport {
        text: render(seed, budget, &lines, failed, cells, fault_events),
        failed,
        meters: report.meters,
    })
}
