//! `ppslab chaos` — the campaign flags and the fuzzing driver.
//!
//! Lives here (not in the driver binary) so the harness tests exercise
//! the exact code path the CLI runs, flag parsing included: `ppslab`'s one
//! argv pass keeps `--jobs` / `--telemetry` and hands [`parse`] the rest.
//! All errors are typed: the driver prints them and exits nonzero instead
//! of panicking on a bad flag or an unwritable repro directory.

use crate::case::ChaosCase;
use crate::report::{case_line, failure_block, render, write_repro};
use crate::runner::{run_case, CaseOutcome, RunOpts};
use crate::shrink::{shrink, ShrinkResult};
use pps_core::fault::FaultPlan;
use pps_core::sweep::SweepPlan;
use pps_core::telemetry::{self, Level};
use pps_core::time::Slot;
use pps_core::workers;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// A user-facing chaos-driver error. Every variant maps to a message and
/// a nonzero exit, never a panic.
#[derive(Debug)]
pub enum ChaosError {
    /// A flag was unknown, malformed, or inconsistent with the others.
    InvalidFlag(String),
    /// Reading or writing a file failed.
    Io {
        /// What the driver was touching.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A `--plan` CSV failed to load or parse.
    BadPlan(String),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::InvalidFlag(msg) => write!(f, "invalid argument: {msg}"),
            ChaosError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            ChaosError::BadPlan(msg) => write!(f, "bad fault plan: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// Parsed `ppslab chaos` options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Number of cases to generate and run.
    pub cases: usize,
    /// Arrival horizon per case, in slots.
    pub budget_slots: Slot,
    /// Worker budget override for the harness tests (`None`: as `--jobs` set it).
    pub jobs: Option<usize>,
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
    /// Run every case in this stepping mode instead of skip-ahead: set by
    /// the harness's dense ≡ skip test, by no flag.
    pub force_stepping: Option<pps_core::Stepping>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            cases: 64,
            budget_slots: 256,
            jobs: None,
            repro_out: PathBuf::from("chaos-repros"),
            only_case: None,
            plan_override: None,
            truncate_at: None,
            inject_leak: 0,
            force_stepping: None,
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ChaosError>
where
    T::Err: fmt::Display,
{
    value
        .parse()
        .map_err(|e| ChaosError::InvalidFlag(format!("{flag} {value}: {e}")))
}

/// Parse the campaign flags of `ppslab chaos` (`--flag value` pairs).
pub fn parse(args: &[String]) -> Result<ChaosOptions, ChaosError> {
    let mut opts = ChaosOptions::default();
    let mut plan_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| ChaosError::InvalidFlag(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--seed" => opts.seed = parse_num(flag, value()?)?,
            "--cases" => opts.cases = parse_num(flag, value()?)?,
            "--budget-slots" => opts.budget_slots = parse_num(flag, value()?)?,
            "--repro-out" => opts.repro_out = PathBuf::from(value()?),
            "--case" => opts.only_case = Some(parse_num(flag, value()?)?),
            "--plan" => plan_path = Some(PathBuf::from(value()?)),
            "--truncate-at" => opts.truncate_at = Some(parse_num(flag, value()?)?),
            "--inject-leak" => opts.inject_leak = parse_num(flag, value()?)?,
            other => {
                return Err(ChaosError::InvalidFlag(format!("unknown flag {other}")));
            }
        }
    }
    if let Some(path) = plan_path {
        if opts.only_case.is_none() {
            return Err(ChaosError::InvalidFlag(
                "--plan replays one case and requires --case <index>".into(),
            ));
        }
        let plan = pps_core::fault::load(&path).map_err(|e| ChaosError::BadPlan(e.to_string()))?;
        opts.plan_override = Some(plan);
    }
    if opts.truncate_at.is_some() && opts.only_case.is_none() {
        return Err(ChaosError::InvalidFlag(
            "--truncate-at replays one case and requires --case <index>".into(),
        ));
    }
    if opts.cases == 0 {
        return Err(ChaosError::InvalidFlag("--cases must be at least 1".into()));
    }
    Ok(opts)
}

/// A finished chaos run: the rendered report and the failure count.
#[derive(Debug)]
pub struct ChaosReport {
    /// The full deterministic report (byte-identical at any job count).
    pub text: String,
    /// Number of failing cases (0 means the run is green).
    pub failed: usize,
}

/// Run a chaos campaign. The report bytes depend only on the options —
/// cases fan out over the worker budget via the deterministic sweep
/// executor, results merge in case order, and repros are written from
/// this thread in that same order.
pub fn run(opts: &ChaosOptions) -> Result<ChaosReport, ChaosError> {
    // A campaign sets two process-wide knobs (the worker budget, the
    // telemetry level) and restores the level when its cases are done;
    // a second campaign in the same process — sibling harness tests —
    // restoring `Off` mid-flight would blind this one's stream oracles.
    // Campaigns therefore take turns. The lock guards no data, so a
    // poisoned one (a sibling campaign panicked) is taken all the same.
    static CAMPAIGN: Mutex<()> = Mutex::new(());
    let campaign = CAMPAIGN.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(jobs) = opts.jobs {
        workers::set_jobs(jobs);
    }
    // The stream oracles fold over the telemetry event log: recording must
    // be on for the duration of the campaign.
    let prev_level = telemetry::level();
    telemetry::set_level(Level::Full);

    let indices: Vec<usize> = match opts.only_case {
        Some(i) => vec![i],
        None => (0..opts.cases).collect(),
    };
    let run_opts = RunOpts {
        keep_events: false,
        inject_leak: opts.inject_leak,
        force_stepping: opts.force_stepping,
        force_cioq_speedup: None,
    };
    let seed = opts.seed;
    let budget = opts.budget_slots;
    let plan_override = opts.plan_override.clone();
    let truncate_at = opts.truncate_at;

    let results: Vec<(ChaosCase, CaseOutcome, Option<ShrinkResult>)> =
        SweepPlan::new("chaos", indices).run(|pt| {
            let mut case = ChaosCase::generate(seed, *pt.params, budget);
            if let Some(p) = &plan_override {
                case.plan = p.clone();
            }
            if let Some(t) = truncate_at {
                case.truncate_at = Some(t);
            }
            let out = run_case(&case, run_opts);
            let shrunk = out.failed().then(|| shrink(&case, &out, run_opts));
            (case, out, shrunk)
        });

    telemetry::set_level(prev_level);
    drop(campaign);

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
                            .map_err(|source| ChaosError::Io {
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_happy_path() {
        let opts = parse(&s(&[
            "--seed",
            "7",
            "--cases",
            "12",
            "--budget-slots",
            "99",
        ]))
        .unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.cases, 12);
        assert_eq!(opts.budget_slots, 99);
    }

    #[test]
    fn unknown_flag_is_typed() {
        let err = parse(&s(&["--bogus"])).unwrap_err();
        assert!(matches!(err, ChaosError::InvalidFlag(_)));
    }

    #[test]
    fn plan_requires_case() {
        let err = parse(&s(&["--plan", "x.csv"])).unwrap_err();
        assert!(matches!(err, ChaosError::InvalidFlag(_)));
    }

    #[test]
    fn missing_plan_file_is_typed() {
        let err = parse(&s(&["--case", "0", "--plan", "/nonexistent/plan.csv"])).unwrap_err();
        assert!(matches!(err, ChaosError::BadPlan(_)));
    }

    #[test]
    fn malformed_value_is_typed() {
        let err = parse(&s(&["--cases", "many"])).unwrap_err();
        assert!(matches!(err, ChaosError::InvalidFlag(_)));
    }
}
