//! Deterministic report rendering and minimized-repro emission.
//!
//! The report is assembled from case parameters and outcomes only — no
//! timestamps, no thread ids, no wall-clock — and the cases are rendered
//! in index order, so the bytes are identical at any `--jobs` count.

use crate::case::ChaosCase;
use crate::runner::CaseOutcome;
use crate::shrink::ShrinkResult;
use pps_core::telemetry::{Event, EventLog};
use pps_core::time::Slot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How many trailing slots of the event stream a repro trace keeps.
const TRACE_TAIL_SLOTS: Slot = 32;

/// One line per case: parameters, counters, verdict.
pub(crate) fn case_line(case: &ChaosCase, out: &CaseOutcome) -> String {
    let verdict = if out.failed() { "FAIL" } else { "ok  " };
    let stage = if case.buffer == 0 {
        "bufferless"
    } else {
        "buffered"
    };
    let discipline = match case.discipline {
        pps_core::OutputDiscipline::FlowFifo => "fifo",
        pps_core::OutputDiscipline::GlobalFcfs => "fcfs",
        pps_core::OutputDiscipline::Greedy => "greedy",
    };
    let wd = match case.watchdog {
        Some(w) => format!("{w}"),
        None => "-".to_string(),
    };
    format!(
        "case {:03} {verdict} {stage:<10} {:<8} N={} K={} r'={} {discipline} wd={wd} \
         {}/{} load={:.3} faults={} cells={} delivered={} dropped={} skipped={} late={} end={}",
        case.index,
        case.demux.name(),
        case.n,
        case.k,
        case.r_prime,
        case.traffic.name(),
        case.traffic.pattern_name(),
        f64::from(case.load_millis) / 1000.0,
        case.plan.len(),
        out.cells,
        out.delivered,
        out.dropped,
        out.skipped,
        out.late_dropped,
        out.end_slot,
    )
}

/// Detail block appended under a failing case's line.
pub(crate) fn failure_block(
    out: &CaseOutcome,
    shrunk: Option<&ShrinkResult>,
    repro_dir: Option<&Path>,
) -> String {
    let mut s = String::new();
    if let Some((slot, err)) = &out.engine_error {
        let _ = writeln!(s, "  engine error @slot {slot}: {err}");
    }
    for v in out.violations.iter().take(4) {
        let _ = writeln!(s, "  {v}");
    }
    if out.violations.len() > 4 {
        let _ = writeln!(s, "  ... and {} more", out.violations.len() - 4);
    }
    if let Some(sh) = shrunk {
        let _ = writeln!(
            s,
            "  shrunk: {} -> {} fault events, horizon {}, {} candidate runs",
            sh.original_events,
            sh.kept_events,
            sh.case.truncate_at.unwrap_or(sh.case.horizon),
            sh.attempts,
        );
    }
    if let Some(dir) = repro_dir {
        let _ = writeln!(s, "  repro: {}", dir.display());
    }
    s
}

/// Render the full run report.
pub(crate) fn render(
    seed: u64,
    budget_slots: Slot,
    lines: &[String],
    failed: usize,
    cells: u64,
    fault_events: usize,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "chaos: seed={seed} cases={} budget-slots={budget_slots}",
        lines.len()
    );
    for line in lines {
        s.push_str(line);
        if !line.ends_with('\n') {
            s.push('\n');
        }
    }
    let _ = writeln!(
        s,
        "chaos: {} cases, {failed} failed, {cells} cells, {fault_events} fault events",
        lines.len()
    );
    s
}

/// Write a minimized repro under `root/case-<idx>/`: the reduced fault
/// plan as CSV, a human-readable `repro.txt` with the replay command, and
/// a Chrome trace of the final slots of the failing run.
pub(crate) fn write_repro(
    root: &Path,
    master_seed: u64,
    budget_slots: Slot,
    original: &ChaosCase,
    shrunk: &ShrinkResult,
    inject_leak: u32,
) -> std::io::Result<PathBuf> {
    let dir = root.join(format!("case-{:03}", original.index));
    std::fs::create_dir_all(&dir)?;

    // 1. The reduced fault plan.
    let plan_path = dir.join("plan.csv");
    pps_core::fault::save(&shrunk.case.plan, &plan_path)?;

    // 2. The replay recipe.
    let case = &shrunk.case;
    let mut txt = String::new();
    let _ = writeln!(txt, "minimized chaos repro");
    let _ = writeln!(txt, "master seed : {master_seed}");
    let _ = writeln!(txt, "case index  : {}", case.index);
    let _ = writeln!(txt, "case seed   : {}", case.seed);
    let _ = writeln!(
        txt,
        "geometry    : N={} K={} r'={} buffer={} {:?} watchdog={:?}",
        case.n, case.k, case.r_prime, case.buffer, case.discipline, case.watchdog
    );
    let _ = writeln!(
        txt,
        "demux       : {}   traffic: {}/{} load={:.3}",
        case.demux.name(),
        case.traffic.name(),
        case.traffic.pattern_name(),
        f64::from(case.load_millis) / 1000.0
    );
    let _ = writeln!(
        txt,
        "fault plan  : {} events (of {} originally), see plan.csv",
        shrunk.kept_events, shrunk.original_events
    );
    if let Some((slot, err)) = &shrunk.outcome.engine_error {
        let _ = writeln!(txt, "engine error: @slot {slot}: {err}");
    }
    for v in &shrunk.outcome.violations {
        let _ = writeln!(txt, "violation   : {v}");
    }
    let truncate = case
        .truncate_at
        .map_or(String::new(), |t| format!(" --truncate-at {t}"));
    let leak = if inject_leak > 0 {
        format!(" --inject-leak {inject_leak}")
    } else {
        String::new()
    };
    let _ = writeln!(
        txt,
        "replay      : ppslab chaos --seed {master_seed} --cases 1 --case {} \
         --budget-slots {budget_slots} --plan {}{truncate}{leak}",
        case.index,
        plan_path.display()
    );
    std::fs::write(dir.join("repro.txt"), txt)?;

    // 3. The tail of the failing run's event stream, if it was kept.
    if let Some(events) = &shrunk.outcome.events {
        let from = shrunk
            .outcome
            .failure_slot()
            .unwrap_or(shrunk.outcome.end_slot)
            .saturating_sub(TRACE_TAIL_SLOTS);
        let tail: Vec<Event> = events.iter().filter(|e| e.slot >= from).copied().collect();
        let log = EventLog {
            label: format!("chaos-repro/{}", case.index),
            events: tail,
            overflowed: 0,
            children: Vec::new(),
        };
        pps_telemetry::dump(&log, &dir.join("trace.json"))?;
    }

    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ChaosCase;
    use crate::runner::{run_case, RunOpts};

    #[test]
    fn case_lines_are_stable() {
        let case = ChaosCase::generate(42, 5, 64);
        let sink = pps_core::run::Sink::default();
        let out = run_case(&case, RunOpts::default(), &sink);
        let a = case_line(&case, &out);
        let out2 = run_case(&case, RunOpts::default(), &sink);
        let b = case_line(&case, &out2);
        assert_eq!(a, b);
        assert!(a.starts_with("case 005 "));
    }
}
