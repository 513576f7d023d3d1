//! Failure shrinking: minimize the fault schedule and the horizon.
//!
//! When a case trips an oracle, the raw trigger is rarely the smallest
//! one: ten scheduled faults may contain a single `PlaneDown` that does
//! all the damage. The shrinker runs classic delta debugging (ddmin) over
//! the fault-event list — try dropping chunks at progressively finer
//! granularity, keep any subset that still reproduces the *same* failure
//! kind — then truncates the arrival horizon to just past the violation
//! slot. Truncation is sound because [`ChaosCase::trace`] regenerates the
//! full trace and cuts it, so a shorter case sees an exact prefix of the
//! original arrivals.
//!
//! Everything here re-runs [`run_case`] on candidate cases, so shrinking
//! is deterministic: same case, same failure, same minimized repro.

use crate::case::ChaosCase;
use crate::runner::{run_case, CaseOutcome, FailureKind, RunOpts};
use pps_core::fault::{FaultEvent, FaultPlan};
use pps_core::run::Sink;

/// A minimized failing case plus the bookkeeping the report shows.
#[derive(Debug)]
pub(crate) struct ShrinkResult {
    /// The minimized case (reduced plan, possibly truncated horizon).
    pub case: ChaosCase,
    /// Outcome of the minimized case (still failing, same kind).
    pub outcome: CaseOutcome,
    /// Fault events before shrinking.
    pub original_events: usize,
    /// Fault events after shrinking.
    pub kept_events: usize,
    /// Candidate runs spent shrinking.
    pub attempts: usize,
}

/// Rebuild a plan from a subset of events (order is preserved; the
/// builders re-sort stably by activation slot, which is a no-op for a
/// subsequence of an already-sorted list).
fn plan_from(events: &[FaultEvent]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for ev in events {
        plan = match *ev {
            FaultEvent::PlaneDown { plane, at } => plan.plane_down(plane.0, at),
            FaultEvent::PlaneUp { plane, at } => plan.plane_up(plane.0, at),
            FaultEvent::LinkDegraded {
                input,
                plane,
                from,
                until,
            } => plan.link_degraded(input.0, plane.0, from, until),
        };
    }
    plan
}

/// Does `case` still fail the same way? Returns the outcome if so.
fn reproduces(
    case: &ChaosCase,
    kind: FailureKind,
    opts: RunOpts,
    sink: &Sink,
) -> Option<CaseOutcome> {
    let out = run_case(case, opts, sink);
    (out.failure_kind() == Some(kind)).then_some(out)
}

/// Shrink a failing case. `failed` is the outcome that made it a
/// candidate (used for the failure signature and the first truncation
/// guess); `opts` and `sink` must match the options and the run of the
/// original, minus event retention (the shrinker re-runs without keeping
/// streams).
pub(crate) fn shrink(
    case: &ChaosCase,
    failed: &CaseOutcome,
    opts: RunOpts,
    sink: &Sink,
) -> ShrinkResult {
    let kind = failed
        .failure_kind()
        .expect("shrink called on a passing case");
    let run_opts = RunOpts {
        keep_events: false,
        ..opts
    };
    let mut attempts = 0usize;
    let original_events = case.plan.len();

    let mut best = case.clone();
    let mut best_out = None;

    // Phase 1: truncate the horizon to just past the first failure slot.
    // Most violations only need the arrivals that precede them.
    if let Some(at) = failed.failure_slot() {
        if at + 1 < best.horizon {
            let mut candidate = best.clone();
            candidate.truncate_at = Some(at + 1);
            attempts += 1;
            if let Some(out) = reproduces(&candidate, kind, run_opts, sink) {
                best = candidate;
                best_out = Some(out);
            }
        }
    }

    // Phase 2: ddmin over the fault events.
    let mut events: Vec<FaultEvent> = best.plan.events().to_vec();
    let mut granularity = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            // Complement: everything except events[start..end].
            let candidate_events: Vec<FaultEvent> = events[..start]
                .iter()
                .chain(&events[end..])
                .copied()
                .collect();
            let mut candidate = best.clone();
            candidate.plan = plan_from(&candidate_events);
            attempts += 1;
            if let Some(out) = reproduces(&candidate, kind, run_opts, sink) {
                events = candidate_events;
                best = candidate;
                best_out = Some(out);
                reduced = true;
                // Restart this granularity on the reduced list.
                start = 0;
                continue;
            }
            start = end;
        }
        if !reduced {
            if granularity >= events.len() {
                break;
            }
            granularity = (granularity * 2).min(events.len());
        } else {
            granularity = 2.max(granularity / 2);
        }
    }

    // Phase 3: re-truncate — dropping events can move the violation
    // earlier, making a tighter horizon reproduce.
    let current = best_out
        .take()
        .map(|o| (o.failure_slot(), o))
        .unwrap_or_else(|| {
            attempts += 1;
            let o = run_case(&best, run_opts, sink);
            (o.failure_slot(), o)
        });
    let (slot, mut out) = current;
    if let Some(at) = slot {
        let tighter = at + 1;
        if best
            .truncate_at
            .map_or(best.horizon > tighter, |t| t > tighter)
        {
            let mut candidate = best.clone();
            candidate.truncate_at = Some(tighter);
            attempts += 1;
            if let Some(o) = reproduces(&candidate, kind, run_opts, sink) {
                best = candidate;
                out = o;
            }
        }
    }

    let kept_events = best.plan.len();
    ShrinkResult {
        case: best,
        outcome: out,
        original_events,
        kept_events,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ChaosCase;
    use crate::runner::RunOpts;
    use pps_core::OracleKind;

    /// An injected leak needs exactly one PlaneDown with cells behind it;
    /// ddmin should strip a padded plan down to (almost) nothing else.
    #[test]
    fn shrinks_injected_leak_to_a_few_events() {
        let opts = RunOpts {
            inject_leak: 1,
            ..RunOpts::default()
        };
        let found = (0..512)
            .map(|i| ChaosCase::generate(2024, i, 96))
            .filter(|c| c.buffer == 0 && c.plan.len() >= 4)
            .take(24)
            .find_map(|case| {
                let out = run_case(&case, opts, &Sink::default());
                (out.failure_kind()
                    == Some(crate::runner::FailureKind::Oracle(OracleKind::Conservation)))
                .then_some((case, out))
            });
        let (case, out) = found.expect("no scanned case tripped the injected leak");
        let shrunk = shrink(&case, &out, opts, &Sink::default());
        assert!(shrunk.outcome.failed());
        assert!(
            shrunk.kept_events <= 8,
            "kept {} of {} events",
            shrunk.kept_events,
            shrunk.original_events
        );
        assert!(shrunk.kept_events <= shrunk.original_events);
    }
}
