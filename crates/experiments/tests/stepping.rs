//! Registry-level dense/skip equivalence: the experiment tables a user
//! actually reads must come out byte-identical whichever slot-stepping
//! mode the engines run under, at any worker budget. This is the
//! user-facing face of the `skip_equivalence` harness in `pps-switch`.
//!
//! The stepping default and the worker budget are process-wide, so the
//! test serializes itself behind a mutex-free structure: it is the only
//! test in this file, runs each configuration to completion before
//! flipping the knobs, and restores both on exit.

use pps_core::workers::set_jobs;
use pps_experiments::registry;

/// Cheap experiments that still cover both engines, the shadow OQ, the
/// crossbar baselines, faults, and the watchdog paths — plus the three
/// stochastic-workload studies (e19–e21), whose acceptance criterion is
/// exactly this byte-identity across stepping modes and worker budgets.
const IDS: [&str; 7] = ["e1", "e4", "e9", "e16", "e19", "e20", "e21"];

fn render_all() -> String {
    let mut out = String::new();
    for (id, runner) in registry() {
        if IDS.contains(&id) {
            out.push_str(&runner().render());
            out.push('\n');
        }
    }
    out
}

#[test]
fn tables_are_identical_across_stepping_and_jobs() {
    use pps_core::stepping::{process_default, set_process_default};
    use pps_core::Stepping;
    let prior = process_default();

    let mut renders = Vec::new();
    for (mode, jobs) in [
        (Stepping::Dense, 1),
        (Stepping::Dense, 4),
        (Stepping::SkipAhead, 1),
        (Stepping::SkipAhead, 4),
    ] {
        set_process_default(mode);
        set_jobs(jobs);
        renders.push((mode, jobs, render_all()));
    }
    set_jobs(1);
    set_process_default(prior);

    let (_, _, reference) = &renders[0];
    assert!(reference.contains('|'), "tables rendered nothing");
    for (mode, jobs, text) in &renders[1..] {
        assert_eq!(
            text,
            reference,
            "tables diverge at stepping={} jobs={jobs}",
            mode.name()
        );
    }
}
