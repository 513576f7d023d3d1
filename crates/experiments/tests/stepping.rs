//! Registry-level dense/skip equivalence: the experiment tables a user
//! actually reads must come out byte-identical whichever slot-stepping
//! mode the engines run under, at any worker budget. This is the
//! user-facing face of `pps-switch`'s `engine_model` test, which holds
//! both PPS variants to the same naive model in each mode.
//!
//! Each configuration is a [`RunSpec`] of its own: the mode and the budget
//! are arguments of the run, not process state.

use pps_core::run::{self, RunSpec};
use pps_core::Stepping;
use pps_experiments::EXPERIMENTS;

/// Cheap experiments that still cover both engines, the shadow OQ, the
/// crossbar baselines, faults, and the watchdog paths — plus the three
/// stochastic-workload studies (e19–e21), whose acceptance criterion is
/// exactly this byte-identity across stepping modes and worker budgets.
const IDS: [&str; 7] = ["e1", "e4", "e9", "e16", "e19", "e20", "e21"];

fn render_all(spec: &RunSpec) -> String {
    let mut out = String::new();
    for (id, experiment) in EXPERIMENTS {
        if IDS.contains(&id) {
            out.push_str(&run::run(spec, id, experiment).output.render());
            out.push('\n');
        }
    }
    out
}

#[test]
fn tables_are_identical_across_stepping_and_jobs() {
    let mut renders = Vec::new();
    for (stepping, jobs) in [
        (Stepping::Dense, 1),
        (Stepping::Dense, 4),
        (Stepping::SkipAhead, 1),
        (Stepping::SkipAhead, 4),
    ] {
        let spec = RunSpec {
            jobs,
            stepping,
            ..RunSpec::default()
        };
        renders.push((stepping, jobs, render_all(&spec)));
    }

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
