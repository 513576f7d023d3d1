//! Two runs in one process, on two threads at once, each on a
//! [`RunSpec`] of its own: every output equals its solo run byte for byte
//! — tables, meters, event bundle and chaos report. A run reads nothing
//! but its spec and its inputs, so nothing one run is configured with can
//! reach the other.

use pps_chaos::cli::{self as chaos, ChaosOptions};
use pps_core::run::{self, RunSpec};
use pps_core::sweep::SweepPlan;
use pps_core::telemetry::{EventLog, Level, Meters};
use pps_experiments::{Experiment, EXPERIMENTS};

fn experiment(id: &str) -> Experiment {
    let found = EXPERIMENTS.iter().find(|(e, _)| *e == id);
    found.expect("a registered experiment").1
}

/// Run `a` and `b` on two threads, released together by a barrier so the
/// two runs overlap.
fn side_by_side<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            a()
        });
        let b = s.spawn(|| {
            start.wait();
            b()
        });
        (a.join().expect("first run"), b.join().expect("second run"))
    })
}

/// One experiment as a user sees it: its tables, meters and event bundle.
fn experiment_run(id: &str, spec: &RunSpec) -> (String, Meters, EventLog) {
    let report = run::run(spec, id, experiment(id));
    (report.output.render(), report.meters, report.log)
}

#[test]
fn a_traced_experiment_beside_a_plain_one_matches_its_solo_run() {
    let traced = RunSpec {
        jobs: 2,
        telemetry: Level::Full,
        ..RunSpec::default()
    };
    let plain = RunSpec::default();
    let e3 = || experiment_run("e3", &traced);
    let e20 = || experiment_run("e20", &plain);
    let (alone3, alone20) = (e3(), e20());
    assert!(alone3.2.total_events() > 0, "e3 traced nothing");
    assert_eq!(alone20.2.total_events(), 0, "e20 traced at Off");
    let (beside3, beside20) = side_by_side(e3, e20);
    assert!(beside3 == alone3, "e3 changed beside e20");
    assert!(beside20 == alone20, "e20 changed beside e3");
}

#[test]
fn a_chaos_campaign_beside_a_registry_run_matches_its_solo_run() {
    let repro_out =
        std::env::temp_dir().join(format!("pps-concurrent-chaos-{}", std::process::id()));
    let opts = ChaosOptions {
        seed: 42,
        cases: 32,
        budget_slots: 128,
        repro_out,
        ..ChaosOptions::default()
    };
    let campaign = || {
        let report = chaos::run(&opts, &RunSpec::default()).expect("campaign runs");
        (report.text, report.failed, report.meters)
    };
    // The registry sweep as `ppslab --jobs 2 --telemetry counters` runs it.
    let registry_run = || {
        let spec = RunSpec {
            jobs: 2,
            telemetry: Level::Counters,
            ..RunSpec::default()
        };
        let ids = ["e1", "e9", "e16"];
        let report = run::run(&spec, "ppslab", |sink| {
            let plan = SweepPlan::new_in("registry", ids.to_vec(), sink);
            plan.run(|pt| experiment(pt.params)(pt.sink).render())
        });
        (report.output, report.meters)
    };
    let (alone_chaos, alone_registry) = (campaign(), registry_run());
    assert_eq!(alone_chaos.1, 0, "{}", alone_chaos.0);
    let (beside_chaos, beside_registry) = side_by_side(campaign, registry_run);
    assert!(
        beside_chaos == alone_chaos,
        "the campaign changed beside the registry"
    );
    assert!(
        beside_registry == alone_registry,
        "the registry changed beside the campaign"
    );
}
