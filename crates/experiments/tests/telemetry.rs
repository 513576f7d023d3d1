//! End-to-end telemetry contracts, exercised through real engine runs:
//!
//! - disabled path: no events recorded, results byte-identical to a traced
//!   run (tracing must observe, never perturb);
//! - `counters` level: the meters grow but the rings stay empty;
//! - `full` level: a lockstep E3 point yields a schema-valid Chrome trace
//!   with paired PPS and shadow-OQ tracks;
//! - sweep merge: the captured event bundle is identical at any `--jobs`.
//!
//! Every test runs on a [`RunSpec`] of its own and reads its own
//! [`RunReport`]: the tests share no state and run in parallel.

use pps_core::run::{self, RunReport, RunSpec};
use pps_core::sweep::SweepPlan;
use pps_core::telemetry::{self, Level};
use pps_experiments::{e03_fd_general, AttackPoint};

fn at(telemetry: Level) -> RunSpec {
    RunSpec {
        telemetry,
        ..RunSpec::default()
    }
}

/// One lockstep E3 point: a bufferless PPS against its shadow OQ on the
/// same concentration-attack trace. Small enough for a test, rich enough
/// to emit every dataplane event kind on both engines.
fn lockstep_point(level: Level) -> RunReport<AttackPoint> {
    run::run(&at(level), "e3-point", |sink| {
        e03_fd_general::point(16, 8, 4, sink)
    })
}

#[test]
fn disabled_level_records_nothing_and_leaves_results_unchanged() {
    let off = lockstep_point(Level::Off);
    assert_eq!(
        off.log.total_events(),
        0,
        "Level::Off must record no events"
    );
    assert_eq!(off.log.overflowed, 0);

    // The same point traced at Full must compute the same numbers: the
    // instrumentation observes the engines, it never steers them.
    let full = lockstep_point(Level::Full);
    assert_eq!(off.output, full.output, "tracing changed engine results");
    assert!(full.log.total_events() > 0, "Full traced nothing");
}

#[test]
fn counters_level_fills_registry_but_not_rings() {
    let report = lockstep_point(Level::Counters);
    assert_eq!(
        report.log.total_events(),
        0,
        "Counters must not buffer events"
    );
    let arrivals = report
        .meters
        .named()
        .into_iter()
        .find(|(n, _)| *n == "arrival");
    assert!(
        arrivals.is_some_and(|(_, count)| count > 0),
        "arrival counter did not grow"
    );
    let off = lockstep_point(Level::Off).meters.named();
    assert!(off.iter().all(|(n, c)| n.starts_with("perf.") || *c == 0));
}

#[test]
fn lockstep_trace_is_schema_valid_with_paired_tracks() {
    let log = lockstep_point(Level::Full).log;
    assert!(log.total_events() > 0);

    let mut buf = Vec::new();
    pps_telemetry::chrome::write_chrome(&log, &mut buf).expect("write chrome trace");
    let text = String::from_utf8(buf).expect("trace is UTF-8");

    let report = pps_telemetry::chrome::lint(&text);
    assert!(report.ok(), "chrome trace failed lint: {report:?}");

    // Lockstep visualization: both engines must appear as named process
    // tracks so Perfetto renders them side by side.
    for engine in ["[pps]", "[shadow-oq]"] {
        assert!(
            report.process_names.iter().any(|n| n.contains(engine)),
            "trace has no {engine} track among {:?}",
            report.process_names
        );
    }
    // The dataplane event vocabulary was captured from both engines.
    // (E3's minimal partition keeps per-flow order, so no reseq events
    // here; the fault test below covers that half of the vocabulary.)
    let kinds = kind_names(&log);
    for kind in [
        "arrival",
        "demux-decision",
        "plane-enqueue",
        "plane-deliver",
        "depart",
    ] {
        assert!(kinds.contains(kind), "no {kind} events captured: {kinds:?}");
    }
}

fn kind_names(log: &telemetry::EventLog) -> std::collections::BTreeSet<&'static str> {
    log.flatten()
        .iter()
        .flat_map(|(_, events)| events.iter().map(|e| e.kind.name()))
        .collect()
}

#[test]
fn fault_run_emits_resequencer_and_watchdog_events() {
    use pps_core::prelude::*;
    use pps_experiments::a1_fault::recovery_point;
    use pps_switch::demux::RoundRobinDemux;
    use pps_traffic::gen::BernoulliGen;

    let (n, k, r_prime) = (16, 8, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_watchdog(32);
    let trace = BernoulliGen::uniform(0.7, 77).trace(n, 1_000);
    let plan = FaultPlan::new().plane_down(0, 200).plane_up(0, 600);
    let log = run::run(&at(Level::Full), "fault-run", |sink| {
        let demux = RoundRobinDemux::new(n, k);
        recovery_point(cfg, demux, &trace, &plan, (200, 600), sink)
    })
    .log;

    // A mid-run plane failure forces the resequencer half of the
    // vocabulary: holds behind lost cells, watchdog drops past them,
    // releases once gaps are declared dead, and the fault markers.
    let kinds = kind_names(&log);
    for kind in [
        "reseq-hold",
        "reseq-release",
        "watchdog-drop",
        "fault-applied",
    ] {
        assert!(kinds.contains(kind), "no {kind} events captured: {kinds:?}");
    }

    // The trace stays schema-valid with fault instants on the tracks.
    let mut buf = Vec::new();
    pps_telemetry::chrome::write_chrome(&log, &mut buf).expect("write chrome trace");
    let report = pps_telemetry::chrome::lint(&String::from_utf8(buf).expect("UTF-8"));
    assert!(report.ok(), "fault trace failed lint: {report:?}");
}

#[test]
fn sweep_event_bundle_is_jobs_invariant() {
    let run_at = |jobs: usize| {
        let spec = RunSpec {
            jobs,
            ..at(Level::Full)
        };
        let report = run::run(&spec, "sweep", |sink| {
            let plan = SweepPlan::new_in("tel-jobs", vec![4usize, 8, 16], sink);
            plan.run(|pt| e03_fd_general::point(16, *pt.params, 4, pt.sink))
        });
        report.log
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    assert!(serial.total_events() > 0);
    assert_eq!(
        serial, parallel,
        "event bundle differs between --jobs 1 and --jobs 8"
    );
}
