//! End-to-end telemetry contracts, exercised through real engine runs:
//!
//! - disabled path: no events recorded, results byte-identical to a traced
//!   run (tracing must observe, never perturb);
//! - `counters` level: registry grows but rings stay empty;
//! - `full` level: a lockstep E3 point yields a schema-valid Chrome trace
//!   with paired PPS and shadow-OQ tracks;
//! - sweep merge: the captured event bundle is identical at any `--jobs`.
//!
//! The recording level and worker budget are process-wide, so every test
//! takes `TELEMETRY_LOCK` and restores `Level::Off` on exit (panic
//! included) via `LevelGuard`.

use pps_core::sweep::SweepPlan;
use pps_core::telemetry::{self, Level};
use pps_core::workers::set_jobs;
use pps_experiments::e03_fd_general;
use std::sync::Mutex;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test and restores `Level::Off` when dropped.
struct LevelGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl LevelGuard {
    fn set(level: Level) -> Self {
        let lock = TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        telemetry::set_level(level);
        LevelGuard { _lock: lock }
    }
}

impl Drop for LevelGuard {
    fn drop(&mut self) {
        telemetry::set_level(Level::Off);
    }
}

/// One lockstep E3 point: a bufferless PPS against its shadow OQ on the
/// same concentration-attack trace. Small enough for a test, rich enough
/// to emit every dataplane event kind on both engines.
fn lockstep_point() -> (f64, u64, usize, u64, u64, i64, i64, u64) {
    e03_fd_general::point(16, 8, 4)
}

#[test]
fn disabled_level_records_nothing_and_leaves_results_unchanged() {
    let _guard = LevelGuard::set(Level::Off);
    let (off_result, off_log) = telemetry::collect("off", lockstep_point);
    assert_eq!(
        off_log.total_events(),
        0,
        "Level::Off must record no events"
    );
    assert_eq!(off_log.overflowed, 0);

    // The same point traced at Full must compute the same numbers: the
    // instrumentation observes the engines, it never steers them.
    telemetry::set_level(Level::Full);
    let (full_result, full_log) = telemetry::collect("full", lockstep_point);
    assert_eq!(off_result, full_result, "tracing changed engine results");
    assert!(full_log.total_events() > 0, "Full traced nothing");
}

#[test]
fn counters_level_fills_registry_but_not_rings() {
    let _guard = LevelGuard::set(Level::Counters);
    let before: u64 = count_of("arrival");
    let (_result, log) = telemetry::collect("counters", lockstep_point);
    assert_eq!(log.total_events(), 0, "Counters must not buffer events");
    let after: u64 = count_of("arrival");
    assert!(
        after > before,
        "arrival counter did not grow ({before} -> {after})"
    );
}

fn count_of(name: &str) -> u64 {
    telemetry::counters()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn lockstep_trace_is_schema_valid_with_paired_tracks() {
    let _guard = LevelGuard::set(Level::Full);
    let (_result, log) = telemetry::collect("e3-point", lockstep_point);
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

    let _guard = LevelGuard::set(Level::Full);
    let (n, k, r_prime) = (16, 8, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_watchdog(32);
    let trace = BernoulliGen::uniform(0.7, 77).trace(n, 1_000);
    let plan = FaultPlan::new().plane_down(0, 200).plane_up(0, 600);
    let (_impact, log) = telemetry::collect("fault-run", || {
        recovery_point(cfg, RoundRobinDemux::new(n, k), &trace, &plan, (200, 600))
    });

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
    let _guard = LevelGuard::set(Level::Full);
    let run_at = |jobs: usize| {
        set_jobs(jobs);
        let (_results, log) = telemetry::collect("sweep", || {
            let plan = SweepPlan::new("tel-jobs", vec![4usize, 8, 16]);
            plan.run(|pt| e03_fd_general::point(16, *pt.params, 4))
        });
        set_jobs(1);
        log
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    assert!(serial.total_events() > 0);
    assert_eq!(
        serial, parallel,
        "event bundle differs between --jobs 1 and --jobs 8"
    );
}
