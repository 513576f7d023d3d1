//! End-to-end harness tests: the acceptance criteria of the chaos PR.
//!
//! * a seeded campaign over the generated case mix is violation-free;
//! * the report is byte-identical at `--jobs 1` and `--jobs 4`;
//! * an intentionally injected conservation bug (the test-only leak hook)
//!   is caught by the oracles and shrunk to a repro of at most 8 fault
//!   events, with the repro files on disk.
//!
//! The tests drive [`pps_chaos::cli`] — the exact code path behind
//! `ppslab chaos` — so flag parsing, fan-out, shrinking and repro
//! emission are all under test.

use pps_chaos::cli::{self, ChaosOptions};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pps-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn seeded_campaign_is_violation_free() {
    let report = cli::run(&ChaosOptions {
        seed: 42,
        cases: 48,
        budget_slots: 128,
        repro_out: temp_dir("smoke"),
        ..ChaosOptions::default()
    })
    .expect("campaign runs");
    assert_eq!(report.failed, 0, "report:\n{}", report.text);
    assert!(report.text.contains("chaos: 48 cases, 0 failed"));
}

#[test]
fn seed_42_campaign_reproduces_the_committed_report() {
    // `ppslab chaos --seed 42 --cases 256` is the behavioural contract
    // every PR is held to; the golden is that command's stdout.
    let golden = include_str!("golden/seed42_256.txt");
    for jobs in [1, 2] {
        let report = cli::run(&ChaosOptions {
            seed: 42,
            cases: 256,
            budget_slots: 256,
            jobs: Some(jobs),
            repro_out: temp_dir("golden"),
            ..ChaosOptions::default()
        })
        .expect("campaign runs");
        assert!(report.text == golden, "--jobs {jobs}:\n{}", report.text);
    }
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    let base = ChaosOptions {
        seed: 1337,
        cases: 24,
        budget_slots: 96,
        repro_out: temp_dir("jobs"),
        ..ChaosOptions::default()
    };
    let serial = cli::run(&ChaosOptions {
        jobs: Some(1),
        ..base.clone()
    })
    .expect("serial run");
    let parallel = cli::run(&ChaosOptions {
        jobs: Some(4),
        ..base
    })
    .expect("parallel run");
    assert_eq!(serial.text, parallel.text);
}

#[test]
fn report_is_byte_identical_dense_vs_skip() {
    // The skip-ahead lockstep must land on exactly the slots the dense
    // walk would have acted on: same verdicts, same end slots, same
    // delivered/dropped tallies — the whole report, byte for byte.
    let base = ChaosOptions {
        seed: 42,
        cases: 32,
        budget_slots: 128,
        repro_out: temp_dir("stepping"),
        ..ChaosOptions::default()
    };
    let dense = cli::run(&ChaosOptions {
        force_stepping: Some(pps_core::Stepping::Dense),
        ..base.clone()
    })
    .expect("dense run");
    let skip = cli::run(&ChaosOptions {
        force_stepping: Some(pps_core::Stepping::SkipAhead),
        ..base
    })
    .expect("skip run");
    assert_eq!(dense.failed, 0, "{}", dense.text);
    assert_eq!(dense.text, skip.text);
}

#[test]
fn injected_bug_is_caught_and_shrunk() {
    let repro_root = temp_dir("leak");
    // Arm the conservation-leak hook on every case: any case whose plan
    // downs a loaded plane now leaks one cell past the accounting. The
    // campaign must flag at least one case, shrink it, and write a repro.
    let report = cli::run(&ChaosOptions {
        seed: 42,
        cases: 32,
        budget_slots: 128,
        repro_out: repro_root.clone(),
        inject_leak: 1,
        ..ChaosOptions::default()
    })
    .expect("campaign runs");
    assert!(report.failed > 0, "leak went undetected:\n{}", report.text);
    assert!(
        report.text.contains("conservation"),
        "wrong oracle:\n{}",
        report.text
    );

    // Every shrunk line must report <= 8 kept events.
    let mut saw_shrunk = false;
    for line in report.text.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("shrunk: ") {
            // format: "<orig> -> <kept> fault events, ..."
            let kept: usize = rest
                .split("-> ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse().ok())
                .expect("parse shrunk line");
            assert!(kept <= 8, "repro not minimal: {line}");
            saw_shrunk = true;
        }
    }
    assert!(saw_shrunk, "no shrunk line in:\n{}", report.text);

    // Repro files exist: plan.csv + repro.txt with a replay command.
    let case_dir = std::fs::read_dir(&repro_root)
        .expect("repro root exists")
        .next()
        .expect("at least one repro")
        .expect("readable entry")
        .path();
    assert!(case_dir.join("plan.csv").is_file());
    let txt = std::fs::read_to_string(case_dir.join("repro.txt")).expect("repro.txt");
    assert!(
        txt.contains("replay      : ppslab chaos --seed 42"),
        "{txt}"
    );
    assert!(case_dir.join("trace.json").is_file());
    let _ = std::fs::remove_dir_all(&repro_root);
}

#[test]
fn single_case_replay_matches_campaign_verdict() {
    // Case 3 of the smoke seed, replayed alone, must still pass — the
    // repro path regenerates a case bit-identically from (seed, index).
    let report = cli::run(&ChaosOptions {
        seed: 42,
        cases: 1,
        budget_slots: 128,
        only_case: Some(3),
        repro_out: temp_dir("replay"),
        ..ChaosOptions::default()
    })
    .expect("replay runs");
    assert_eq!(report.failed, 0, "{}", report.text);
    assert!(report.text.contains("case 003 "));
}
