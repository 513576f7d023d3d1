//! `ppslab` argv handling at the binary's surface: what it does not know
//! it rejects — an `error:` line on stderr, exit 2, no table — instead of
//! silently running something else.

use std::process::{Command, Output};

fn ppslab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppslab"))
        .args(args)
        .output()
        .expect("ppslab runs")
}

/// `args` must be refused: exit 2, nothing on stdout, `message` on stderr.
fn assert_rejected(args: &[&str], message: &str) {
    let out = ppslab(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unknown_experiment_id_is_an_error_that_names_list() {
    assert_rejected(&["e99"], "unknown experiment id e99");
    assert_rejected(&["e1", "e99"], "--list");
    // The removed subcommand is an id like any other stranger.
    assert_rejected(&["perf"], "unknown experiment id perf");
}

#[test]
fn unknown_flag_is_an_error() {
    assert_rejected(&["--no-such-flag", "e1"], "unknown flag --no-such-flag");
    // The removed flag must not degrade into running ids ["4", "e12"].
    assert_rejected(&["--intra-jobs", "4", "e12"], "unknown flag --intra-jobs");
    assert_rejected(&["chaos", "--intra-jobs", "2"], "unknown flag --intra-jobs");
}

#[test]
fn value_flag_without_a_value_is_an_error() {
    assert_rejected(&["--jobs"], "--jobs needs a value");
    assert_rejected(&["e1", "--trace-out"], "--trace-out needs a value");
}

/// The command lines the hand-rolled scanners misread — each was accepted
/// (or died on the wrong complaint) before argv was parsed once.
#[test]
fn misparses_are_refused_at_the_surface() {
    // Created a directory called `--csv` *and* turned CSV on.
    assert_rejected(&["--out", "--csv", "e1"], "--out needs a value");
    // Kept `full` silently.
    let twice = ["--telemetry", "full", "--telemetry", "off", "e1"];
    assert_rejected(&twice, "--telemetry is given twice");
    // Accepted and ignored.
    assert_rejected(&["--k", "8", "e1"], "--k does not apply");
    assert_rejected(&["run", "--csv"], "--csv does not apply in Run mode");
    // The flag that could not change a byte of output is gone, both places.
    assert_rejected(&["--stepping", "dense", "e1"], "unknown flag --stepping");
    assert_rejected(&["chaos", "--stepping", "dense"], "unknown flag --stepping");
    // I/O failures are refusals like any other.
    assert_rejected(
        &["--out", "/proc/no/such/dir", "e1"],
        "--out /proc/no/such/dir",
    );
}

/// `--jobs` / `--telemetry` are read before the mode is dispatched: they
/// work with a subcommand, on either side of it.
#[test]
fn settings_work_in_every_mode_and_position() {
    let chaos = ["--seed", "42", "--cases", "2", "--budget-slots", "64"];
    let before = ppslab(&[&["--jobs", "2", "chaos"][..], &chaos[..]].concat());
    let after = ppslab(&[&["chaos"][..], &chaos[..], &["--jobs", "1"][..]].concat());
    assert_eq!(before.status.code(), Some(0), "{before:?}");
    assert_eq!(before.stdout, after.stdout);
    let run = ["run", "--algo", "rr", "--workload", "attack:n=16"];
    let out = ppslab(&[&run[..], &["--telemetry", "counters"][..]].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("telemetry counters:"), "{stderr}");
    // The max column of the one row: (r'-1)(N-1) = 45.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.starts_with("rr "))
        .expect("an rr row");
    assert_eq!(row.split_whitespace().nth(4), Some("45"), "{stdout}");
}

/// The two ad-hoc modes `run` replaced exit 2 with `error:` instead of
/// running something else.
#[test]
fn the_old_ad_hoc_spellings_are_refused() {
    assert_rejected(&["custom"], "unknown experiment id custom");
    let custom = ["custom", "--algo", "rr", "--workload", "attack"];
    assert_rejected(&custom, "does not apply in Experiments mode");
    assert_rejected(
        &["--workload", "uniform:n=8"],
        "--workload does not apply in Experiments mode",
    );
}

/// Theorem 10's burst needs `m = u'*N/K >= 1` coordinated inputs: below
/// that (any N < K at u' = 1) the spec is refused, not a panic in the
/// attack's constructor.
#[test]
fn urt_without_a_coordinated_input_is_refused() {
    assert_rejected(&["run", "--workload", "urt:n=4"], "u'*N/K >= 1");
    let one = ["run", "--workload", "urt:n=7,u=1", "--algo", "stale:2"];
    assert_rejected(&one, "(got N = 7, K = 8, u' = 1)");
    // At N = K the burst has one input and runs.
    let out = ppslab(&["run", "--workload", "urt:n=8", "--algo", "stale:2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// `run` refuses what it cannot run — a `:param` a constructor would
/// `assert!` on, a geometry too small for the family — with `error:` and
/// exit 2, never a panic. One row per `--algo` family.
#[test]
fn run_never_panics_on_its_own_input() {
    // (a spelling that runs on the default geometry, one that must not)
    let families = [
        ("rr", "rr:3"),
        ("pfr", "pfr:x"),
        ("random:7", "random:banana"),
        ("partition", "partition:2"),
        ("ftd:2", "ftd:1"),
        ("ftd:2", "ftd:3"), // h*r' = 12 > K = 8
        ("ftd:2", "ftd:18446744073709551615"),
        ("stale:2", "stale:0"),
        ("stale:2", "stale"),
        ("lll", "lll:1"),
        ("hash", "hash:1"),
        ("cpa", "cpa:1"),
    ];
    for (good, bad_param) in families {
        let spec = ["run", "--workload", "uniform:n=16,horizon=50", "--algo"];
        let cases = [
            [&spec[..], &[bad_param]].concat(),
            // K < r': no bufferless PPS exists, whatever the algorithm.
            [&spec[..], &[good, "--k", "2", "--rprime", "4"]].concat(),
            ["run", "--workload", "uniform:n=0", "--algo", good].to_vec(),
        ];
        for args in cases {
            let out = ppslab(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} printed a report");
        }
    }
    // FTD's plane sets are 128-bit masks.
    let wide = [
        "run",
        "--workload",
        "uniform:horizon=50",
        "--algo",
        "ftd",
        "--k",
        "256",
        "--rprime",
        "2",
    ];
    assert_rejected(&wide, "<= K <= 128");
}

/// A geometry past the 16-bit port and plane columns is refused with
/// `error:` and exit 2 before any trace is built.
#[test]
fn geometry_past_sixteen_bits_is_refused() {
    assert_rejected(
        &["run", "--workload", "uniform:n=70000"],
        "n must be at most 65536, got 70000",
    );
    let attack = ["run", "--workload", "attack:n=70000", "--algo", "rr"];
    assert_rejected(&attack, "n must be at most 65536, got 70000");
    let k = ["run", "--workload", "uniform:n=8", "--k", "70000"];
    assert_rejected(&k, "K must be at most 65535");
}

/// `--bench-json` names every experiment whose engine the slot meter never
/// saw (e21's egress mux today), and only those; the tables do not move.
#[test]
fn bench_json_warns_about_experiments_off_the_slot_meter() {
    let json = std::env::temp_dir().join(format!("ppslab-bench-{}.json", std::process::id()));
    let path = json.to_str().expect("utf-8 temp dir");
    let out = ppslab(&["--jobs", "1", "--bench-json", path, "e20", "e21"]);
    let _ = std::fs::remove_file(&json);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("warning:"))
        .collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(warnings[0].starts_with("warning: e21 metered 0 simulated and 0 skipped slots"));
    assert!(warnings[0].contains("off the slot meter"), "{stderr}");
    assert_eq!(out.stdout, ppslab(&["--jobs", "1", "e20", "e21"]).stdout);
}

#[test]
fn list_prints_every_registered_id() {
    let out = ppslab(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 27, "{stdout}");
    assert!(stdout.lines().any(|id| id == "e12"));
}

#[test]
fn markdown_rows_have_the_headers_cell_count() {
    // e7 has a comma in a header, e16 one in a row label.
    let out = ppslab(&["--markdown", "e7", "e16"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let pipes = |line: &str| line.replace("\\|", "").matches('|').count();
    let (mut tables, mut header_pipes) = (0, None);
    for line in stdout.lines() {
        if !line.starts_with('|') {
            header_pipes = None;
            continue;
        }
        let want = *header_pipes.get_or_insert_with(|| {
            tables += 1;
            pipes(line)
        });
        assert_eq!(pipes(line), want, "{line}");
    }
    assert!(tables >= 2, "{stdout}");
    assert!(stdout.contains("| bound (exact, RR) |"), "{stdout}");
    assert!(stdout.contains("| delayed-CPA (K=16, S=2) |"), "{stdout}");
}

/// Every flag README.md's `ppslab` flag table documents is one the binary
/// knows. Value flags get a scratch path as their value: whatever the flag
/// then makes of it (`--jobs` refuses it, `--out` creates it), the
/// complaint must not be `unknown flag`; `--list` ends the run before any
/// experiment starts.
#[test]
fn every_flag_in_the_readme_table_is_accepted() {
    let readme = include_str!("../../../README.md");
    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| flag | effect |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(rows.len() >= 10, "flag table not found: {rows:?}");
    let scratch = std::env::temp_dir().join(format!("ppslab-cli-{}", std::process::id()));
    let mut flags = 0;
    for row in rows {
        // First cell; `\|` is an escaped pipe inside a code span.
        let cell = row.replace("\\|", "/");
        let cell = cell.split('|').nth(1).expect("row has a first cell");
        // Odd pieces of a split on backticks are the code spans.
        for span in cell.split('`').skip(1).step_by(2) {
            let mut words = span.split_whitespace();
            let flag = words.next().expect("code span names a flag");
            assert!(flag.starts_with("--"), "{row}");
            let mut args = vec![flag];
            if words.next().is_some() {
                args.push(scratch.to_str().expect("utf-8 temp dir"));
            }
            args.push("--list");
            let out = ppslab(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("unknown flag"), "{flag}: {stderr}");
            assert!(out.status.code().is_some(), "{flag}: killed by a signal");
            flags += 1;
        }
    }
    assert!(flags >= 12, "only {flags} flags parsed out of the table");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn the_documented_attribution_block_is_what_run_prints() {
    // EXPERIMENTS.md's walkthrough: the command's block, then the block of
    // what it prints on stderr, which the telemetry counters follow.
    let doc = include_str!("../../../EXPERIMENTS.md");
    let line = "ppslab run --workload attack:n=16 --k 8 --rprime 4 --algo rr --telemetry full";
    let (_, after) = doc
        .split_once(&format!("{line}\n```\n\n```\n"))
        .expect("EXPERIMENTS.md shows the line and what it prints");
    let block = &after[..after.find("```").expect("a closed block")];
    let args: Vec<&str> = line.split_whitespace().skip(1).collect();
    let out = ppslab(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let printed = stderr
        .split_once("telemetry counters:")
        .map(|(head, _)| head);
    assert_eq!(printed, Some(block));
}
