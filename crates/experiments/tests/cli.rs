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
