//! Pins what `ppslab` writes at each telemetry level, through the binary,
//! at `--jobs 1` and `--jobs 2`:
//!
//! - `--telemetry full --trace-out X.json e3`: the trace file;
//! - `--telemetry full e6` and `… a1`: the delay-attribution summary and
//!   the counters on stderr (their trace files run to hundreds of MB, too
//!   big to write in a test; the summary prints a block per engine run of
//!   each scope);
//! - `--telemetry counters e3 e6 a1`: the tables on stdout and the
//!   counters on stderr.
//!
//! Each is held to an FNV-1a digest. A digest moves only when a PR means
//! to move a table, a trace or a meter.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `ppslab args`; it must exit 0. Returns stdout and stderr, the
/// stderr without the `events.unscoped` counter: that line counts the
/// recorder's own lost events, not anything the run did.
fn ppslab(args: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppslab"))
        .args(args)
        .output()
        .expect("ppslab runs");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "ppslab {args:?}: {stderr}");
    let kept: String = stderr
        .lines()
        .filter(|l| !l.trim_start().starts_with("events.unscoped"))
        .map(|l| format!("{l}\n"))
        .collect();
    (out.stdout, kept)
}

/// Each output's digest, the same at every job count.
const PINNED: [(&str, u64); 6] = [
    ("e3 trace", 0x263b_7e34_b9f8_e86d),
    ("e3 full stdout", 0x8d8a_3bb9_7a7d_95ba),
    ("e6 full stderr", 0xa28b_8628_260d_59b2),
    ("a1 full stderr", 0x550b_ce8f_641d_3893),
    ("counters stdout", 0x2e5f_49f1_b58a_7ff3),
    ("counters stderr", 0xeed0_7524_6f8e_e4d9),
];

#[test]
fn telemetry_outputs_are_pinned_at_any_job_count() {
    let dir = std::env::temp_dir().join(format!("ppslab-trace-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pinned: String = PINNED
        .iter()
        .map(|(what, d)| format!("{what}: {d:016x}\n"))
        .collect();
    for jobs in ["1", "2"] {
        let trace = dir.join(format!("e3-{jobs}.json"));
        let path = trace.to_str().expect("UTF-8 temp path");
        let mut got = Vec::new();
        let full = ["--jobs", jobs, "--telemetry", "full"];
        let (stdout, _) = ppslab(&[&full[..], &["--trace-out", path, "e3"]].concat());
        let file = std::fs::read(&trace).expect("trace written");
        got.push(fnv1a(&file));
        got.push(fnv1a(&stdout));
        for id in ["e6", "a1"] {
            let (_, stderr) = ppslab(&[&full[..], &[id]].concat());
            got.push(fnv1a(stderr.as_bytes()));
        }
        let counters = ["--jobs", jobs, "--telemetry", "counters", "e3", "e6", "a1"];
        let (stdout, stderr) = ppslab(&counters);
        got.push(fnv1a(&stdout));
        got.push(fnv1a(stderr.as_bytes()));
        let text: String = PINNED
            .iter()
            .zip(&got)
            .map(|((what, _), d)| format!("{what}: {d:016x}\n"))
            .collect();
        assert_eq!(text, pinned, "telemetry outputs moved at --jobs {jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
