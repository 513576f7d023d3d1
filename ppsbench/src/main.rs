//! `ppsbench` — the benchmark every later performance claim is measured
//! with. See `README.md` for metric and workload names.
//!
//! ```text
//! ppsbench --workload W --seed S --seconds T --trace 0|1   # one workload; what BENCHMARK.json's command runs
//! ppsbench run [--seed S] [--seconds T] [--trace] [--quick] [--out F]   # every workload, one process each
//! ppsbench compare A.json B.json    # two sets of `run --out` runs against the bounds
//! ppsbench bless [--quick]          # rewrite the goldens
//! ```
//!
//! Every form prints each metric by name with its unit, verifies the
//! simulated outputs, and ends a single-workload run with the one-line JSON
//! result. Exit codes: 0 measured (failed ops are in the result), 1 a check
//! failed (`run`, `compare`), 2 usage, 3 refused to time a workload whose
//! warm-up disagrees with its golden.

use ppsbench::run::{self, Args};
use ppsbench::spans::NoTrace;
use ppsbench::workloads::{Workload, DEFAULT_SEED, NAMES};
use ppsbench::{compare, golden};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds `run` measures each workload for when `--seconds` is absent
/// (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: ppsbench --workload <{}> [--seed S] [--seconds T] [--trace 0|1] [--quick]\n\
         \x20      ppsbench run [--seed S] [--seconds T] [--trace] [--quick] [--out F]\n\
         \x20      ppsbench compare A.json B.json\n\
         \x20      ppsbench bless [--quick]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

/// Flags shared by the single-workload form and `run`.
fn parse(args: &[String], trace_takes_value: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        golden_dir: None,
        out: None,
        trace_out: None,
        peak_rss_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.to_string(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" if trace_takes_value => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1 (got {other:?})")),
                }
            }
            "--trace" => parsed.trace = true,
            "--quick" => parsed.quick = true,
            "--golden-dir" => parsed.golden_dir = Some(PathBuf::from(value()?)),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--peak-rss-probe" => parsed.peak_rss_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One workload in this process; the result line is the last line printed.
fn single(args: &Args) -> ExitCode {
    if args.peak_rss_probe {
        return match run::peak_rss_probe(args) {
            Ok(mib) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    match run::run(args) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", outcome.line);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// Every workload, one child process each, one after another — so
/// `peak_rss_mb` and the cold first rep are per workload.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut failed = Vec::new();
    for name in NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        for (flag, path) in [("--golden-dir", &args.golden_dir), ("--out", &args.out)] {
            if let Some(path) = path {
                cmd.arg(flag).arg(path);
            }
        }
        // `output()` waits for the child and collects its stdout.
        match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(child) => {
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                let correct = stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("{\"correct\": true"));
                if !child.status.success() || !correct {
                    failed.push(name);
                }
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                failed.push(name);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failed.join(", "));
        ExitCode::from(1)
    }
}

/// Rewrite the goldens from one rep of each workload at the default seed.
/// The rep runs at `Level::Counters`, so `registry`'s per-experiment
/// `engine_cells` come from the telemetry `arrival` counter.
fn bless(quick: bool) -> ExitCode {
    run::pin_process();
    pps_core::telemetry::set_level(pps_core::telemetry::Level::Counters);
    let dir = golden::default_dir(quick);
    for name in NAMES {
        let workload = Workload::new(name, DEFAULT_SEED, quick).expect("NAMES are valid");
        let out = workload.rep(&mut NoTrace);
        if let Some(op) = out.ops.iter().find(|op| op.fault.is_some()) {
            eprintln!("error: {name}: not blessing a failed op: {:?}", op.fault);
            return ExitCode::from(1);
        }
        if let Err(e) = golden::save(&dir, name, DEFAULT_SEED, &out.ops) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
        println!("blessed {name}: {} ops -> {}", out.ops.len(), dir.display());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse(&args[1..], false) {
            Ok(parsed) if parsed.workload.is_empty() => all(&parsed),
            Ok(_) => usage("run takes no --workload: it runs them all"),
            Err(e) => usage(&e),
        },
        Some("compare") => match &args[1..] {
            [a, b] => match compare::compare(a, b) {
                Ok((table, bad)) => {
                    print!("{table}");
                    ExitCode::from(u8::from(bad))
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage("compare takes two files"),
        },
        Some("bless") => match &args[1..] {
            [] => bless(false),
            [q] if q == "--quick" => bless(true),
            _ => usage("bless takes only --quick"),
        },
        _ => match parse(&args, true) {
            Ok(parsed) if !parsed.workload.is_empty() => single(&parsed),
            Ok(_) => usage("no --workload given"),
            Err(e) => usage(&e),
        },
    }
}
