//! `ppslab` — run the reproduction experiments and print their tables.
//!
//! ```text
//! ppslab             # run everything, in paper order
//! ppslab e2 e10      # run a subset
//! ppslab --list      # list experiment ids
//! ppslab --csv e12   # also dump each table as CSV after the text table
//! ppslab --markdown  # emit GitHub-flavoured markdown instead of text
//! ppslab --out results/   # also write every table as CSV into results/
//! ppslab --jobs 4    # worker budget (default: available parallelism; 1 = serial)
//! ppslab --stepping dense   # force the dense slot loop (default: skip-ahead)
//! ppslab --bench-json BENCH_experiments.json   # record wall-clock + slots/sec
//! ppslab --telemetry counters          # event counters to stderr after the run
//! ppslab --telemetry full --trace-out trace.json e3   # Perfetto-loadable trace
//! ppslab custom --n 32 --k 8 --rprime 4 --algo rr --workload attack
//! ppslab chaos --seed 42 --cases 256 --budget-slots 256   # fuzz with oracles
//! ppslab --workload "zipf:n=16,load=0.85,s=1.1,seed=7"   # stochastic tail report
//! ppslab --workload "mmpp:n=8" --workload-k 8 --workload-rprime 4
//! ```
//!
//! Whatever `--jobs` says, the printed tables are byte-identical: the sweep
//! executor merges results in declared order (see `pps_experiments::sweep`).
//! `--bench-json` times experiments one at a time (their inner sweeps still
//! use the worker budget) so the per-experiment numbers are attributable,
//! and writes them as JSON.
//!
//! Telemetry rides the same determinism contract: at `--telemetry full`
//! every sweep point records into its own scope and the event bundle is
//! absorbed in declared order, so `--trace-out` files are identical at any
//! `--jobs`. The sink is picked from the `--trace-out` extension: `.json`
//! is a Chrome trace-event file (open in Perfetto), `.csv` a flat table,
//! anything else JSONL.

use pps_experiments::sweep::SweepPlan;
use pps_experiments::{registry, ExperimentOutput};

/// Per-experiment benchmark record:
/// `(id, wall seconds, simulated slots, skipped slots)`.
type BenchEntry = (&'static str, f64, u64, u64);

/// Serialize the benchmark records by hand (two levels of objects — not
/// worth a JSON dependency).
fn bench_json(jobs: usize, total_seconds: f64, entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"ppslab\",\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!(
        "  \"stepping\": \"{}\",\n",
        pps_core::stepping::process_default().name()
    ));
    out.push_str(&format!("  \"total_wall_seconds\": {total_seconds:.3},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, (id, secs, slots, skipped)) in entries.iter().enumerate() {
        let rate = if *secs > 0.0 {
            *slots as f64 / secs
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"id\": \"{id}\", \"wall_seconds\": {secs:.3}, \"slots\": {slots}, \
             \"slots_skipped\": {skipped}, \"slots_per_sec\": {rate:.0}}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Every flag of the experiment-running path, with whether it takes a
/// value: the one list that both skips flag values when collecting
/// experiment ids and rejects strangers.
const FLAGS: &[(&str, bool)] = &[
    ("--csv", false),
    ("--markdown", false),
    ("--list", false),
    ("--out", true),
    ("--jobs", true),
    ("--bench-json", true),
    ("--telemetry", true),
    ("--trace-out", true),
    ("--stepping", true),
    ("--workload", true),
    ("--workload-k", true),
    ("--workload-rprime", true),
];

/// Check every `--flag` against [`FLAGS`] (and that a value follows the
/// ones that take one) and return the positional arguments: the wanted
/// experiment ids.
fn positional(args: &[String]) -> Vec<&str> {
    let mut wanted = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            wanted.push(arg.as_str());
            continue;
        }
        match FLAGS.iter().find(|(flag, _)| flag == arg) {
            Some((_, false)) => {}
            Some((_, true)) => {
                if it.next().is_none() {
                    eprintln!("error: {arg} needs a value");
                    std::process::exit(2);
                }
            }
            None => {
                eprintln!("error: unknown flag {arg}");
                std::process::exit(2);
            }
        }
    }
    wanted
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("custom") {
        match pps_experiments::custom::run_custom(&args[1..]) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("chaos") {
        match pps_chaos::run_chaos(&args[1..]) {
            Ok(report) => {
                print!("{}", report.text);
                if report.failed > 0 {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let wanted = positional(&args);
    let csv = args.iter().any(|a| a == "--csv");
    let markdown = args.iter().any(|a| a == "--markdown");
    let out_dir = flag_value(&args, "--out").cloned();
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("error: --out {dir}: {e}");
            std::process::exit(2);
        });
    }
    let bench_path = flag_value(&args, "--bench-json").cloned();
    // Slot-loop mode for every engine constructed from here on. Tables
    // and traces are byte-identical either way (tested); `dense` exists
    // to demonstrate that and as the escape hatch.
    if let Some(v) = flag_value(&args, "--stepping") {
        match pps_core::Stepping::parse(v) {
            Some(mode) => pps_core::stepping::set_process_default(mode),
            None => {
                eprintln!("error: --stepping must be dense or skip (got {v:?})");
                std::process::exit(2);
            }
        }
    }
    let telemetry_level = match flag_value(&args, "--telemetry") {
        Some(v) => pps_core::telemetry::Level::parse(v).unwrap_or_else(|| {
            eprintln!("error: --telemetry must be off, counters, or full (got {v:?})");
            std::process::exit(2);
        }),
        None => pps_core::telemetry::Level::Off,
    };
    pps_core::telemetry::set_level(telemetry_level);
    let trace_out = flag_value(&args, "--trace-out").cloned();
    if trace_out.is_some() && telemetry_level != pps_core::telemetry::Level::Full {
        eprintln!("warning: --trace-out needs --telemetry full to have events to write");
    }
    // Worker budget: explicit --jobs wins; otherwise use every core.
    // Tables come out byte-identical either way — see the sweep
    // executor's contract.
    let jobs: usize = match flag_value(&args, "--jobs") {
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("error: --jobs: {e}");
            std::process::exit(2);
        }),
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    pps_experiments::sweep::set_jobs(jobs);
    // Standalone workload report: materialize the spec and print its
    // tail-delay table across the information classes. Parsed after the
    // stepping/jobs knobs so `--stepping dense --workload ...` exercises
    // the dense path (the report is byte-identical either way).
    if let Some(spec) = flag_value(&args, "--workload") {
        let parse_dim = |flag: &str, default: usize| -> usize {
            flag_value(&args, flag).map_or(default, |v| {
                v.parse().unwrap_or_else(|e| {
                    eprintln!("error: {flag}: {e}");
                    std::process::exit(2);
                })
            })
        };
        let k = parse_dim("--workload-k", 8);
        let r_prime = parse_dim("--workload-rprime", 4);
        match pps_experiments::workload_cli::run_workload(spec, k, r_prime) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let reg = registry();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in &reg {
            println!("{id}");
        }
        return;
    }
    if let Some(stranger) = wanted.iter().find(|w| reg.iter().all(|(id, _)| id != *w)) {
        eprintln!("error: unknown experiment id {stranger} (--list prints the known ids)");
        std::process::exit(2);
    }
    let selected: Vec<_> = reg
        .iter()
        .filter(|(id, _)| wanted.is_empty() || wanted.contains(id))
        .collect();
    // Run, then print in paper order. The registry-level sweep shares the
    // one worker budget with every experiment's inner sweeps, so --jobs
    // bounds total threads whatever the nesting. Benchmarking instead
    // times experiments one at a time so wall-clock and simulated-slot
    // deltas attribute to a single experiment (inner sweeps still use the
    // budget).
    let suite_start = std::time::Instant::now();
    let mut bench: Vec<BenchEntry> = Vec::new();
    let tracing = telemetry_level == pps_core::telemetry::Level::Full;
    let outputs: Vec<ExperimentOutput> = if bench_path.is_some() {
        selected
            .iter()
            .map(|(id, runner)| {
                let slots0 = pps_core::perf::slots_simulated();
                let skipped0 = pps_core::perf::slots_skipped();
                let start = std::time::Instant::now();
                let out = if tracing {
                    let (out, log) = pps_core::telemetry::collect(*id, runner);
                    pps_core::telemetry::absorb(log);
                    out
                } else {
                    runner()
                };
                let secs = start.elapsed().as_secs_f64();
                bench.push((
                    id,
                    secs,
                    pps_core::perf::slots_simulated() - slots0,
                    pps_core::perf::slots_skipped() - skipped0,
                ));
                out
            })
            .collect()
    } else {
        let plan = SweepPlan::new("registry", (0..selected.len()).collect());
        plan.run(|pt| (selected[*pt.params].1)())
    };
    if let Some(path) = &bench_path {
        let json = bench_json(jobs, suite_start.elapsed().as_secs_f64(), &bench);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: --bench-json {path}: {e}");
            std::process::exit(2);
        });
    }
    let mut failures = 0usize;
    for out in outputs {
        if markdown {
            print!("{}", out.render_markdown());
        } else {
            print!("{}", out.render());
        }
        if csv {
            for t in &out.tables {
                println!("--- csv ---");
                print!("{}", t.to_csv());
            }
        }
        if let Some(dir) = &out_dir {
            for (i, t) in out.tables.iter().enumerate() {
                let path = std::path::Path::new(dir).join(format!("{}_{i}.csv", out.id));
                std::fs::write(&path, t.to_csv()).unwrap_or_else(|e| {
                    eprintln!("error: --out {}: {e}", path.display());
                    std::process::exit(2);
                });
            }
        }
        println!();
        if !out.pass {
            failures += 1;
        }
    }
    if tracing {
        let root = pps_core::telemetry::EventLog {
            label: "ppslab".into(),
            events: Vec::new(),
            overflowed: 0,
            children: pps_core::telemetry::take_absorbed(),
        };
        eprint!("{}", pps_telemetry::summarize(&root));
        if let Some(path) = &trace_out {
            pps_telemetry::dump(&root, std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("error: --trace-out {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("telemetry: {} events -> {path}", root.total_events());
        }
    }
    if telemetry_level != pps_core::telemetry::Level::Off {
        eprintln!("telemetry counters:");
        let mut unscoped = 0;
        for (name, value) in pps_core::telemetry::counters() {
            eprintln!("  {name:<24} {value}");
            if name == "events.unscoped" {
                unscoped = value;
            }
        }
        // Ring overflow is reported by `summarize` above, next to the
        // figures it thins out.
        if unscoped > 0 {
            eprintln!(
                "warning: {unscoped} events dropped because they were recorded outside \
                 any telemetry scope -- they are in no trace and no summary"
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) FAILED");
        std::process::exit(1);
    }
}
