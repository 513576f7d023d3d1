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
//! ppslab --bench-json BENCH_experiments.json   # record wall-clock + slots/sec
//! ppslab --telemetry counters          # event counters to stderr after the run
//! ppslab --telemetry full --trace-out trace.json e3   # Perfetto-loadable trace
//! ppslab run --workload "zipf:n=16,load=0.85,s=1.1,seed=7"   # tails of the three information classes
//! ppslab run --workload attack:n=32 --k 8 --rprime 4 --algo rr   # one algorithm, one row
//! ppslab run --workload urt:n=16,u=2 --algo stale:2 --save-trace t.csv
//! ppslab chaos --seed 42 --cases 256 --budget-slots 256   # fuzz with oracles
//! ppslab chaos --inject-leak 1 --repro-out repros/   # prove the oracles bite
//! ppslab chaos --seed 42 --cases 1 --case 1 --plan plan.csv --truncate-at 83   # replay a repro
//! ```
//!
//! argv is parsed once, by `pps_experiments::cli::parse`, whose flag table
//! the block above is pinned against, and `--jobs` / `--telemetry` become
//! the one [`RunSpec`] every mode runs on (`Invocation::spec`). Nothing
//! here, and nothing the modes call, reads process state: a mode's output
//! depends on its arguments and its spec only.
//!
//! Whatever `--jobs` says, the printed tables are byte-identical: the sweep
//! executor merges results in declared order (see `pps_core::sweep`).
//! `--bench-json` runs experiments one at a time (their inner sweeps still
//! use the worker budget), each as a run of its own, and writes each one's
//! wall clock and the slots its `RunReport` metered as JSON. An experiment
//! that metered no slot at all gets a `warning:` line on stderr: its engine
//! is off the slot meter.
//!
//! Telemetry rides the same determinism contract: at `--telemetry full`
//! every sweep point records into a sink of its own and the event bundle is
//! merged in declared order, so `--trace-out` files are identical at any
//! `--jobs`. The format is picked from the `--trace-out` extension: `.json`
//! is a Chrome trace-event file (open in Perfetto), `.csv` a flat table,
//! anything else JSONL.

use pps_core::run::{self, RunSpec};
use pps_core::sweep::SweepPlan;
use pps_core::telemetry::{EventLog, Level, Meters};
use pps_experiments::cli::{self, CliError, ExperimentArgs, Mode};
use pps_experiments::{ExperimentOutput, EXPERIMENTS};
use std::path::Path;
use std::process::ExitCode;

/// Per-experiment benchmark record:
/// `(id, wall seconds, simulated slots, skipped slots)`.
type BenchEntry = (&'static str, f64, u64, u64);

/// Serialize the benchmark records by hand (two levels of objects — not
/// worth a JSON dependency).
fn bench_json(jobs: usize, total_seconds: f64, entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"ppslab\",\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
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

/// What telemetry saw of a mode: the meters of its runs and, at `full`,
/// their event logs (the children of the `--trace-out` bundle).
#[derive(Default)]
struct Seen {
    meters: Meters,
    logs: Vec<EventLog>,
}

impl Seen {
    fn add<T>(&mut self, report: run::RunReport<T>) -> T {
        self.meters.add(&report.meters);
        self.logs.push(report.log);
        report.output
    }
}

fn io_error<'a>(flag: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> CliError + 'a {
    move |source| CliError::Io(format!("{flag} {}", path.display()), source)
}

/// Run the selected experiments and print them in paper order; `Ok(false)`
/// when a verdict was not PASS.
fn run_experiments(
    args: &ExperimentArgs,
    spec: &RunSpec,
    seen: &mut Seen,
) -> Result<bool, CliError> {
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(io_error("--out", dir))?;
    }
    let mut selected = EXPERIMENTS.to_vec();
    selected.retain(|(id, _)| args.ids.contains(id));
    // The registry-level sweep shares the run's worker budget with every
    // experiment's inner sweeps, so --jobs bounds total threads whatever
    // the nesting. Benchmarking instead runs experiments one at a time,
    // each a run of its own, so wall clock and metered slots attribute to
    // a single experiment (inner sweeps still use the budget).
    let outputs: Vec<ExperimentOutput> = if let Some(path) = &args.bench_json {
        let suite_start = std::time::Instant::now();
        let mut bench: Vec<BenchEntry> = Vec::new();
        let outputs = selected
            .iter()
            .map(|&(id, experiment)| {
                let start = std::time::Instant::now();
                let report = run::run(spec, id, experiment);
                let secs = start.elapsed().as_secs_f64();
                let Meters {
                    slots_simulated,
                    slots_skipped,
                    ..
                } = report.meters;
                bench.push((id, secs, slots_simulated, slots_skipped));
                seen.add(report)
            })
            .collect();
        let json = bench_json(spec.jobs, suite_start.elapsed().as_secs_f64(), &bench);
        std::fs::write(path, json).map_err(io_error("--bench-json", path))?;
        for (id, ..) in bench
            .iter()
            .filter(|(_, _, slots, skipped)| slots + skipped == 0)
        {
            eprintln!(
                "warning: {id} metered 0 simulated and 0 skipped slots -- its engine is off \
                 the slot meter, so its slots_per_sec reads 0"
            );
        }
        outputs
    } else {
        let report = run::run(spec, "ppslab", |sink| {
            let plan = SweepPlan::new_in("registry", (0..selected.len()).collect(), sink);
            plan.run(|pt| (selected[*pt.params].1)(pt.sink))
        });
        seen.meters.add(&report.meters);
        seen.logs.extend(report.log.children);
        report.output
    };
    let mut failures = 0usize;
    for out in outputs {
        if args.markdown {
            print!("{}", out.render_markdown());
        } else {
            print!("{}", out.render());
        }
        if args.csv {
            for t in &out.tables {
                println!("--- csv ---");
                print!("{}", t.to_csv());
            }
        }
        if let Some(dir) = &args.out {
            for (i, t) in out.tables.iter().enumerate() {
                let path = dir.join(format!("{}_{i}.csv", out.id));
                std::fs::write(&path, t.to_csv()).map_err(io_error("--out", &path))?;
            }
        }
        println!();
        if !out.pass {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) FAILED");
    }
    Ok(failures == 0)
}

/// Run what `mode` names on `spec` and print its report; `Ok(false)` when
/// the run completed but found a failure (a verdict, a chaos violation).
fn dispatch(mode: &Mode, spec: &RunSpec, seen: &mut Seen) -> Result<bool, CliError> {
    let report = match mode {
        Mode::List => Ok(EXPERIMENTS
            .iter()
            .map(|(id, _)| format!("{id}\n"))
            .collect()),
        Mode::Experiments(args) => return run_experiments(args, spec, seen),
        Mode::Run(args) => seen.add(run::run(spec, "run", |sink| {
            pps_experiments::run::run(args, sink)
        })),
        // A campaign records at `full` for its own oracles and keeps no
        // events: only its meters are reported.
        Mode::Chaos(opts) => {
            let report =
                pps_chaos::cli::run(opts, spec).map_err(|e| CliError::Refused(e.to_string()))?;
            seen.meters.add(&report.meters);
            print!("{}", report.text);
            return Ok(report.failed == 0);
        }
    };
    print!("{}", report.map_err(CliError::Refused)?);
    Ok(true)
}

/// What `--telemetry` asked to see once the run is over: the summary and
/// the `--trace-out` file at `full`, the counters at `counters` and up.
fn telemetry_epilogue(level: Level, trace_out: Option<&Path>, seen: Seen) -> Result<(), CliError> {
    if level == Level::Full {
        let root = EventLog {
            label: "ppslab".into(),
            events: Vec::new(),
            overflowed: 0,
            children: seen.logs,
        };
        eprint!("{}", pps_telemetry::summarize(&root));
        if let Some(path) = trace_out {
            pps_telemetry::dump(&root, path).map_err(io_error("--trace-out", path))?;
            let events = root.total_events();
            eprintln!("telemetry: {events} events -> {}", path.display());
        }
    }
    // Ring overflow is reported by `summarize` above, next to the figures
    // it thins out.
    if level != Level::Off {
        eprintln!("telemetry counters:");
        for (name, value) in seen.meters.named() {
            eprintln!("  {name:<24} {value}");
        }
    }
    Ok(())
}

/// Parse, build the run's spec, run, report what telemetry saw. Exit 0
/// when everything passed, 1 when an experiment or a chaos case failed, 2
/// when the command line or its input was refused.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::parse(&args).and_then(|inv| {
        let spec = inv.spec;
        if inv.trace_out.is_some() && spec.telemetry != Level::Full {
            eprintln!("warning: --trace-out needs --telemetry full to have events to write");
        }
        let mut seen = Seen::default();
        let passed = dispatch(&inv.mode, &spec, &mut seen)?;
        telemetry_epilogue(spec.telemetry, inv.trace_out.as_deref(), seen)?;
        Ok(passed)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
