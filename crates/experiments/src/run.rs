//! `ppslab run` — one workload through a PPS of one geometry, compared
//! with the shadow output-queued switch, without writing code.
//!
//! ```text
//! ppslab run --workload "zipf:n=16,load=0.85,s=1.1,seed=7"   # the three-class trio
//! ppslab run --workload attack:n=32 --k 8 --rprime 4 --algo rr
//! ppslab run --workload urt:n=64,u=2 --rprime 8 --algo stale:2
//! ppslab run --workload cbr:n=8,period=2,horizon=50 --save-trace t.csv
//! ```
//!
//! The workload is one keyed spec (`pps_workload::SpecKeys`): a
//! `WorkloadSpec` family, or one of the two words that need the switch —
//! `attack:n=` (the concentration attack against `--algo`, which must be
//! fully-distributed) and `urt:n=,u=` (the Theorem 10 burst). N and the
//! horizon live in the spec; K and r' come from `--k` / `--rprime`.
//!
//! Algorithms: `rr`, `pfr` (per-flow RR), `random[:seed]`, `partition`
//! (minimal static), `ftd[:h]`, `stale:u`, `lll` (local least-loaded),
//! `hash`, `cpa`. Without `--algo` the rows are e19's information-class
//! trio: round robin, stale least-loaded and CPA.
//!
//! The report is a header (the switch and its envelope bound, the spec,
//! the traffic summary with `B_min`) and one row per algorithm. The spec
//! string is the full reproducible name of the run.

use crate::e19_stochastic_tails::classes;
use pps_analysis::{compare_bufferless_in, relative_delays, Comparison, TailQuantiles};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_switch::demux::*;
use pps_traffic::adversary::{concentration_attack, urt_burst_attack};
use pps_traffic::TraceStats;
use pps_workload::{SpecKeys, WorkloadSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

/// A `run` request, one field per flag; `crate::cli::parse` fills it in
/// (and holds the defaults).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArgs {
    pub(crate) workload: String,
    pub(crate) k: usize,
    pub(crate) r_prime: usize,
    pub(crate) algo: Option<String>,
    pub(crate) save_trace: Option<PathBuf>,
}

/// What a spec builds its trace from.
enum Traffic {
    /// The concentration attack, built against the one `--algo`.
    Attack,
    /// The Theorem 10 burst at information delay `u`.
    Urt(Slot),
    /// A `WorkloadSpec` family.
    Spec(WorkloadSpec),
}

/// Parse a spec into its port count and traffic.
fn parse(spec: &str) -> Result<(usize, Traffic), String> {
    let mut keys = SpecKeys::parse(spec)?;
    let traffic = match keys.family() {
        "attack" => Traffic::Attack,
        "urt" => {
            // The burst starts at slot u + 4: keep u far from overflow.
            let u = keys.num_where("u", 1, "in [1, 2^62]", |u| (1..=1 << 62).contains(u))?;
            Traffic::Urt(u)
        }
        _ => {
            let spec = WorkloadSpec::parse(spec)?;
            return Ok((spec.ports(), Traffic::Spec(spec)));
        }
    };
    let n = keys.ports()?;
    keys.finish()?;
    Ok((n, traffic))
}

impl Traffic {
    /// The trace of every traffic but the attack, which needs the
    /// algorithm (see [`run_with`]).
    fn trace(&self, cfg: &PpsConfig) -> Result<Trace, String> {
        match self {
            Traffic::Attack => {
                Err("attack needs --algo: it is built against that algorithm".into())
            }
            &Traffic::Urt(u) => {
                if bounds::theorem10_m(cfg, u) < 1 {
                    let u_eff = bounds::u_effective(cfg.r_prime, u);
                    return Err(format!(
                        "urt: the burst needs u'*N/K >= 1 coordinated inputs \
                         (got N = {}, K = {}, u' = {u_eff})",
                        cfg.n, cfg.k
                    ));
                }
                Ok(urt_burst_attack(cfg, u).trace)
            }
            Traffic::Spec(spec) => spec.trace(),
        }
    }
}

/// Refuse an empty trace (it has no tails), else save it if asked.
fn keep(trace: Trace, args: &RunArgs) -> Result<Trace, String> {
    if trace.is_empty() {
        return Err(format!("workload {:?} produced no cells", args.workload));
    }
    if let Some(path) = &args.save_trace {
        pps_core::trace_io::save(&trace, path).map_err(|e| format!("saving trace: {e}"))?;
    }
    Ok(trace)
}

/// Build the algorithm `--algo` names and hand it to [`run_with`], along
/// with its attack probe budget in units of `8·K` cells. What a constructor
/// `assert!`s about its `:param` is checked first: no `--algo` can panic.
fn run_algo(
    args: &RunArgs,
    algo: &str,
    cfg: PpsConfig,
    traffic: &Traffic,
    sink: &Sink,
) -> Result<(Trace, Comparison), String> {
    let (name, param) = match algo.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (algo, None),
    };
    let PpsConfig { n, k, r_prime, .. } = cfg;
    if param.is_some() && !matches!(name, "random" | "ftd" | "stale") {
        return Err(format!("algorithm {name} takes no :parameter"));
    }
    match name {
        "rr" => run_with(args, cfg, RoundRobinDemux::new(n, k), 1, traffic, sink),
        "pfr" => run_with(
            args,
            cfg,
            PerFlowRoundRobinDemux::new(n, k),
            1,
            traffic,
            sink,
        ),
        "random" => {
            let seed = param.map_or(Ok(0), str::parse);
            let seed = seed.map_err(|e| format!("random seed: {e}"))?;
            run_with(args, cfg, RandomDemux::new(n, seed), 4, traffic, sink)
        }
        "partition" => {
            let demux = StaticPartitionDemux::minimal(n, k, r_prime);
            run_with(args, cfg, demux, 1, traffic, sink)
        }
        "ftd" => {
            let h = param.map_or(Ok(2), str::parse);
            let h: usize = h.map_err(|e| format!("ftd h: {e}"))?;
            if h < 2 || k > 128 || h.checked_mul(r_prime).is_none_or(|block| block > k) {
                return Err(format!(
                    "ftd:{h} needs h >= 2 and h*r' <= K <= 128 (got r' = {r_prime}, K = {k})"
                ));
            }
            run_with(args, cfg, FtdDemux::new(n, k, r_prime, h), 1, traffic, sink)
        }
        "stale" => {
            let u = param.ok_or("stale needs :u")?;
            let u: Slot = u.parse().map_err(|e| format!("stale u: {e}"))?;
            if u == 0 {
                return Err("stale u: must be at least 1".into());
            }
            run_with(
                args,
                cfg,
                StaleLeastLoadedDemux::new(n, k, u),
                1,
                traffic,
                sink,
            )
        }
        "lll" => {
            let demux = LeastLoadedLocalDemux::new(n, k, r_prime);
            run_with(args, cfg, demux, 1, traffic, sink)
        }
        "hash" => run_with(args, cfg, HashFlowDemux::new(n, k), 1, traffic, sink),
        "cpa" => {
            let cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
            run_with(args, cfg, CpaDemux::new(n, k, r_prime), 1, traffic, sink)
        }
        other => Err(format!("unknown algorithm {other}")),
    }
}

/// The part of a run that depends on the algorithm's type: build the
/// trace (the attack probes a clone of `demux`), keep it, and compare the
/// PPS driven by `demux` with the shadow switch.
fn run_with<D: Demultiplexor + Clone>(
    args: &RunArgs,
    cfg: PpsConfig,
    demux: D,
    attack_budget: usize,
    traffic: &Traffic,
    sink: &Sink,
) -> Result<(Trace, Comparison), String> {
    let trace = match traffic {
        Traffic::Attack => {
            if demux.info_class() != InfoClass::FullyDistributed {
                return Err(
                    "attack targets fully-distributed algorithms; use urt for stale".into(),
                );
            }
            let inputs: Vec<u32> = (0..cfg.n as u32).collect();
            concentration_attack(&demux, &cfg, &inputs, attack_budget * 8 * cfg.k).trace
        }
        traffic => traffic.trace(&cfg)?,
    };
    let trace = keep(trace, args)?;
    let cmp = compare_bufferless_in(cfg, demux, &trace, sink).map_err(|e| e.to_string())?;
    Ok((trace, cmp))
}

/// One row of the report: `label`'s relative-delay tails, jitter,
/// concentration, plane-buffer high-water mark and undelivered cells.
fn row(out: &mut String, label: &str, cmp: &Comparison) {
    let tails = TailQuantiles::from(&relative_delays(&cmp.pps.log, &cmp.oq))
        .expect("the trace is nonempty");
    let _ = writeln!(
        out,
        "{label:<22} {:>10.3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        tails.mean,
        tails.p99,
        tails.p999,
        tails.max,
        cmp.relative_jitter(),
        cmp.max_concentration(),
        cmp.pps_stats().max_plane_queue,
        cmp.relative_delay().pps_undelivered
    );
}

/// Execute a `run` as part of the run `sink` records; returns the
/// printable report.
pub fn run(args: &RunArgs, sink: &Sink) -> Result<String, String> {
    let (n, traffic) = parse(&args.workload)?;
    let cfg = PpsConfig::bufferless(n, args.k, args.r_prime);
    cfg.validate().map_err(|e| e.to_string())?;
    let mut rows = String::new();
    let trace = match &args.algo {
        Some(algo) => {
            let (trace, cmp) = run_algo(args, algo, cfg, &traffic, sink)?;
            row(&mut rows, algo, &cmp);
            trace
        }
        None => {
            let trace = keep(traffic.trace(&cfg)?, args)?;
            for (label, run) in classes() {
                let cmp = run(cfg, &trace, sink).map_err(|e| e.to_string())?;
                row(&mut rows, label, &cmp);
            }
            trace
        }
    };
    let stats = TraceStats::of(&trace, n);
    let envelope = bounds::traffic_envelope(&cfg, stats.burstiness);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "switch               : {} (envelope bound {envelope})",
        pps_core::topology::describe(&cfg)
    );
    let _ = writeln!(out, "workload             : {}", args.workload);
    let _ = writeln!(out, "traffic              : {}", stats.summary());
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "algorithm", "mean", "p99", "p999", "max", "jitter", "conc", "hwm", "undeliv"
    );
    out.push_str(&rows);
    Ok(out)
}

#[cfg(test)]
mod tests {
    /// Parse `run` + `flags` the way `ppslab` does, then run.
    fn run(flags: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = std::iter::once("run")
            .chain(flags.iter().copied())
            .map(String::from)
            .collect();
        match crate::cli::parse(&argv).map_err(|e| e.to_string())?.mode {
            crate::cli::Mode::Run(args) => super::run(&args, &pps_core::run::Sink::default()),
            other => panic!("run argv parsed to {other:?}"),
        }
    }

    /// The report's row for `label`, split into its columns.
    fn columns<'a>(report: &'a str, label: &str) -> Vec<&'a str> {
        let line = report.lines().find(|l| l.starts_with(label));
        let line = line.unwrap_or_else(|| panic!("no {label} row: {report}"));
        line[label.len()..].split_whitespace().collect()
    }

    #[test]
    fn a_run_needs_a_workload() {
        let err = run(&["--algo", "rr"]).unwrap_err();
        assert!(err.contains("run needs --workload"), "{err}");
    }

    #[test]
    fn attack_workload_matches_library_numbers() {
        let spec = ["--workload", "attack:n=16", "--k", "8", "--rprime", "4"];
        let out = run(&[&spec[..], &["--algo", "rr"]].concat()).unwrap();
        // (r'-1)(N-1) = 45: the max column.
        assert_eq!(columns(&out, "rr")[3], "45", "{out}");
        assert!(out.contains("B_min = 0"), "{out}");
        assert!(out.contains("16x16 PPS, K=8 planes @ r=R/4"), "{out}");
    }

    #[test]
    fn every_algorithm_spec_parses_and_runs() {
        for algo in [
            "rr",
            "pfr",
            "random:7",
            "partition",
            "ftd:2",
            "stale:2",
            "lll",
            "hash",
            "cpa",
        ] {
            let out = run(&[
                "--k",
                "8",
                "--rprime",
                "2",
                "--algo",
                algo,
                "--workload",
                "uniform:n=8,load=0.8,horizon=200",
            ])
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(columns(&out, algo)[7], "0", "{algo}: {out}");
        }
    }

    #[test]
    fn report_covers_all_classes() {
        let out = run(&["--workload", "uniform:n=8,load=0.7,seed=3,horizon=2000"]).unwrap();
        for label in ["fully-dist (rr)", "u-RT (stale:2)", "centralized (cpa)"] {
            assert_eq!(columns(&out, label).len(), 8, "{label}: {out}");
        }
        assert!(out.contains("envelope bound"), "{out}");
    }

    #[test]
    fn report_is_deterministic() {
        let spec = ["--workload", "zipf:n=8,load=0.6,seed=11,horizon=3000"];
        assert_eq!(run(&spec).unwrap(), run(&spec).unwrap());
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(run(&["--workload", "uniform", "--bogus", "1"]).is_err());
        assert!(run(&["--workload", "uniform", "--algo", "quantum"]).is_err());
        let attack = ["--workload", "attack"];
        assert!(run(&[&attack[..], &["--algo", "cpa"]].concat()).is_err());
        let err = run(&attack).unwrap_err();
        assert!(err.contains("--algo"), "{err}");
    }

    #[test]
    fn bad_specs_are_reported() {
        for (spec, needle) in [
            ("nope:x=1", "unknown workload family"),
            ("zipf:bogus=1", "unknown key \"bogus\""),
            ("attack:seed=3", "unknown key \"seed\""),
            ("attack:zz", "expected key=value"),
            ("urt:u=1,horizon=9", "unknown key \"horizon\""),
            ("urt:u=0", "u must be in [1, 2^62]"),
            ("cbr:n=8,horizon=0", "produced no cells"),
        ] {
            let err = run(&["--workload", spec, "--algo", "rr"]).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn stochastic_workload_families_run() {
        for wl in [
            "zipf:n=8,load=0.7,seed=3,horizon=500",
            "mmpp:n=8,calm=0.1,burst=0.8,horizon=500",
            "onoff:n=8,horizon=500",
            "uniform:n=8,load=0.6,horizon=500",
            "shaped:n=8,load=0.9,num=1,den=2,burst=4,horizon=500",
            "cbr:n=8,period=3,horizon=500",
            "congestion:n=8,senders=3,horizon=100",
            "urt:n=8,u=1",
        ] {
            let out = run(&["--k", "8", "--rprime", "2", "--workload", wl])
                .unwrap_or_else(|e| panic!("{wl}: {e}"));
            assert_eq!(columns(&out, "u-RT (stale:2)").len(), 8, "{wl}: {out}");
        }
    }

    #[test]
    fn stochastic_spec_geometry_is_single_source() {
        // N and the horizon are the spec's; K and r' the flags'.
        let spec = "uniform:n=4,load=1,horizon=50";
        let out = run(&["--workload", spec, "--k", "4", "--rprime", "2"]).unwrap();
        assert!(out.contains("4x4 PPS, K=4 planes @ r=R/2"), "{out}");
        assert!(out.contains("200 cells over 50 slots on 4 ports"), "{out}");
    }

    #[test]
    fn save_trace_round_trips() {
        let dir = std::env::temp_dir().join(format!("ppslab_run_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let path = path.to_str().unwrap();
        let rest = ["--k", "8", "--rprime", "2", "--algo", "rr"];
        let saved = [
            "--workload",
            "cbr:n=8,period=2,horizon=50",
            "--save-trace",
            path,
        ];
        let first = run(&[&saved[..], &rest[..]].concat()).unwrap();
        let spec = format!("replay:path={path},n=8");
        let again = run(&[&["--workload", &spec][..], &rest[..]].concat()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // Same traffic, same row: only the workload line differs.
        fn body(report: &str) -> Vec<&str> {
            let lines = report.lines();
            lines.filter(|l| !l.starts_with("workload")).collect()
        }
        assert_eq!(body(&first), body(&again));
    }
}
