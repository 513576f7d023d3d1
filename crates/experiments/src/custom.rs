//! `ppslab custom` — run an arbitrary (geometry, algorithm, workload)
//! combination and print the comparison, without writing code.
//!
//! ```text
//! ppslab custom --n 32 --k 8 --rprime 4 --algo rr --workload attack
//! ppslab custom --n 16 --k 8 --rprime 4 --algo cpa --workload bernoulli:0.95
//! ppslab custom --n 64 --k 8 --rprime 8 --algo stale:2 --workload urt
//! ppslab custom ... --save-trace /tmp/t.csv
//! ```
//!
//! Algorithms: `rr`, `pfr` (per-flow RR), `random[:seed]`, `partition`
//! (minimal static), `ftd[:h]`, `stale:u`, `lll` (local least-loaded),
//! `hash`, `cpa`. Workloads: `attack` (the concentration attack against
//! the chosen algorithm), `urt` (the Theorem 10 burst), `bernoulli:LOAD`,
//! `onoff:LOAD`, `cbr:PERIOD`, `congestion:SENDERS`, plus the seeded
//! stochastic families of `pps_workload::WorkloadSpec` — `zipf:…`,
//! `mmpp:…`, `uniform:…`, `shaped:…`, `replay:…` (key=value syntax; `n`
//! and `horizon` are taken from `--n`/`--slots`, any `n=`/`horizon=`
//! keys in the spec are rejected here to keep the geometry single-source).

use pps_analysis::{compare_bufferless, Comparison};
use pps_core::prelude::*;
use pps_switch::demux::*;
use pps_traffic::adversary::{concentration_attack, congestion_traffic, urt_burst_attack};
use pps_traffic::gen::{BernoulliGen, CbrGen, OnOffGen};
use pps_traffic::{min_burstiness, TraceStats};

/// A custom-run request, one field per `custom` flag; `crate::cli::parse`
/// fills it in (and holds the defaults).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CustomArgs {
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) r_prime: usize,
    pub(crate) algo: String,
    pub(crate) workload: String,
    pub(crate) slots: Slot,
    pub(crate) save_trace: Option<String>,
}

fn split_param(s: &str) -> (&str, Option<&str>) {
    match s.split_once(':') {
        Some((a, b)) => (a, Some(b)),
        None => (s, None),
    }
}

/// A numeric `:param`, or `default` when the spec names none.
fn param_or<T: std::str::FromStr>(param: Option<&str>, default: T, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    param.map_or(Ok(default), |p| {
        p.parse().map_err(|e| format!("{what}: {e}"))
    })
}

/// [`param_or`], refused outside `range`: what a generator `assert!`s about
/// its parameter is checked here first, so no `--workload` can panic either.
fn param_in<T, R>(param: Option<&str>, default: T, what: &str, range: R) -> Result<T, String>
where
    T: std::str::FromStr + std::fmt::Display + PartialOrd,
    T::Err: std::fmt::Display,
    R: std::ops::RangeBounds<T> + std::fmt::Debug,
{
    let v = param_or(param, default, what)?;
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(format!("{what} must be in {range:?}, got {v}"))
    }
}

/// Build the algorithm `--algo` names and hand it to [`run_with`], along
/// with its attack probe budget in units of `8·K` cells. What a constructor
/// `assert!`s about its `:param` is checked first: no `--algo` can panic.
fn run_algo(args: &CustomArgs, cfg: PpsConfig) -> Result<(Trace, Comparison), String> {
    let (name, param) = split_param(&args.algo);
    let CustomArgs { n, k, r_prime, .. } = *args;
    if param.is_some() && !matches!(name, "random" | "ftd" | "stale") {
        return Err(format!("algorithm {name} takes no :parameter"));
    }
    match name {
        "rr" => run_with(args, cfg, RoundRobinDemux::new(n, k), 1),
        "pfr" => run_with(args, cfg, PerFlowRoundRobinDemux::new(n, k), 1),
        "random" => {
            let seed = param_or(param, 0, "random seed")?;
            run_with(args, cfg, RandomDemux::new(n, seed), 4)
        }
        "partition" => run_with(args, cfg, StaticPartitionDemux::minimal(n, k, r_prime), 1),
        "ftd" => {
            let h: usize = param_or(param, 2, "ftd h")?;
            if h < 2 || k > 128 || h.checked_mul(r_prime).is_none_or(|block| block > k) {
                return Err(format!(
                    "ftd:{h} needs h >= 2 and h*r' <= K <= 128 (got r' = {r_prime}, K = {k})"
                ));
            }
            run_with(args, cfg, FtdDemux::new(n, k, r_prime, h), 1)
        }
        "stale" => {
            let u = param.ok_or("stale needs :u")?;
            let u: Slot = u.parse().map_err(|e| format!("stale u: {e}"))?;
            if u == 0 {
                return Err("stale u: must be at least 1".into());
            }
            run_with(args, cfg, StaleLeastLoadedDemux::new(n, k, u), 1)
        }
        "lll" => run_with(args, cfg, LeastLoadedLocalDemux::new(n, k, r_prime), 1),
        "hash" => run_with(args, cfg, HashFlowDemux::new(n, k), 1),
        "cpa" => {
            let cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
            run_with(args, cfg, CpaDemux::new(n, k, r_prime), 1)
        }
        other => Err(format!("unknown algorithm {other}")),
    }
}

/// The part of a custom run that depends on the algorithm's type: build
/// the workload (the attack probes a clone of `demux`), save it if asked,
/// and compare the PPS driven by `demux` with the shadow switch.
fn run_with<D: Demultiplexor + Clone>(
    args: &CustomArgs,
    cfg: PpsConfig,
    demux: D,
    attack_budget: usize,
) -> Result<(Trace, Comparison), String> {
    let trace = if split_param(&args.workload).0 == "attack" {
        if demux.info_class() != InfoClass::FullyDistributed {
            return Err("attack targets fully-distributed algorithms; use urt for stale".into());
        }
        let inputs: Vec<u32> = (0..args.n as u32).collect();
        concentration_attack(&demux, &cfg, &inputs, attack_budget * 8 * args.k).trace
    } else {
        build_workload(args, &cfg)?
    };
    if let Some(path) = &args.save_trace {
        pps_core::trace_io::save(&trace, std::path::Path::new(path))
            .map_err(|e| format!("saving trace: {e}"))?;
    }
    let cmp = compare_bufferless(cfg, demux, &trace).map_err(|e| e.to_string())?;
    Ok((trace, cmp))
}

/// Every workload but `attack`, which needs the algorithm (see [`run_with`]).
fn build_workload(args: &CustomArgs, cfg: &PpsConfig) -> Result<Trace, String> {
    let (name, param) = split_param(&args.workload);
    let n = args.n;
    Ok(match name {
        "urt" => urt_burst_attack(cfg, param_or(param, 1, "urt u")?).trace,
        "bernoulli" => {
            let load = param_in(param, 0.9, "bernoulli load", 0.0..=1.0)?;
            BernoulliGen::uniform(load, 42).trace(n, args.slots)
        }
        "onoff" => {
            let load = param_in(param, 0.7, "onoff load", 0.0..1.0)?;
            OnOffGen::uniform(12.0, load, 42).trace(n, args.slots)
        }
        "cbr" => CbrGen::diagonal(param_in(param, 2, "cbr period", 1..)?).trace(n, args.slots),
        // Seeded stochastic families from pps-workload. Geometry comes
        // from --n/--slots: they are prepended as spec keys, so a
        // conflicting n=/horizon= inside the spec body shows up as a
        // duplicate key and is rejected by the parser.
        "zipf" | "mmpp" | "uniform" | "shaped" | "replay" => {
            let body = param.unwrap_or("");
            let mut full = format!("{name}:n={n}");
            if name != "replay" {
                full.push_str(&format!(",horizon={}", args.slots));
            }
            if !body.is_empty() {
                full.push(',');
                full.push_str(body);
            }
            pps_workload::WorkloadSpec::parse(&full)?.trace()?
        }
        "congestion" => {
            let senders = param_in(param, 2, "congestion senders (at most --n)", 2..=n)?;
            congestion_traffic(n, 0, senders, args.slots).trace
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Execute a custom run; returns the printable report.
pub fn run_custom(args: &CustomArgs) -> Result<String, String> {
    let cfg = PpsConfig::bufferless(args.n, args.k, args.r_prime);
    cfg.validate().map_err(|e| e.to_string())?;
    let (trace, cmp) = run_algo(args, cfg)?;
    let b = min_burstiness(&trace, args.n).overall();
    let rd = cmp.relative_delay();
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", pps_core::topology::describe(&cfg));
    let _ = writeln!(out, "algorithm            : {}", args.algo);
    let _ = writeln!(
        out,
        "workload             : {} ({} cells, B_min = {b})",
        args.workload,
        trace.len()
    );
    let _ = writeln!(
        out,
        "traffic              : {}",
        TraceStats::of(&trace, args.n).summary()
    );
    let _ = writeln!(out, "relative delay (max) : {}", rd.max);
    let _ = writeln!(out, "relative delay (mean): {:.3}", rd.mean);
    let _ = writeln!(out, "relative jitter      : {}", cmp.relative_jitter());
    let _ = writeln!(out, "undelivered          : {}", rd.pps_undelivered);
    let _ = writeln!(out, "max concentration    : {}", cmp.max_concentration());
    let _ = writeln!(
        out,
        "plane buffer HWM     : {}",
        cmp.pps_stats().max_plane_queue
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    /// Parse `custom` + `flags` the way `ppslab` does, then run.
    fn run_custom(flags: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = std::iter::once("custom")
            .chain(flags.iter().copied())
            .map(String::from)
            .collect();
        match crate::cli::parse(&argv).map_err(|e| e.to_string())?.mode {
            crate::cli::Mode::Custom(args) => super::run_custom(&args),
            other => panic!("custom argv parsed to {other:?}"),
        }
    }

    #[test]
    fn default_custom_run_works() {
        let out = run_custom(&["--slots", "300"]).unwrap();
        assert!(out.contains("relative delay (max)"), "{out}");
    }

    #[test]
    fn attack_workload_matches_library_numbers() {
        let out = run_custom(&[
            "--n",
            "16",
            "--k",
            "8",
            "--rprime",
            "4",
            "--algo",
            "rr",
            "--workload",
            "attack",
        ])
        .unwrap();
        // (r'-1)(N-1) = 45.
        assert!(out.contains("relative delay (max) : 45"), "{out}");
        assert!(out.contains("B_min = 0"), "{out}");
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
            let out = run_custom(&[
                "--n",
                "8",
                "--k",
                "8",
                "--rprime",
                "2",
                "--algo",
                algo,
                "--workload",
                "bernoulli:0.8",
                "--slots",
                "200",
            ])
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("undelivered          : 0"), "{algo}: {out}");
        }
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(run_custom(&["--bogus", "1"]).is_err());
        assert!(run_custom(&["--algo", "quantum"]).is_err());
        assert!(run_custom(&["--algo", "cpa", "--workload", "attack"]).is_err());
    }

    #[test]
    fn stochastic_workload_families_run() {
        for wl in [
            "zipf:load=0.7,seed=3",
            "mmpp:calm=0.1,burst=0.8",
            "uniform:load=0.6",
            "shaped:load=0.9,num=1,den=2,burst=4",
        ] {
            let out = run_custom(&[
                "--n",
                "8",
                "--k",
                "8",
                "--rprime",
                "2",
                "--workload",
                wl,
                "--slots",
                "500",
            ])
            .unwrap_or_else(|e| panic!("{wl}: {e}"));
            assert!(out.contains("relative delay (max)"), "{wl}: {out}");
        }
    }

    #[test]
    fn stochastic_spec_geometry_is_single_source() {
        // n/horizon come from --n/--slots; a conflicting key in the spec
        // body is a duplicate and must be rejected, not silently ignored.
        assert!(run_custom(&["--workload", "zipf:n=4"]).is_err());
        assert!(run_custom(&["--workload", "uniform:horizon=99"]).is_err());
    }

    #[test]
    fn save_trace_round_trips() {
        let dir = std::env::temp_dir().join("ppslab_custom_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        run_custom(&[
            "--n",
            "8",
            "--k",
            "8",
            "--rprime",
            "2",
            "--workload",
            "cbr:2",
            "--slots",
            "50",
            "--save-trace",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let loaded = pps_core::trace_io::load(&path, 8).unwrap();
        assert!(!loaded.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
