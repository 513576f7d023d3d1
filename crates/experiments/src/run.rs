//! `ppslab run` — one workload through a PPS of one geometry, measured
//! against the FCFS output-queued reference, without writing code.
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
//! Algorithms (`with_algo`, the one table of them by name): `rr`, `pfr`
//! (per-flow RR), `random[:seed]`, `partition` (minimal static), `ftd[:h]`,
//! `stale:u`, `lll` (local least-loaded), `hash`, `cpa`. Without `--algo`
//! the rows are the information-class `TRIO`, e19's rows too: round
//! robin, stale least-loaded and CPA.
//!
//! The report is a header (the switch and its envelope bound, the spec,
//! the traffic summary with `B_min`) and one row per algorithm. The spec
//! string is the full reproducible name of the run. Each row runs one
//! engine, the PPS: its log is read against the reference departures that
//! `pps_reference::fcfs_departures` streams from the trace, not against a
//! shadow switch run beside it.

use pps_analysis::metrics::{max_concentration, relative_jitter};
use pps_analysis::TailQuantiles;
use pps_core::bounds;
use pps_core::prelude::*;
use pps_reference::fcfs_departures;
use pps_switch::demux::*;
use pps_switch::engine::{BufferlessPps, PpsRun};
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

/// The information-class trio, one representative per class of the
/// paper's taxonomy: `(row label, --algo name)`.
pub(crate) const TRIO: [(&str, &str); 3] = [
    ("fully-dist (rr)", "rr"),
    ("u-RT (stale:2)", "stale:2"),
    ("centralized (cpa)", "cpa"),
];

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
    /// algorithm (see [`Build`]).
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

/// What is done with the demultiplexor an `--algo` name builds: its type
/// differs per name, so [`with_algo`] hands it to a generic method.
pub(crate) trait WithDemux {
    type Out;
    /// Use `demux` in a PPS of geometry `cfg`; `budget` is its
    /// concentration attack's probe budget in units of `8·K` cells (the
    /// attack probes a clone).
    fn with<D: Demultiplexor + Clone>(
        self,
        cfg: PpsConfig,
        demux: D,
        budget: usize,
    ) -> Result<Self::Out, String>;
}

/// The one table of algorithms: build the one `algo` names for the
/// bufferless geometry `cfg` (CPA over global FCFS) and hand it to `w`.
/// What a constructor `assert!`s about its `:param` is checked first: no
/// `--algo` can panic.
pub(crate) fn with_algo<W: WithDemux>(algo: &str, cfg: PpsConfig, w: W) -> Result<W::Out, String> {
    let (name, param) = match algo.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (algo, None),
    };
    let PpsConfig { n, k, r_prime, .. } = cfg;
    if param.is_some() && !matches!(name, "random" | "ftd" | "stale") {
        return Err(format!("algorithm {name} takes no :parameter"));
    }
    match name {
        "rr" => w.with(cfg, RoundRobinDemux::new(n, k), 1),
        "pfr" => w.with(cfg, PerFlowRoundRobinDemux::new(n, k), 1),
        "random" => {
            let seed = param.map_or(Ok(0), str::parse);
            let seed = seed.map_err(|e| format!("random seed: {e}"))?;
            w.with(cfg, RandomDemux::new(n, seed), 4)
        }
        "partition" => w.with(cfg, StaticPartitionDemux::minimal(n, k, r_prime), 1),
        "ftd" => {
            let h = param.map_or(Ok(2), str::parse);
            let h: usize = h.map_err(|e| format!("ftd h: {e}"))?;
            if h < 2 || k > 128 || h.checked_mul(r_prime).is_none_or(|block| block > k) {
                return Err(format!(
                    "ftd:{h} needs h >= 2 and h*r' <= K <= 128 (got r' = {r_prime}, K = {k})"
                ));
            }
            w.with(cfg, FtdDemux::new(n, k, r_prime, h), 1)
        }
        "stale" => {
            let u = param.ok_or("stale needs :u")?;
            let u: Slot = u.parse().map_err(|e| format!("stale u: {e}"))?;
            if u == 0 {
                return Err("stale u: must be at least 1".into());
            }
            w.with(cfg, StaleLeastLoadedDemux::new(n, k, u), 1)
        }
        "lll" => w.with(cfg, LeastLoadedLocalDemux::new(n, k, r_prime), 1),
        "hash" => w.with(cfg, HashFlowDemux::new(n, k), 1),
        "cpa" => {
            let cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
            w.with(cfg, CpaDemux::new(n, k, r_prime), 1)
        }
        other => Err(format!("unknown algorithm {other}")),
    }
}

/// Build a spec's trace for one algorithm: the attack probes a clone of it.
struct Build<'a>(&'a Traffic);

impl WithDemux for Build<'_> {
    type Out = Trace;
    fn with<D: Demultiplexor + Clone>(
        self,
        cfg: PpsConfig,
        demux: D,
        budget: usize,
    ) -> Result<Trace, String> {
        let Traffic::Attack = self.0 else {
            return self.0.trace(&cfg);
        };
        if demux.info_class() != InfoClass::FullyDistributed {
            return Err("attack targets fully-distributed algorithms; use urt for stale".into());
        }
        let inputs: Vec<u32> = (0..cfg.n as u32).collect();
        Ok(concentration_attack(&demux, &cfg, &inputs, budget * 8 * cfg.k).trace)
    }
}

/// Drive a bufferless PPS through a trace, in the run a sink records.
pub(crate) struct Drive<'a>(pub(crate) &'a Trace, pub(crate) &'a Sink);

impl WithDemux for Drive<'_> {
    type Out = PpsRun;
    fn with<D: Demultiplexor + Clone>(
        self,
        cfg: PpsConfig,
        demux: D,
        _: usize,
    ) -> Result<PpsRun, String> {
        let Drive(trace, sink) = self;
        let run = BufferlessPps::new_in(cfg, demux, sink).and_then(|mut pps| pps.run(trace));
        run.map_err(|e| e.to_string())
    }
}

/// One row of the report: `label`'s relative-delay tails, jitter,
/// concentration, plane-buffer high-water mark and undelivered cells,
/// against the FCFS reference departures streamed from `trace`.
fn row(out: &mut String, label: &str, pps: &PpsRun, trace: &Trace, n: usize) {
    let log = &pps.log;
    let relative = || {
        let oq = log.arrivals().zip(fcfs_departures(trace, n));
        let delays = log.delays().zip(oq);
        delays.filter_map(|(d, (a, q))| Some(d? as i64 - (q - a.slot) as i64))
    };
    let tails = TailQuantiles::from(&relative).expect("the trace is nonempty");
    let _ = writeln!(
        out,
        "{label:<22} {:>10.3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        tails.mean,
        tails.p99,
        tails.p999,
        tails.max,
        relative_jitter(log, fcfs_departures(trace, n).map(Some)),
        max_concentration(log),
        pps.stats.max_plane_queue,
        log.undelivered()
    );
}

/// Execute a `run` as part of the run `sink` records; returns the
/// printable report.
pub fn run(args: &RunArgs, sink: &Sink) -> Result<String, String> {
    let (n, traffic) = parse(&args.workload)?;
    let cfg = PpsConfig::bufferless(n, args.k, args.r_prime);
    cfg.validate().map_err(|e| e.to_string())?;
    // The one `--algo` (labelled by its name) is checked before the trace
    // is built, since an attack is built against it.
    let (trace, algos) = match &args.algo {
        Some(a) => (with_algo(a, cfg, Build(&traffic))?, vec![(&a[..], &a[..])]),
        None => (traffic.trace(&cfg)?, TRIO.to_vec()),
    };
    let trace = keep(trace, args)?;
    let mut rows = String::new();
    for (label, algo) in algos {
        let pps = with_algo(algo, cfg, Drive(&trace, sink))?;
        row(&mut rows, label, &pps, &trace, n);
    }
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
    use super::*;
    use pps_analysis::{compare_bufferless_in, metrics, relative_delays, Comparison};
    use pps_core::run::RunSpec;
    use pps_core::telemetry::{Engine, EventLog, Level};

    /// Every `--algo` name of the table.
    const ALGOS: [&str; 9] = [
        "rr",
        "pfr",
        "random:7",
        "partition",
        "ftd:2",
        "stale:2",
        "lll",
        "hash",
        "cpa",
    ];

    /// Parse `run` + `flags` the way `ppslab` does.
    fn parsed(flags: &[&str]) -> Result<RunArgs, String> {
        let argv: Vec<String> = std::iter::once("run")
            .chain(flags.iter().copied())
            .map(String::from)
            .collect();
        match crate::cli::parse(&argv).map_err(|e| e.to_string())?.mode {
            crate::cli::Mode::Run(args) => Ok(args),
            other => panic!("run argv parsed to {other:?}"),
        }
    }

    /// Parse `run` + `flags` the way `ppslab` does, then run.
    fn run(flags: &[&str]) -> Result<String, String> {
        super::run(&parsed(flags)?, &Sink::default())
    }

    /// A bufferless PPS compared with a shadow switch run beside it.
    struct Compare<'a>(&'a Trace);

    impl WithDemux for Compare<'_> {
        type Out = Comparison;
        fn with<D: Demultiplexor + Clone>(
            self,
            cfg: PpsConfig,
            demux: D,
            _: usize,
        ) -> Result<Comparison, String> {
            compare_bufferless_in(cfg, demux, self.0, &Sink::default()).map_err(|e| e.to_string())
        }
    }

    /// A row read from a shadow switch's log, as `run` built it while it ran
    /// one beside each PPS: the reference the streamed row is held to.
    fn shadow_row(label: &str, cmp: &Comparison) -> String {
        let tails = TailQuantiles::from(&relative_delays(&cmp.pps.log, &cmp.oq)).unwrap();
        format!(
            "{label:<22} {:>10.3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            tails.mean,
            tails.p99,
            tails.p999,
            tails.max,
            cmp.relative_jitter(),
            metrics::max_concentration(&cmp.pps.log),
            cmp.pps_stats().max_plane_queue,
            cmp.relative_delay().pps_undelivered
        )
    }

    /// The rows of `ppslab run` + `flags`, rebuilt beside a shadow switch.
    fn shadow_rows(flags: &[&str]) -> String {
        comparisons(flags)
            .iter()
            .map(|(label, cmp)| shadow_row(label, cmp))
            .collect()
    }

    /// Each row of `ppslab run` + `flags` as a labelled `Comparison`.
    fn comparisons(flags: &[&str]) -> Vec<(String, Comparison)> {
        let args = parsed(flags).unwrap();
        let (n, traffic) = parse(&args.workload).unwrap();
        let cfg = PpsConfig::bufferless(n, args.k, args.r_prime);
        let (trace, algos) = match &args.algo {
            Some(algo) => (
                with_algo(algo, cfg, Build(&traffic)).unwrap(),
                vec![(&algo[..], &algo[..])],
            ),
            None => (traffic.trace(&cfg).unwrap(), TRIO.to_vec()),
        };
        algos
            .into_iter()
            .map(|(label, algo)| (label.into(), with_algo(algo, cfg, Compare(&trace)).unwrap()))
            .collect()
    }

    /// The `ppslab run` lines the row tests cover: the attack and `urt:`
    /// lines, all nine algorithms on a short uniform trace, and the trio
    /// on short stochastic ones.
    fn table_lines() -> Vec<Vec<&'static str>> {
        let mut lines = vec![
            vec![
                "--workload",
                "attack:n=16",
                "--k",
                "8",
                "--rprime",
                "4",
                "--algo",
                "rr",
            ],
            vec!["--workload", "attack:n=16", "--algo", "random:3"],
            vec!["--workload", "urt:n=64,u=2", "--algo", "stale:2"],
            vec!["--workload", "urt:n=8,u=1", "--rprime", "2"],
        ];
        let uniform = "uniform:n=8,load=0.8,seed=5,horizon=300";
        for algo in ALGOS {
            lines.push(vec!["--workload", uniform, "--rprime", "2", "--algo", algo]);
        }
        for trio in [
            "mmpp:n=8,calm=0.1,burst=0.9,horizon=400",
            "onoff:n=8,horizon=400",
            "zipf:n=8,load=0.7,seed=3,horizon=400",
        ] {
            lines.push(vec!["--workload", trio, "--rprime", "2"]);
        }
        lines
    }

    #[test]
    fn every_row_is_the_row_a_shadow_switch_gives() {
        for flags in table_lines() {
            let report = run(&flags).unwrap();
            let (_, rows) = report.split_once(" undeliv\n").unwrap();
            assert_eq!(rows, shadow_rows(&flags), "{flags:?}");
        }
    }

    /// `max_concentration` as it was: a `HashMap` of records keyed by
    /// `(plane, output)`.
    fn hashed_concentration(pps: &RunLog) -> usize {
        let mut counts = std::collections::HashMap::<_, usize>::new();
        for rec in pps.records().filter(|rec| rec.plane().is_some()) {
            *counts.entry((rec.plane(), rec.output)).or_default() += 1;
        }
        counts.into_values().max().unwrap_or(0)
    }

    #[test]
    fn max_concentration_is_the_hashed_count() {
        let mut logs: Vec<RunLog> = table_lines()
            .iter()
            .flat_map(|flags| comparisons(flags))
            .map(|(_, cmp)| cmp.pps.log)
            .collect();
        // e14's oblivious bursts at its three sizes, a few seeds each.
        for n in [16, 32, 64] {
            let trace = crate::e14_random_distribution::oblivious_burst(n);
            for seed in 0..4 {
                let cfg = PpsConfig::bufferless(n, 8, 4);
                let cmp =
                    compare_bufferless_in(cfg, RandomDemux::new(n, seed), &trace, &Sink::default());
                logs.push(cmp.unwrap().pps.log);
            }
        }
        logs.push(RunLog::default());
        for log in &logs {
            assert_eq!(metrics::max_concentration(log), hashed_concentration(log));
        }
    }

    /// Whether any event of `log` or of a log under it is the shadow's.
    fn shadow_recorded(log: &EventLog) -> bool {
        log.events.iter().any(|e| e.engine == Engine::ShadowOq)
            || log.children.iter().any(shadow_recorded)
    }

    #[test]
    fn a_run_drives_one_engine_per_row() {
        let trio = ["--workload", "uniform:n=8,load=0.7,seed=3,horizon=500"];
        let attack = ["--workload", "attack:n=16", "--algo", "rr"];
        for (flags, rows) in [(&trio[..], 3), (&attack[..], 1)] {
            let args = parsed(flags).unwrap();
            let at = |telemetry| {
                let spec = RunSpec {
                    telemetry,
                    ..RunSpec::default()
                };
                pps_core::run::run(&spec, "run", |sink| super::run(&args, sink).unwrap())
            };
            let counted = at(Level::Counters);
            let traffic = counted.output.lines().find(|l| l.starts_with("traffic"));
            let words: Vec<&str> = traffic.unwrap().split_whitespace().collect();
            let cells: u64 = words[2].parse().unwrap();
            let meters = counted.meters.named();
            let arrivals = meters.iter().find(|(name, _)| *name == "arrival");
            assert_eq!(arrivals.unwrap().1, cells * rows, "{flags:?}");
            assert!(!shadow_recorded(&at(Level::Full).log), "{flags:?}");
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
        for algo in ALGOS {
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
