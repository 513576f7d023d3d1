//! `ppslab`'s command line, parsed once.
//!
//! [`parse`] makes one left-to-right pass over argv against one flag table
//! and returns a typed [`Invocation`]: the [`RunSpec`] every mode runs on,
//! the trace path, and the [`Mode`] to run. Nothing else reads argv, so a token
//! consumed as a flag's value is never read again as a flag, an id or a
//! subcommand. Flags come in any order, before or after the subcommand
//! word; the tokens that do not start with `--` are either the one word
//! `run` / `chaos` or experiment ids. Each mode's arguments are filled
//! from the flags the pass gave: [`RunArgs`] for `run`, [`ChaosOptions`]
//! (the struct the chaos harness tests build directly) for `chaos`.

use crate::run::RunArgs;
use pps_chaos::cli::ChaosOptions;
use pps_core::run::RunSpec;
use pps_core::telemetry::Level;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// The modes of a command line; a flag's scope is a set of them (the
/// empty set: every mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    List,
    Experiments,
    Run,
    Chaos,
}

/// Every flag `ppslab` has: name, whether the next token is its value, the
/// modes it applies to. README.md's flag table and the usage block at the
/// top of `bin/ppslab.rs` are pinned against it (tests below).
const FLAGS: &[(&str, bool, &[Kind])] = &[
    // The run's settings: every mode, any position.
    ("--jobs", true, &[]),
    ("--telemetry", true, &[]),
    ("--trace-out", true, &[]),
    ("--list", false, &[Kind::List]),
    ("--csv", false, &[Kind::Experiments]),
    ("--markdown", false, &[Kind::Experiments]),
    ("--out", true, &[Kind::Experiments]),
    ("--bench-json", true, &[Kind::Experiments]),
    ("--workload", true, &[Kind::Run]),
    ("--k", true, &[Kind::Run]),
    ("--rprime", true, &[Kind::Run]),
    ("--algo", true, &[Kind::Run]),
    ("--save-trace", true, &[Kind::Run]),
    // The campaign flags: `ChaosOptions`.
    ("--seed", true, &[Kind::Chaos]),
    ("--cases", true, &[Kind::Chaos]),
    ("--budget-slots", true, &[Kind::Chaos]),
    ("--repro-out", true, &[Kind::Chaos]),
    ("--case", true, &[Kind::Chaos]),
    ("--plan", true, &[Kind::Chaos]),
    ("--truncate-at", true, &[Kind::Chaos]),
    ("--inject-leak", true, &[Kind::Chaos]),
];

fn index_of(name: &str) -> Option<usize> {
    FLAGS.iter().position(|f| f.0 == name)
}

/// Which experiments to run and how to print them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// The selected ids, in registry order (no ids on argv: all).
    pub ids: Vec<&'static str>,
    /// `--csv`: also print each table as CSV.
    pub csv: bool,
    /// `--markdown`: print pipe tables instead of text.
    pub markdown: bool,
    /// `--out`: also write each table as a CSV file into this directory.
    pub out: Option<PathBuf>,
    /// `--bench-json`: time experiments one by one, record them here.
    pub bench_json: Option<PathBuf>,
}

/// What to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `--list`: print the registered experiment ids.
    List,
    /// Run experiments and print their tables.
    Experiments(ExperimentArgs),
    /// `run`: one workload through one geometry, against the shadow switch.
    Run(RunArgs),
    /// `chaos`: a fuzzing campaign.
    Chaos(ChaosOptions),
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invocation {
    /// The run every mode runs on: `--jobs` (default: every available
    /// core; tables are byte-identical at any budget) and `--telemetry`
    /// (default off). Stepping is always the product's skip-ahead.
    pub spec: RunSpec,
    /// `--trace-out`: where the merged event stream goes.
    pub trace_out: Option<PathBuf>,
    /// The mode and its own arguments.
    pub mode: Mode,
}

/// Why `ppslab` stops with exit code 2.
#[derive(Debug)]
pub enum CliError {
    /// argv is not a command line of `ppslab`, or the run refused the
    /// input it names (a bad spec, an impossible geometry).
    Refused(String),
    /// Writing what a flag asked for failed: the flag and its path, the
    /// underlying error.
    Io(String, std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Refused(msg) => f.write_str(msg),
            CliError::Io(what, source) => write!(f, "{what}: {source}"),
        }
    }
}

/// The flags argv gave, indexed like [`FLAGS`] (a switch holds `""`).
struct Given<'a>(Vec<Option<&'a str>>);

impl<'a> Given<'a> {
    fn text(&self, name: &str) -> Option<&'a str> {
        self.0[index_of(name).expect("a flag of the table")]
    }

    fn number<T: FromStr<Err: fmt::Display>>(&self, name: &str) -> Result<Option<T>, CliError> {
        let parsed = self.text(name).map(str::parse).transpose();
        parsed.map_err(|e| CliError::Refused(format!("{name}: {e}")))
    }
}

fn usage<T>(msg: String) -> Result<T, CliError> {
    Err(CliError::Refused(msg))
}

/// Parse `ppslab`'s arguments (argv without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, CliError> {
    // The one pass: every token is a flag, a flag's value, or a word.
    let mut given = Given(vec![None; FLAGS.len()]);
    let mut words: Vec<&str> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            words.push(arg);
            continue;
        }
        let Some(i) = index_of(arg) else {
            return usage(format!("unknown flag {arg}"));
        };
        if given.0[i].is_some() {
            return usage(format!("{arg} is given twice"));
        }
        let value = if FLAGS[i].1 { it.next() } else { Some("") };
        given.0[i] = match value {
            None => return usage(format!("{arg} needs a value")),
            Some(v) if index_of(v).is_some() => {
                return usage(format!(
                    "{arg} needs a value ({v}, which follows, is a flag)"
                ));
            }
            value => value,
        };
    }

    let kind = match words.as_slice() {
        ["run"] => Kind::Run,
        ["chaos"] => Kind::Chaos,
        _ if words.iter().any(|w| matches!(*w, "run" | "chaos")) => {
            return usage("a subcommand takes flags only: no ids, no second subcommand".into());
        }
        _ if given.text("--list").is_some() => Kind::List,
        _ => Kind::Experiments,
    };
    for ((name, _, modes), _) in FLAGS.iter().zip(&given.0).filter(|(_, v)| v.is_some()) {
        if !modes.is_empty() && !modes.contains(&kind) {
            return usage(format!(
                "{name} does not apply in {kind:?} mode (it is a flag of {modes:?})"
            ));
        }
    }
    if kind == Kind::List && !words.is_empty() {
        return usage(format!(
            "experiment ids ({}) do not apply in {kind:?} mode",
            words.join(" ")
        ));
    }

    let cores = || std::thread::available_parallelism().map_or(1, usize::from);
    let spec = RunSpec {
        jobs: given.number("--jobs")?.unwrap_or_else(cores).max(1),
        telemetry: match given.text("--telemetry") {
            None | Some("off") => Level::Off,
            Some("counters") => Level::Counters,
            Some("full") => Level::Full,
            Some(v) => {
                return usage(format!(
                    "--telemetry must be off, counters, or full (got {v:?})"
                ))
            }
        },
        ..RunSpec::default()
    };
    let mode = match kind {
        Kind::List => Mode::List,
        Kind::Experiments => Mode::Experiments(ExperimentArgs {
            ids: select(&words)?,
            csv: given.text("--csv").is_some(),
            markdown: given.text("--markdown").is_some(),
            out: given.text("--out").map(PathBuf::from),
            bench_json: given.text("--bench-json").map(PathBuf::from),
        }),
        Kind::Run => Mode::Run(RunArgs {
            workload: match given.text("--workload") {
                Some(spec) => spec.into(),
                None => return usage("run needs --workload SPEC".into()),
            },
            k: given.number("--k")?.unwrap_or(8),
            r_prime: given.number("--rprime")?.unwrap_or(4),
            algo: given.text("--algo").map(String::from),
            save_trace: given.text("--save-trace").map(PathBuf::from),
        }),
        Kind::Chaos => {
            let default = ChaosOptions::default();
            let only_case = given.number("--case")?;
            for flag in ["--plan", "--truncate-at"] {
                if given.text(flag).is_some() && only_case.is_none() {
                    return usage(format!(
                        "{flag} replays one case and requires --case <index>"
                    ));
                }
            }
            let cases = given.number("--cases")?.unwrap_or(default.cases);
            if cases == 0 {
                return usage("--cases must be at least 1".into());
            }
            let plan = given.text("--plan").map(|path| {
                pps_core::fault::load(path.as_ref())
                    .map_err(|e| CliError::Refused(format!("bad fault plan: {e}")))
            });
            Mode::Chaos(ChaosOptions {
                seed: given.number("--seed")?.unwrap_or(default.seed),
                cases,
                budget_slots: given
                    .number("--budget-slots")?
                    .unwrap_or(default.budget_slots),
                repro_out: given
                    .text("--repro-out")
                    .map_or(default.repro_out, PathBuf::from),
                only_case,
                plan_override: plan.transpose()?,
                truncate_at: given.number("--truncate-at")?,
                inject_leak: given
                    .number("--inject-leak")?
                    .unwrap_or(default.inject_leak),
            })
        }
    };
    let trace_out = given.text("--trace-out").map(PathBuf::from);
    Ok(Invocation {
        spec,
        trace_out,
        mode,
    })
}

/// The registry's ids that `words` names, in registry order; all of them
/// when `words` is empty.
fn select(words: &[&str]) -> Result<Vec<&'static str>, CliError> {
    let known: Vec<&'static str> = crate::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    if let Some(stranger) = words.iter().find(|w| !known.contains(w)) {
        return usage(format!(
            "unknown experiment id {stranger} (--list prints the known ids)"
        ));
    }
    Ok(known
        .into_iter()
        .filter(|id| words.is_empty() || words.contains(id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::rng::SplitMix64;
    use std::collections::BTreeSet;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn ok(words: &[&str]) -> Invocation {
        parse(&argv(words)).unwrap_or_else(|e| panic!("{words:?}: {e}"))
    }

    /// `words` is refused as a usage error whose message contains `needle`.
    fn refused(words: &[&str], needle: &str) {
        match parse(&argv(words)) {
            Err(CliError::Refused(msg)) => assert!(msg.contains(needle), "{words:?}: {msg}"),
            other => panic!("{words:?} parsed to {other:?}"),
        }
    }

    // One test per misparse class the hand-rolled scanners had; each of
    // these command lines was accepted (or died elsewhere) before.

    #[test]
    fn a_flag_is_never_consumed_as_a_value() {
        // Used to create a directory called `--csv` *and* turn CSV on.
        refused(&["--out", "--csv", "e1"], "--out needs a value");
        refused(&["run", "--algo", "--k", "8"], "--algo needs a value");
        // A consumed value is not read again: `run` here is a path.
        let inv = ok(&["--out", "run", "e1"]);
        assert!(matches!(inv.mode, Mode::Experiments(e) if e.out == Some("run".into())));
    }

    #[test]
    fn a_repeated_flag_is_refused() {
        // Used to keep `full` silently.
        refused(
            &["--telemetry", "full", "--telemetry", "off"],
            "--telemetry is given twice",
        );
        refused(&["--csv", "e1", "--csv"], "--csv is given twice");
        refused(&["chaos", "--seed", "1", "--seed", "2"], "given twice");
    }

    #[test]
    fn a_flag_of_another_mode_is_refused() {
        // Used to be accepted and ignored.
        refused(&["--k", "8", "e1"], "--k does not apply");
        refused(&["run", "--csv"], "--csv does not apply in Run mode");
        refused(
            &["chaos", "--algo", "rr"],
            "--algo does not apply in Chaos mode",
        );
        refused(
            &["--list", "--markdown"],
            "--markdown does not apply in List mode",
        );
        refused(
            &["--seed", "3"],
            "--seed does not apply in Experiments mode",
        );
        refused(
            &["--workload", "uniform:n=8", "e1"],
            "--workload does not apply in Experiments mode",
        );
        refused(&["run", "e1"], "a subcommand takes flags only");
        refused(&["run", "--k", "8"], "run needs --workload SPEC");
    }

    /// The two ad-hoc modes `run` replaced are refused rather than read as
    /// something else (the flags only they had are unknown flags now).
    #[test]
    fn the_old_ad_hoc_spellings_are_refused() {
        refused(&["custom"], "unknown experiment id custom");
        refused(&["custom", "--algo", "rr"], "--algo does not apply");
        refused(
            &["--workload", "uniform:n=8"],
            "--workload does not apply in Experiments mode",
        );
    }

    #[test]
    fn settings_are_read_in_every_mode_and_position() {
        // `--jobs 2 chaos --cases 2` used to die on "unknown flag --cases".
        let before = ok(&["--jobs", "2", "chaos", "--cases", "2"]);
        let after = ok(&["chaos", "--cases", "2", "--jobs", "2"]);
        assert_eq!(before, after);
        assert_eq!(before.spec.jobs, 2);
        assert!(matches!(&before.mode, Mode::Chaos(o) if o.cases == 2));
        // A subcommand's `... --telemetry full` used to be an unknown flag.
        let inv = ok(&[
            "--trace-out",
            "t.json",
            "run",
            "--workload",
            "attack",
            "--algo",
            "pfr",
            "--telemetry",
            "full",
        ]);
        assert_eq!(inv.spec.telemetry, Level::Full);
        assert_eq!(inv.trace_out, Some(PathBuf::from("t.json")));
        let pfr = Some("pfr".to_string());
        assert!(matches!(&inv.mode, Mode::Run(r) if r.algo == pfr && (r.k, r.r_prime) == (8, 4)));
    }

    #[test]
    fn stepping_is_not_a_flag_of_either_grammar() {
        refused(&["--stepping", "dense", "e1"], "unknown flag --stepping");
        refused(&["chaos", "--stepping", "skip"], "unknown flag --stepping");
    }

    #[test]
    fn numbers_and_ids_are_checked() {
        refused(&["--jobs", "banana"], "--jobs: invalid digit");
        refused(&["run", "--workload", "uniform:n=8", "--k", "-1"], "--k:");
        refused(
            &["run", "--workload", "attack", "--rprime", "many"],
            "--rprime:",
        );
        refused(&["e1", "e99"], "unknown experiment id e99 (--list");
        refused(&["chaos", "--cases", "many"], "--cases: invalid digit");
        // Ids select in registry order, whatever order argv names them in.
        let inv = ok(&["e12", "--csv", "e2", "e12"]);
        assert!(matches!(&inv.mode, Mode::Experiments(e) if e.csv && e.ids == ["e2", "e12"]));
        assert!(matches!(ok(&[]).mode, Mode::Experiments(e) if e.ids.len() == 27));
    }

    // The campaign flags fill `ChaosOptions` in the same pass.

    #[test]
    fn parse_happy_path() {
        let inv = ok(&[
            "chaos",
            "--seed",
            "7",
            "--cases",
            "12",
            "--budget-slots",
            "99",
        ]);
        let want = ChaosOptions {
            seed: 7,
            cases: 12,
            budget_slots: 99,
            ..ChaosOptions::default()
        };
        assert_eq!(inv.mode, Mode::Chaos(want));
    }

    #[test]
    fn unknown_flag_is_typed() {
        refused(&["chaos", "--bogus"], "unknown flag --bogus");
    }

    #[test]
    fn plan_requires_case() {
        refused(&["chaos", "--plan", "x.csv"], "--plan replays one case");
        refused(
            &["chaos", "--truncate-at", "5"],
            "--truncate-at replays one case",
        );
    }

    #[test]
    fn missing_plan_file_is_typed() {
        let argv = ["chaos", "--case", "0", "--plan", "/nonexistent/plan.csv"];
        refused(&argv, "bad fault plan");
    }

    #[test]
    fn malformed_value_is_typed() {
        refused(&["chaos", "--cases", "many"], "--cases: invalid digit");
        refused(&["chaos", "--cases", "0"], "--cases must be at least 1");
    }

    /// Split `args` where the pass does: a value flag and its value are
    /// one unit, everything else a unit of its own.
    fn units(args: &[String]) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut unit = vec![arg.clone()];
            if index_of(arg).is_some_and(|i| FLAGS[i].1) {
                unit.extend(it.next().cloned());
            }
            out.push(unit);
        }
        out
    }

    #[test]
    fn parse_never_panics_and_is_position_independent() {
        const PLAN: &str = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../chaos-repros/case-001/plan.csv"
        );
        let values = [
            "1",
            "2",
            "8",
            "0",
            "83",
            "full",
            "off",
            "counters",
            "rr",
            "ftd:3",
            "stale:0",
            "attack",
            "uniform:n=8",
            "t.json",
            "out",
            PLAN,
            "banana",
            "-3",
            "",
            "18446744073709551616",
            "run",
            "chaos",
            "e1",
            "--",
            "--csv",
            "--seed",
        ];
        let words = [
            "e1",
            "e12",
            "a3",
            "e99",
            "run",
            "chaos",
            "perf",
            "-x",
            "",
            "--bogus",
            "--stepping",
            "--jobs=2",
            "--",
        ];
        let mut rng = SplitMix64::new(0x00C1_1F22);
        let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
        let (mut accepted, mut modes) = (0, std::collections::HashSet::new());
        for _ in 0..10_000 {
            // Most argvs lean towards one mode so that many of them parse.
            let lean = [None, Some(Kind::Run), Some(Kind::Chaos)][pick(&mut rng, 3)];
            let mut args: Vec<String> = lean
                .iter()
                .map(|k| format!("{k:?}").to_lowercase())
                .filter(|_| rng.below(8) > 0)
                .collect();
            for _ in 0..pick(&mut rng, 6) {
                match rng.below(10) {
                    0..=6 => {
                        let (name, takes_value, modes) = FLAGS[pick(&mut rng, FLAGS.len())];
                        if lean.is_some_and(|k| !modes.contains(&k)) && rng.below(8) > 0 {
                            continue;
                        }
                        args.push(name.to_string());
                        if takes_value && rng.below(16) > 0 {
                            args.push(values[pick(&mut rng, values.len())].to_string());
                        }
                    }
                    7..=8 => args.push(words[pick(&mut rng, words.len())].to_string()),
                    _ => args.push(values[pick(&mut rng, values.len())].to_string()),
                }
            }
            let Ok(first) = parse(&args) else { continue };
            accepted += 1;
            modes.insert(std::mem::discriminant(&first.mode));
            let mut shuffled = units(&args);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, pick(&mut rng, i + 1));
            }
            let shuffled: Vec<String> = shuffled.into_iter().flatten().collect();
            let again =
                parse(&shuffled).unwrap_or_else(|e| panic!("{args:?} -> {shuffled:?}: {e}"));
            assert_eq!(again, first, "{args:?} -> {shuffled:?}");
        }
        assert!(accepted >= 1_000, "only {accepted} argvs parsed");
        assert_eq!(modes.len(), 4, "some mode never parsed");
    }

    /// ROADMAP 7(iii), the workload half: a spec value its generator would
    /// `assert!` on, a key no family has, a geometry too small for the
    /// Theorem 10 burst — each is an `Err` from `run`, drawn, like the
    /// argvs above, from the chaos RNG; a panic fails the test.
    #[test]
    fn out_of_range_workload_values_are_errors_not_panics() {
        const P: &[&str] = &["-0.5", "1.0001", "2", "nan", "-inf"];
        const RATE: &[&str] = &["0", "-0.5", "1.0001", "2", "nan", "inf"];
        let keyed: &[(&str, &str, &[&str])] = &[
            ("uniform", "load", P),
            ("zipf", "load", P),
            ("zipf", "flows", &["0"]),
            ("zipf", "s", &["0", "-2", "nan", "inf"]),
            ("mmpp", "calm", P),
            ("mmpp", "burst", P),
            ("mmpp", "calm_exit", RATE),
            ("mmpp", "burst_exit", RATE),
            ("onoff", "on", RATE),
            ("onoff", "off", RATE),
            ("shaped", "load", P),
            ("shaped", "den", &["0"]),
            ("shaped", "burst", &["0"]),
            ("cbr", "period", &["0", "-1"]),
            ("congestion", "senders", &["0", "1", "9", "99"]),
            ("urt", "u", &["0", "-1", "4611686018427387905"]),
        ];
        // Whole specs: (spec, what the refusal names).
        let whole: &[(&str, &str)] = &[
            ("congestion:n=4,senders=5", "senders"),
            ("congestion:n=1", "senders"),
            // N < K = 8: u'*N/K rounds down to no coordinated input.
            ("urt:n=4", "u'*N/K"),
            ("urt:n=3,u=2", "u'*N/K"),
            // Each of these was accepted and ignored.
            ("attack:seed=3", "seed"),
            ("attack:zz", "zz"),
            ("urt:u=1,horizon=9", "horizon"),
        ];
        let mut rng = SplitMix64::new(0x0BAD_5BEC);
        let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
        for _ in 0..2_000 {
            let (spec, key) = if rng.below(4) == 0 {
                let (spec, key) = whole[pick(&mut rng, whole.len())];
                (spec.to_string(), key)
            } else {
                let (family, key, bad) = keyed[pick(&mut rng, keyed.len())];
                let mut kvs = vec![format!("{key}={}", bad[pick(&mut rng, bad.len())])];
                if rng.below(2) == 0 {
                    kvs.insert(pick(&mut rng, 2), format!("seed={}", rng.below(99)));
                }
                (format!("{family}:{}", kvs.join(",")), key)
            };
            let mut args = argv(&["--workload", &spec]);
            if rng.below(2) == 0 {
                args.extend(argv(&["--algo", "rr"]));
            }
            args.insert(pick(&mut rng, args.len() / 2 + 1) * 2, "run".into());
            let refusal = match parse(&args)
                .unwrap_or_else(|e| panic!("{args:?}: {e}"))
                .mode
            {
                Mode::Run(run) => crate::run::run(&run, &pps_core::run::Sink::default()),
                other => panic!("{args:?} parsed to {other:?}"),
            };
            let msg = refusal.expect_err(&spec);
            assert!(msg.contains(key), "{spec}: {msg}");
        }
    }

    /// The `--flag` tokens of `text`.
    fn flags_in(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| t.starts_with("--") && t.len() > 2)
            .collect()
    }

    #[test]
    fn readme_documents_exactly_the_flag_table() {
        let readme = include_str!("../../../README.md");
        let mut documented = BTreeSet::new();
        for row in readme
            .lines()
            .skip_while(|l| !l.starts_with("| flag | effect |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
        {
            // First cell; `\|` is an escaped pipe inside a code span.
            let cell = row.replace("\\|", "/");
            let cell = cell.split('|').nth(1).expect("row has a first cell");
            // Odd pieces of a split on backticks are the code spans.
            for span in cell.split('`').skip(1).step_by(2) {
                let mut parts = span.split_whitespace();
                let name = parts.next().expect("code span names a flag");
                let i = index_of(name).unwrap_or_else(|| panic!("README documents {name}"));
                assert_eq!(parts.next().is_some(), FLAGS[i].1, "{name}");
                documented.insert(FLAGS[i].0);
            }
        }
        let table: BTreeSet<&str> = FLAGS.iter().map(|f| f.0).collect();
        assert_eq!(documented, table);
    }

    /// The `ppslab` command lines in the fenced blocks of `doc` — `ppslab`
    /// or a path to it first on the line, after `cargo run … --bin`, or
    /// after a report's `key :` — as the words after `ppslab` (and after
    /// cargo's `--`), with `\` continuations joined, a trailing `# comment`
    /// dropped and `"…"` quotes taken off.
    fn command_lines(doc: &str) -> Vec<Vec<String>> {
        let (mut lines, mut fenced, mut open) = (Vec::new(), false, None::<String>);
        for line in doc.lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let text = line.split(" #").next().unwrap_or_default().to_string() + " ";
            let head = match open.take() {
                Some(head) => head + " " + &text,
                None if fenced => match text.split_once("ppslab ") {
                    Some((before, rest))
                        if before.trim().is_empty()
                            || before.ends_with('/')
                            || [":", "--bin"]
                                .iter()
                                .any(|t| before.trim_end().ends_with(t)) =>
                    {
                        rest.to_string()
                    }
                    _ => continue,
                },
                None => continue,
            };
            match head.trim_end().strip_suffix('\\') {
                Some(more) => open = Some(more.to_string()),
                None => lines.push(head),
            }
        }
        lines
            .iter()
            .map(|l| {
                let words = l
                    .split_whitespace()
                    .map(|w| w.trim_matches('"').to_string());
                words.skip_while(|w| w == "--").collect()
            })
            .collect()
    }

    #[test]
    fn every_documented_command_line_parses() {
        // A relative path in the docs is relative to the repository root.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let mut checked = 0;
        for doc in [
            include_str!("../../../README.md"),
            include_str!("../../../EXPERIMENTS.md"),
        ] {
            for mut args in command_lines(doc) {
                if let Some(i) = args.iter().position(|a| a == "--plan") {
                    args[i + 1] = format!("{root}{}", args[i + 1]);
                }
                if let Err(e) = parse(&args) {
                    panic!("a documented command line is refused: ppslab {args:?}: {e}");
                }
                checked += 1;
            }
        }
        assert!(checked >= 20, "only {checked} command lines found");
    }

    #[test]
    fn every_documented_run_line_agrees_with_its_attribution() {
        let (mut agreed, mut lossy) = (0, 0);
        for doc in [
            include_str!("../../../README.md"),
            include_str!("../../../EXPERIMENTS.md"),
        ] {
            // `replay:path=capture.csv` needs a capture file.
            for mut args in command_lines(doc) {
                let run = args.first().is_some_and(|a| a == "run");
                if !run || args.iter().any(|a| a.contains("replay:")) {
                    continue;
                }
                if !args.iter().any(|a| a == "--telemetry") {
                    args.extend(["--telemetry".into(), "full".into()]);
                }
                let invocation = parse(&args).expect("a documented line parses");
                let Mode::Run(run) = &invocation.mode else {
                    panic!("{args:?} is a run");
                };
                let report =
                    pps_core::run::run(&invocation.spec, "run", |sink| crate::run::run(run, sink));
                let table = report.output.expect("a documented run runs");
                let summary = pps_telemetry::summarize(&report.log);
                let blocks = crate::tests::blocks(&summary);
                if report.log.overflowed > 0 {
                    // A scope past its 2^20-event ring has lost arrivals,
                    // so it prints no OQ-relative figures.
                    assert!(blocks.is_empty() && summary.contains("lost to ring overflow"));
                    lossy += 1;
                    continue;
                }
                // A row ends in mean, p99, p999, max, jitter, conc, hwm and
                // undeliv; its label may hold spaces.
                let rows: Vec<Vec<&str>> = table
                    .lines()
                    .skip_while(|l| !l.starts_with("algorithm "))
                    .skip(1)
                    .map(|row| {
                        let words: Vec<&str> = row.split_whitespace().collect();
                        let c = &words[words.len() - 8..];
                        vec![c[0], c[1], c[3], c[4]]
                    })
                    .collect();
                let figures: Vec<Vec<&str>> = blocks
                    .iter()
                    .map(|(_, lines)| {
                        let head = &lines[0];
                        let keys = ["mean", "p99", "max", "jitter"];
                        keys.iter().map(|key| head.text(key)).collect()
                    })
                    .collect();
                assert_eq!(rows, figures, "ppslab {args:?}:\n{table}{summary}");
                agreed += 1;
            }
        }
        // The zipf line's scope is the lossy one.
        assert_eq!((agreed, lossy), (7, 1));
    }

    #[test]
    fn usage_block_names_exactly_the_flag_table() {
        let source = include_str!("bin/ppslab.rs");
        let usage: String = source
            .lines()
            .skip_while(|l| !l.starts_with("//! ```text"))
            .skip(1)
            .take_while(|l| !l.starts_with("//! ```"))
            .collect::<Vec<_>>()
            .join("\n");
        let table: BTreeSet<&str> = FLAGS.iter().map(|f| f.0).collect();
        assert_eq!(flags_in(&usage), table);
    }
}
