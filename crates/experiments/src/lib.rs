//! # pps-experiments — the per-theorem reproduction suite
//!
//! One experiment per result in the paper. Each experiment builds its
//! traffic, runs the PPS and the shadow output-queued switch on it, and
//! emits a table of *paper-predicted bound* vs *measured value* across a
//! parameter sweep, with its claims about that table ([`Claim`]), from which
//! its verdict is derived. `ppslab` (the CLI binary) runs any subset and
//! prints the tables; EXPERIMENTS.md records the committed outputs. The
//! index is DESIGN.md §4, held to [`EXPERIMENTS`] by a test.

pub mod a1_fault;
mod a2_speedup;
mod a3_discipline;
mod attack;
mod claim;
pub mod cli;
mod e01_partitioned;
mod e02_unpartitioned;
pub mod e03_fd_general;
mod e04_urt;
mod e05_rt;
mod e06_buffered_cpa;
mod e07_buffered_fd;
mod e08_ftd_congestion;
mod e09_lb_violation;
mod e10_cpa;
mod e11_tightness;
mod e12_scaling;
mod e13_crossbar_baseline;
mod e14_random_distribution;
mod e15_buffer_implications;
mod e16_small_buffers;
mod e17_cioq_speedup;
mod e18_regulator_tradeoff;
mod e19_stochastic_tails;
mod e20_heavy_traffic;
mod e21_priority_classes;
mod e22_qps_crossbar;
mod e23_sw_qps;
mod e24_cioq_maximal;
pub mod run;

pub use attack::AttackPoint;
pub use claim::Claim;
use claim::Claims;
use pps_analysis::Table;
use pps_core::run::Sink;

/// The printable outcome of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// Short id (`e1` … `e12`, `a1` …).
    pub id: &'static str,
    /// One-line description referencing the paper result.
    pub title: String,
    /// Result tables (bound vs measured, per sweep point).
    pub tables: Vec<Table>,
    /// Free-form observations (phase logs, caveats).
    pub notes: Vec<String>,
    /// Did every claim hold?
    pub pass: bool,
    /// What the experiment asserts about its tables.
    pub claims: Vec<Claim>,
}

impl ExperimentOutput {
    /// The outcome of experiment `id`: it passes when every claim holds.
    /// This is the one place a verdict is derived.
    fn new(
        id: &'static str,
        title: &str,
        tables: Vec<Table>,
        notes: &[&str],
        claims: Claims,
    ) -> Self {
        let claims = claims.list;
        ExperimentOutput {
            id,
            title: title.to_string(),
            tables,
            notes: notes.iter().map(|n| n.to_string()).collect(),
            pass: claims.iter().all(Claim::holds),
            claims,
        }
    }

    /// Render the experiment as GitHub-flavoured markdown (tables become
    /// pipe tables; notes become a bullet list).
    pub fn render_markdown(&self) -> String {
        let mut out = format!("### {}: {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("- {n}\n"));
        }
        for f in self.claims.iter().filter_map(Claim::failure) {
            out.push_str(&format!("- {f}\n"));
        }
        out.push_str(if self.pass {
            "\n**Verdict: PASS**\n"
        } else {
            "\n**Verdict: FAIL**\n"
        });
        out
    }

    /// Render the experiment as text (tables + notes + verdict).
    pub fn render(&self) -> String {
        let mut out = format!("== {}: {} ==\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("  note: ");
            out.push_str(n);
            out.push('\n');
        }
        for f in self.claims.iter().filter_map(Claim::failure) {
            out.push_str(&format!("  {f}\n"));
        }
        out.push_str(if self.pass {
            "  verdict: PASS (measured on the predicted side of every bound)\n"
        } else {
            "  verdict: FAIL\n"
        });
        out
    }
}

/// The Summary table of EXPERIMENTS.md, generated from the experiments'
/// claims: one row per experiment, its title, its claims and its verdict.
pub fn summary(outputs: &[ExperimentOutput]) -> String {
    let mut out =
        "| Exp | Result | Claims, each at every point of its table | Verdict |\n".to_string();
    out += "|-----|--------|------------------------------------------|---------|\n";
    for o in outputs {
        let claims: Vec<String> = o.claims.iter().map(|c| format!("`{c}`")).collect();
        let (id, verdict) = (o.id.to_uppercase(), if o.pass { "PASS" } else { "FAIL" });
        out += &format!(
            "| {id} | {} | {} | {verdict} |\n",
            o.title,
            claims.join("; ")
        );
    }
    out
}

/// An experiment: its tables, computed as part of the run `sink` records.
pub type Experiment = fn(&Sink) -> ExperimentOutput;

/// Every experiment, in paper order: `(id, experiment)`.
pub const EXPERIMENTS: [(&str, Experiment); 27] = [
    ("e1", e01_partitioned::run),
    ("e2", e02_unpartitioned::run),
    ("e3", e03_fd_general::run),
    ("e4", e04_urt::run),
    ("e5", e05_rt::run),
    ("e6", e06_buffered_cpa::run),
    ("e7", e07_buffered_fd::run),
    ("e8", e08_ftd_congestion::run),
    ("e9", e09_lb_violation::run),
    ("e10", e10_cpa::run),
    ("e11", e11_tightness::run),
    ("e12", e12_scaling::run),
    ("e13", e13_crossbar_baseline::run),
    ("e14", e14_random_distribution::run),
    ("e15", e15_buffer_implications::run),
    ("e16", e16_small_buffers::run),
    ("e17", e17_cioq_speedup::run),
    ("e18", e18_regulator_tradeoff::run),
    ("e19", e19_stochastic_tails::run),
    ("e20", e20_heavy_traffic::run),
    ("e21", e21_priority_classes::run),
    ("e22", e22_qps_crossbar::run),
    ("e23", e23_sw_qps::run),
    ("e24", e24_cioq_maximal::run),
    ("a1", a1_fault::run),
    ("a2", a2_speedup::run),
    ("a3", a3_discipline::run),
];

/// An experiment on the process default: the argless entry point of the
/// benchmark seam (DESIGN.md, "The benchmark's surface").
pub type Runner = fn() -> ExperimentOutput;

/// Every experiment as an argless [`Runner`] over [`pps_core::process`]:
/// a shim of the benchmark seam. The product runs [`EXPERIMENTS`].
pub fn registry() -> Vec<(&'static str, Runner)> {
    fn argless<const I: usize>() -> ExperimentOutput {
        (EXPERIMENTS[I].1)(&pps_core::process::sink())
    }
    macro_rules! runners {
        ($($i:literal)*) => { vec![$((EXPERIMENTS[$i].0, argless::<$i> as Runner)),*] };
    }
    runners!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26)
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use pps_core::run::{RunSpec, Sink};
    use pps_core::telemetry::Level;
    use std::collections::BTreeMap;

    /// What `f` computes in a run at `Level::Full`, and the
    /// `pps_telemetry::summarize` of what the run recorded.
    pub(crate) fn traced<R>(f: impl FnOnce(&Sink) -> R) -> (R, String) {
        let spec = RunSpec {
            telemetry: Level::Full,
            ..RunSpec::default()
        };
        let report = pps_core::run::run(&spec, "test", f);
        (report.output, pps_telemetry::summarize(&report.log))
    }

    /// The `key=value` figures of one summary line.
    pub(crate) struct Figures(BTreeMap<String, String>);

    impl Figures {
        pub(crate) fn text(&self, key: &str) -> &str {
            self.0
                .get(key)
                .unwrap_or_else(|| panic!("no {key}= in {:?}", self.0))
        }

        pub(crate) fn get(&self, key: &str) -> i64 {
            self.text(key).parse().expect("an integer figure")
        }
    }

    /// Each engine run's block in `summary`: its engine, then the figures
    /// of its lines in print order — the header, the sum over all
    /// delivered cells, the sum over the cells at or above p99, the worst
    /// cell's split, its timeline, and the held/loss counts.
    pub(crate) fn blocks(summary: &str) -> Vec<(String, Vec<Figures>)> {
        let mut blocks: Vec<(String, Vec<Figures>)> = Vec::new();
        for line in summary.lines() {
            let figures = || {
                let pairs = line.split_whitespace().filter_map(|t| t.split_once('='));
                Figures(pairs.map(|(k, v)| (k.into(), v.into())).collect())
            };
            if let Some(head) = line.strip_prefix("  run ") {
                let engine = head.split(['(', ')']).nth(1).expect("(engine)");
                blocks.push((engine.into(), vec![figures()]));
            } else if line.starts_with("    ") {
                blocks.last_mut().expect("a block").1.push(figures());
            }
        }
        blocks
    }

    #[test]
    fn design_index_lists_every_experiment_once_in_order() {
        // DESIGN.md §4 is the experiment index; its figure rows (F1, F2)
        // are not experiments.
        let design = include_str!("../../../DESIGN.md");
        let (_, index) = design
            .split_once("## 4. Per-experiment index")
            .expect("DESIGN.md has §4");
        let (index, _) = index.split_once("\n## 5.").expect("§5 follows §4");
        let ids: Vec<String> = index
            .lines()
            .filter_map(|l| l.strip_prefix("| ")?.split(' ').next())
            .filter(|id| {
                let (class, number) = id.split_at(1);
                matches!(class, "E" | "A") && number.parse::<u32>().is_ok()
            })
            .map(str::to_lowercase)
            .collect();
        let registry: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, registry);
    }
}
