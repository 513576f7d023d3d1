//! # pps-experiments — the per-theorem reproduction suite
//!
//! One experiment per result in the paper (see DESIGN.md §4 for the full
//! index). Each experiment builds its traffic, runs the PPS and the shadow
//! output-queued switch on it, and emits a table of *paper-predicted bound*
//! vs *measured value* across a parameter sweep. `ppslab` (the CLI binary)
//! runs any subset and prints the tables; EXPERIMENTS.md records the
//! committed outputs.
//!
//! | id | paper result | module |
//! |----|--------------|--------|
//! | e1 | Theorem 6 — d-partitioned fully-distributed ≥ (R/r−1)·d | `e01_partitioned` |
//! | e2 | Corollary 7 — unpartitioned fully-distributed ≥ (R/r−1)·N | `e02_unpartitioned` |
//! | e3 | Theorem 8 — any fully-distributed ≥ (R/r−1)·N/S | [`e03_fd_general`] |
//! | e4 | Theorem 10 — bufferless u-RT ≥ (1−u'r/R)·u'N/S | `e04_urt` |
//! | e5 | Corollary 11 — real-time distributed ≥ (1−r/R)·N/S | `e05_rt` |
//! | e6 | Theorem 12 — buffered u-RT, S ≥ 2: ≤ u (upper bound) | `e06_buffered_cpa` |
//! | e7 | Theorem 13 — buffered fully-distributed ≥ (1−r/R)·N/S, any buffer | `e07_buffered_fd` |
//! | e8 | Theorem 14 — extended FTD: zero relative delay in congestion | [`e08_ftd_congestion`] |
//! | e9 | Proposition 15 — congestion traffic is not leaky-bucket | `e09_lb_violation` |
//! | e10 | CPA (cited \[14\]) — zero relative delay at S ≥ 2 | `e10_cpa` |
//! | e11 | Iyer–McKeown (cited \[15\]) — Θ((R/r)·N) tightness | `e11_tightness` |
//! | e12 | §1.2 — "the PPS does not scale": delay linear in N to 1024 | `e12_scaling` |
//! | e13 | baseline: PPS vs ideal OQ vs iSLIP input-queued crossbar | `e13_crossbar_baseline` |
//! | e14 | §6 open question — randomized demux delay distribution | `e14_random_distribution` |
//! | e15 | §1.2/§6 — buffers implied by the delay bounds (planes, resequencer, jitter regulator) | `e15_buffer_implications` |
//! | e16 | §4 small-buffer regime — holding without coordination keeps the u-RT bound | `e16_small_buffers` |
//! | e17 | related work — CIOQ crossbar speedup-2 mimicking threshold | `e17_cioq_speedup` |
//! | e18 | §6 — the delay bound as a jitter-regulator buffer bound | `e18_regulator_tradeoff` |
//! | e19 | stochastic heavy traffic — tail relative delay across information classes | `e19_stochastic_tails` |
//! | e20 | heavy-traffic regime — absolute delay diverges, relative delay stays geometric | `e20_heavy_traffic` |
//! | e21 | egress priority queueing — per-class tails, strict priority vs FCFS | `e21_priority_classes` |
//! | e22 | scheduler zoo — QPS-r vs the maximal-matching conflict envelope | `e22_qps_crossbar` |
//! | e23 | scheduler zoo — SW-QPS sliding window: batch quality, zero batch delay | `e23_sw_qps` |
//! | e24 | scheduler zoo — maximal matching with speedup (Cogill–Lall envelope) | `e24_cioq_maximal` |
//! | a1 | §3 fault-tolerance motivation — plane failure ablation | [`a1_fault`] |
//! | a2 | CPA speedup threshold ablation (S sweep across 2) | `a2_speedup` |
//! | a3 | output-discipline ablation | `a3_discipline` |

pub mod a1_fault;
mod a2_speedup;
mod a3_discipline;
pub mod cli;
mod e01_partitioned;
mod e02_unpartitioned;
pub mod e03_fd_general;
mod e04_urt;
mod e05_rt;
mod e06_buffered_cpa;
mod e07_buffered_fd;
pub mod e08_ftd_congestion;
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

use pps_analysis::Table;

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
    /// Did the measured values land on the correct side of every bound?
    pub pass: bool,
}

impl ExperimentOutput {
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
        out.push_str(if self.pass {
            "  verdict: PASS (measured on the predicted side of every bound)\n"
        } else {
            "  verdict: FAIL\n"
        });
        out
    }
}

/// An experiment entry point.
pub type Runner = fn() -> ExperimentOutput;

/// All experiments, in paper order: `(id, runner)`.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("e1", e01_partitioned::run as Runner),
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
    ]
}
