//! Determinism and endurance: a run is a pure function of
//! (config, trace, seed) — the property the state-probing adversary and
//! every golden number in this repository stand on — and the engines stay
//! correct over long horizons.

use pps_analysis::compare_bufferless_in;
use pps_core::prelude::*;
use pps_reference::checker::check_flow_order;
use pps_switch::demux::{CpaDemux, RandomDemux, RoundRobinDemux, StaleLeastLoadedDemux};
use pps_switch::BufferlessPps;
use pps_traffic::gen::{BernoulliGen, OnOffGen};

fn logs_equal(a: &RunLog, b: &RunLog) -> bool {
    a.records() == b.records()
}

#[test]
fn identical_runs_produce_identical_logs() {
    let (n, k, r_prime) = (8, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = OnOffGen::uniform(8.0, 0.8, 99).trace(n, 1_000);
    let a = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    let b = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    assert!(logs_equal(&a.log, &b.log));
    assert_eq!(a.stats, b.stats);
}

#[test]
fn randomized_demux_is_deterministic_given_its_seed() {
    let (n, k, r_prime) = (8, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = BernoulliGen::uniform(0.9, 4).trace(n, 800);
    let a = BufferlessPps::new(cfg, RandomDemux::new(n, 1234))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    let b = BufferlessPps::new(cfg, RandomDemux::new(n, 1234))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    let c = BufferlessPps::new(cfg, RandomDemux::new(n, 1235))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    assert!(logs_equal(&a.log, &b.log));
    assert!(
        !logs_equal(&a.log, &c.log),
        "different seeds should route at least one cell differently"
    );
}

#[test]
fn urt_runs_are_deterministic() {
    let (n, k, r_prime) = (8, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = OnOffGen::uniform(6.0, 0.7, 5).trace(n, 600);
    let a = BufferlessPps::new(cfg, StaleLeastLoadedDemux::new(n, k, 3))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    let b = BufferlessPps::new(cfg, StaleLeastLoadedDemux::new(n, k, 3))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    assert!(logs_equal(&a.log, &b.log));
}

#[test]
fn soak_long_horizon_full_load() {
    // ~640k cells through a saturated switch: obligations must hold at
    // scale, not just in toy runs.
    let (n, k, r_prime) = (32, 16, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = BernoulliGen::uniform(1.0, 8).trace(n, 20_000);
    assert_eq!(trace.len(), 32 * 20_000);
    let run = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k))
        .and_then(|mut pps| pps.run(&trace))
        .unwrap();
    assert_eq!(run.log.undelivered(), 0);
    assert_eq!(run.stats.dropped, 0);
    assert!(check_flow_order(&run.log).is_empty());
    // Conservation: every line acquisition corresponds to a carried cell.
    assert_eq!(run.stats.input_line_uses, trace.len() as u64);
    assert_eq!(run.stats.output_line_uses, trace.len() as u64);
}

#[test]
fn registry_tables_identical_across_job_counts() {
    // The sweep executor's whole contract: whatever the worker budget,
    // every experiment renders byte-identically. This is what lets ppslab
    // default to all cores without touching a single golden number.
    use pps_core::run::{self, RunSpec};
    use pps_experiments::EXPERIMENTS;
    // Each experiment followed by a blank line, as `ppslab` prints them.
    let render_all = |jobs: usize| -> String {
        let spec = RunSpec {
            jobs,
            ..RunSpec::default()
        };
        EXPERIMENTS
            .iter()
            .map(|&(id, experiment)| run::run(&spec, id, experiment).output.render() + "\n")
            .collect()
    };
    let assert_same = |what: &str, ours: &str, theirs: &str| {
        if ours != theirs {
            let diff = ours
                .lines()
                .zip(theirs.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| {
                    format!(
                        "first differing line ({}):\n  jobs=1: {a}\n  {what}: {b}",
                        i + 1
                    )
                })
                .unwrap_or_else(|| "outputs differ in length only".into());
            panic!("rendered tables differ between jobs=1 and {what}; {diff}");
        }
    };
    let serial = render_all(1);
    let parallel = render_all(8);
    assert_same("jobs=8", &serial, &parallel);

    // The same rendering is the committed behavioural contract: the fenced
    // block under "## Full committed output" in EXPERIMENTS.md is `ppslab`
    // stdout, regenerated only by a PR that means to move a table.
    let doc = include_str!("../EXPERIMENTS.md");
    let (_, rest) = doc
        .split_once("## Full committed output\n\n```\n")
        .expect("EXPERIMENTS.md has a fenced block under `## Full committed output`");
    let (committed, _) = rest.split_once("```\n").expect("the block is closed");
    assert_same("EXPERIMENTS.md", &serial, committed);
}

#[test]
fn soak_cpa_mimics_at_scale() {
    let (n, k, r_prime) = (16, 8, 4);
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    let trace = BernoulliGen::uniform(0.98, 9).trace(n, 30_000);
    let cmp =
        compare_bufferless_in(cfg, CpaDemux::new(n, k, r_prime), &trace, &Sink::default()).unwrap();
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    assert!(rd.max <= 0, "CPA drifted at scale: {}", rd.max);
}
