//! A3 — output-discipline ablation. The paper's lower bounds hold for any
//! no-drop output policy (Lemma 4 is discipline-independent), while its
//! upper bounds target a globally-FCFS reference. We run one algorithm
//! under all three output disciplines and measure what each trades:
//!
//! * `FlowFifo` — per-flow order, work-conserving among eligible flows;
//! * `GlobalFcfs` — exact FCFS mimicking, may idle waiting for stragglers;
//! * `Greedy` — maximal output utilization, may reorder flows (model
//!   violation; quantified via the order checker).

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_reference::checker::check_flow_order;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::gen::OnOffGen;

/// One discipline point: `(max rel delay, mean rel delay, reorder count)`.
fn point(
    n: usize,
    k: usize,
    r_prime: usize,
    d: OutputDiscipline,
    trace: &Trace,
    sink: &Sink,
) -> (i64, f64, usize) {
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_discipline(d);
    let cmp = compare_bufferless_in(cfg, RoundRobinDemux::new(n, k), trace, sink).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    let reorders = check_flow_order(&cmp.pps.log)
        .iter()
        .filter(|v| matches!(v, pps_reference::checker::Violation::FlowReorder { .. }))
        .count();
    (rd.max, rd.mean, reorders)
}

/// Run the ablation.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (16, 8, 4);
    let trace = OnOffGen::uniform(12.0, 0.75, 55).trace(n, 3_000);
    let mut table = Table::new(
        format!("Output disciplines at N={n}, K={k}, r'={r_prime}, bursty on/off load 0.75"),
        &[
            "discipline",
            "max rel delay",
            "mean rel delay",
            "flow reorders",
        ],
    );
    let plan = SweepPlan::new_in(
        "a3",
        vec![
            OutputDiscipline::FlowFifo,
            OutputDiscipline::GlobalFcfs,
            OutputDiscipline::Greedy,
        ],
        sink,
    );
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, &trace, pt.sink));
    let (ff, gf, gr) = (results[0], results[1], results[2]);
    for (name, (max, mean, reorders)) in [("flow-fifo", ff), ("global-fcfs", gf), ("greedy", gr)] {
        table.row_display(&[
            name.to_string(),
            max.to_string(),
            format!("{mean:.2}"),
            reorders.to_string(),
        ]);
    }
    // Order-preserving disciplines must not reorder; global FCFS pays (or
    // matches) delay relative to greedy.
    let mut claims = Claims::default();
    claims.at("the three disciplines");
    claims.check("flow-fifo flow reorders = 0", ff.2, 0);
    claims.check("global-fcfs flow reorders = 0", gf.2, 0);
    let greedy_wins = "greedy max rel delay ≤ global-fcfs max rel delay";
    claims.check(greedy_wins, gr.0, gf.0);
    ExperimentOutput::new(
        "a3",
        "Ablation — output disciplines: order preservation vs work conservation",
        vec![table],
        &[
            "greedy's reorder count shows why it is an ablation, not a legal mode: \
             the model requires per-flow order",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_preserving_disciplines_do_not_reorder() {
        let trace = OnOffGen::uniform(8.0, 0.7, 2).trace(8, 800);
        let (_, _, r_ff) = point(
            8,
            8,
            4,
            OutputDiscipline::FlowFifo,
            &trace,
            &Sink::default(),
        );
        let (_, _, r_gf) = point(
            8,
            8,
            4,
            OutputDiscipline::GlobalFcfs,
            &trace,
            &Sink::default(),
        );
        assert_eq!((r_ff, r_gf), (0, 0));
    }

    #[test]
    fn global_fcfs_never_beats_greedy_on_delay() {
        let trace = OnOffGen::uniform(8.0, 0.7, 2).trace(8, 800);
        let (d_gf, ..) = point(
            8,
            8,
            4,
            OutputDiscipline::GlobalFcfs,
            &trace,
            &Sink::default(),
        );
        let (d_gr, ..) = point(8, 8, 4, OutputDiscipline::Greedy, &trace, &Sink::default());
        assert!(d_gr <= d_gf, "greedy {d_gr} vs global-fcfs {d_gf}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
