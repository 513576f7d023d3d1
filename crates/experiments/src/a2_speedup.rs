//! A2 — the CPA speedup threshold: Iyer et al.'s zero-delay guarantee is
//! conditioned on `S ≥ 2`, and the paper leans on that premise throughout.
//! Sweeping `S` across the threshold shows the crossover: deadline misses
//! and relative delay appear exactly when `S < 2`.

use crate::ExperimentOutput;
use pps_analysis::{lockstep::Comparison, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::CpaDemux;
use pps_switch::engine::BufferlessPps;
use pps_traffic::gen::{BernoulliGen, TrafficPattern};

/// One speedup point: `(S, max rel delay, deadline misses)`.
fn point(n: usize, k: usize, r_prime: usize, trace: &Trace, sink: &Sink) -> (f64, i64, u64) {
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    cfg.validate().expect("valid point");
    let mut pps = BufferlessPps::new_in(cfg, CpaDemux::new(n, k, r_prime), sink).expect("engine");
    let run = pps.run(trace).expect("model-legal run");
    let misses = pps.demux().deadline_misses();
    let oq = pps_reference::oq::run_oq_in(trace, n, sink);
    let cmp = Comparison { pps: run, oq, n };
    (cfg.speedup().to_f64(), cmp.relative_delay().max, misses)
}

/// Run the sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, r_prime) = (16, 4);
    // A hot, bursty load that stresses the deadline calendar.
    let trace = BernoulliGen {
        load: 0.9,
        pattern: TrafficPattern::Hotspot {
            target: 0,
            hot: 0.4,
        },
        seed: 91,
    }
    .trace(n, 2_000);
    let mut table = Table::new(
        format!("CPA speedup sweep at N={n}, r'={r_prime} (threshold S = 2)"),
        &["K", "S", "max rel delay", "deadline misses"],
    );
    let mut pass = true;
    let mut at_or_above_ok = true;
    let mut below_degrades = false;
    let plan = SweepPlan::new_in("a2", vec![4usize, 6, 8, 12, 16], sink);
    let results = plan.run(|pt| point(n, *pt.params, r_prime, &trace, pt.sink));
    for (&k, (s, max_rd, misses)) in plan.points().iter().zip(results) {
        if s >= 2.0 {
            at_or_above_ok &= max_rd <= 0 && misses == 0;
        } else {
            below_degrades |= misses > 0 || max_rd > 0;
        }
        table.row_display(&[
            k.to_string(),
            format!("{s}"),
            max_rd.to_string(),
            misses.to_string(),
        ]);
    }
    pass &= at_or_above_ok && below_degrades;
    ExperimentOutput {
        id: "a2",
        title: "Ablation — CPA's S >= 2 threshold: crossover of deadline feasibility".into(),
        tables: vec![table],
        notes: vec![
            "with K >= 2r' the input constraint excludes <= r'-1 planes and the \
             reservation calendar <= r'-1 more, so a feasible plane always exists; \
             below the threshold the pigeonhole fails and delay reappears"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_crossover() {
        let trace = BernoulliGen {
            load: 0.95,
            pattern: TrafficPattern::Hotspot {
                target: 0,
                hot: 0.5,
            },
            seed: 3,
        }
        .trace(8, 1_200);
        let (_s, rd_hi, miss_hi) = point(8, 8, 4, &trace, &Sink::default()); // S = 2
        assert_eq!((rd_hi <= 0, miss_hi), (true, 0));
        let (_s, rd_lo, miss_lo) = point(8, 4, 4, &trace, &Sink::default()); // S = 1
        assert!(
            miss_lo > 0 || rd_lo > 0,
            "S = 1 should degrade: rd {rd_lo}, misses {miss_lo}"
        );
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
