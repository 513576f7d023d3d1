//! A2 — the CPA speedup threshold: Iyer et al.'s zero-delay guarantee is
//! conditioned on `S ≥ 2`, and the paper leans on that premise throughout.
//! Sweeping `S` across the threshold shows the crossover: deadline misses
//! and relative delay appear exactly when `S < 2`.

use crate::claim::Claims;
use crate::e10_cpa::point;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_traffic::gen::{BernoulliGen, TrafficPattern};

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
    let mut claims = Claims::default();
    let mut below_degrading = 0usize;
    let configs = [4, 6, 8, 12, 16].map(|k| PpsConfig::bufferless(n, k, r_prime));
    let plan = SweepPlan::new_in("a2", configs.to_vec(), sink);
    let results = plan.run(|pt| point(*pt.params, &trace, pt.sink));
    for (cfg, (max_rd, _, misses)) in plan.points().iter().zip(results) {
        let s = cfg.speedup().to_f64();
        if s >= 2.0 {
            claims.at(format!("K = {}", cfg.k));
            claims.check("max rel delay at S >= 2 ≤ 0", max_rd, 0);
            claims.check("deadline misses at S >= 2 = 0", misses, 0);
        } else if misses > 0 || max_rd > 0 {
            below_degrading += 1;
        }
        table.row_display(&[
            cfg.k.to_string(),
            format!("{s}"),
            max_rd.to_string(),
            misses.to_string(),
        ]);
    }
    let degrading = "points below the S >= 2 threshold that miss deadlines or add delay ≥ 1";
    claims.at("K = 4..16").check(degrading, below_degrading, 1);
    ExperimentOutput::new(
        "a2",
        "Ablation — CPA's S >= 2 threshold: crossover of deadline feasibility",
        vec![table],
        &[
            "with K >= 2r' the input constraint excludes <= r'-1 planes and the \
             reservation calendar <= r'-1 more, so a feasible plane always exists; \
             below the threshold the pigeonhole fails and delay reappears",
        ],
        claims,
    )
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
        let (rd_hi, _, miss_hi) = point(PpsConfig::bufferless(8, 8, 4), &trace, &Sink::default()); // S = 2
        assert_eq!((rd_hi <= 0, miss_hi), (true, 0));
        let (rd_lo, _, miss_lo) = point(PpsConfig::bufferless(8, 4, 4), &trace, &Sink::default()); // S = 1
        assert!(
            miss_lo > 0 || rd_lo > 0,
            "S = 1 should degrade: rd {rd_lo}, misses {miss_lo}"
        );
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
