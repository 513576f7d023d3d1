//! E7 — Theorem 13: an input-buffered PPS with a *fully-distributed*
//! demultiplexing algorithm has relative queuing delay and jitter at least
//! `(1 − r/R)·N/S`, **for any buffer size**, under burst-free traffic.
//!
//! Buffers help `u`-RT algorithms (E6) but not fully-distributed ones:
//! with no information about other inputs, buffering a cell cannot prevent
//! the concentration — it can only add delay. Victim: buffered round
//! robin. Sweep: the buffer size.

use crate::attack::{round_robin_attack, AttackPoint};
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{compare_buffered_in, Table};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::BufferedRoundRobinDemux;

/// One sweep point; the paper's bound is Theorem 13's.
fn point(n: usize, k: usize, r_prime: usize, buffer: usize, sink: &Sink) -> AttackPoint {
    // The buffered round robin's pointer automaton coincides with the
    // bufferless round robin whenever buffers are empty — which the
    // attack's r'-spaced phases guarantee — so the alignment is planned
    // against the bufferless twin.
    let atk = round_robin_attack(n, k, r_prime);
    let cfg = PpsConfig::buffered(n, k, r_prime, buffer);
    let cmp = compare_buffered_in(cfg, BufferedRoundRobinDemux::new(n, k), &atk.trace, sink)
        .expect("run");
    AttackPoint {
        paper: bounds::theorem13(&cfg),
        ..AttackPoint::new(atk, &cmp)
    }
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (32, 8, 4); // S = 2
    let mut table = Table::new(
        format!(
            "Theorem 13 sweep: N={n}, K={k}, r'={r_prime}, S=2 (bound = (1-r/R)*N/S, any buffer)"
        ),
        &[
            "buffer size",
            "bound (paper)",
            "bound (exact, RR)",
            "measured delay",
            "measured jitter",
            "traffic B",
        ],
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e7", vec![1usize, 4, 16, 64, 256], sink);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, pt.sink));
    for (&buffer, a) in plan.points().iter().zip(results) {
        claims.at(format!("buffer size = {buffer}"));
        claims.check("measured delay ≥ bound (paper)", a.delay, a.paper);
        claims.check("measured delay ≥ bound (exact, RR)", a.delay, a.exact);
        claims.check("measured jitter ≥ bound (paper)", a.jitter, a.paper);
        claims.check("traffic B ≤ 0", a.burstiness, a.premise);
        table.row_display(&[&[buffer.to_string()][..], &a.cells()].concat());
    }
    ExperimentOutput::new(
        "e7",
        "Theorem 13 — buffered fully-distributed lower bound, independent of buffer size",
        vec![table],
        &[
            "measured delay is flat across buffer sizes: with no global information \
             there is nothing useful to wait for (the theorem's point)",
            "bound (exact, RR) is the concentration the unpartitioned round robin \
             actually suffers ((R/r-1)*(N-1)), far above the class-wide (1-r/R)*N/S",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_for_small_and_large_buffers() {
        for buffer in [1usize, 32] {
            let a = point(8, 8, 4, buffer, &Sink::default());
            assert_eq!(a.burstiness, 0);
            assert!(a.delay as u64 >= a.paper, "buffer {buffer}: {a:?}");
            assert!(a.jitter as u64 >= a.paper);
        }
    }

    #[test]
    fn buffers_do_not_rescue_a_distributed_algorithm() {
        let small = point(16, 8, 4, 1, &Sink::default()).delay;
        let large = point(16, 8, 4, 128, &Sink::default()).delay;
        assert_eq!(small, large, "delay must not improve with buffer size");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
