//! E7 — Theorem 13: an input-buffered PPS with a *fully-distributed*
//! demultiplexing algorithm has relative queuing delay and jitter at least
//! `(1 − r/R)·N/S`, **for any buffer size**, under burst-free traffic.
//!
//! Buffers help `u`-RT algorithms (E6) but not fully-distributed ones:
//! with no information about other inputs, buffering a cell cannot prevent
//! the concentration — it can only add delay. Victim: buffered round
//! robin. Sweep: the buffer size.

use crate::ExperimentOutput;
use pps_analysis::{compare_buffered, Table};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};
use pps_traffic::adversary::concentration_attack;
use pps_traffic::min_burstiness;

/// One sweep point; returns `(theorem bound, exact bound, measured delay,
/// measured jitter, burstiness)`.
fn point(n: usize, k: usize, r_prime: usize, buffer: usize) -> (u64, u64, i64, i64, u64) {
    // The buffered round robin's pointer automaton coincides with the
    // bufferless round robin whenever buffers are empty — which the
    // attack's r'-spaced phases guarantee — so the alignment is planned
    // against the bufferless twin.
    let cfg_plan = PpsConfig::bufferless(n, k, r_prime);
    let atk = concentration_attack(
        &RoundRobinDemux::new(n, k),
        &cfg_plan,
        &(0..n as u32).collect::<Vec<_>>(),
        4 * k,
    );
    let b = min_burstiness(&atk.trace, n).overall();
    let cfg = PpsConfig::buffered(n, k, r_prime, buffer);
    cfg.validate().expect("valid sweep point");
    let cmp = compare_buffered(cfg, BufferedRoundRobinDemux::new(n, k), &atk.trace).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    (
        bounds::theorem13(&cfg),
        atk.model_exact_bound,
        rd.max,
        cmp.relative_jitter(),
        b,
    )
}

/// Run the default sweep.
pub(crate) fn run() -> ExperimentOutput {
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
    let mut pass = true;
    let plan = SweepPlan::new("e7", vec![1usize, 4, 16, 64, 256]);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params));
    for (&buffer, (paper, exact, delay, jitter, b)) in plan.points().iter().zip(results) {
        pass &= delay as u64 >= paper && delay as u64 >= exact && jitter as u64 >= paper && b == 0;
        table.row_display(&[
            buffer.to_string(),
            paper.to_string(),
            exact.to_string(),
            delay.to_string(),
            jitter.to_string(),
            b.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e7",
        title: "Theorem 13 — buffered fully-distributed lower bound, independent of buffer size"
            .into(),
        tables: vec![table],
        notes: vec![
            "measured delay is flat across buffer sizes: with no global information \
             there is nothing useful to wait for (the theorem's point)"
                .into(),
            "bound (exact, RR) is the concentration the unpartitioned round robin \
             actually suffers ((R/r-1)*(N-1)), far above the class-wide (1-r/R)*N/S"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_for_small_and_large_buffers() {
        for buffer in [1usize, 32] {
            let (paper, _exact, delay, jitter, b) = point(8, 8, 4, buffer);
            assert_eq!(b, 0);
            assert!(delay as u64 >= paper, "buffer {buffer}: {delay} < {paper}");
            assert!(jitter as u64 >= paper);
        }
    }

    #[test]
    fn buffers_do_not_rescue_a_distributed_algorithm() {
        let small = point(16, 8, 4, 1).2;
        let large = point(16, 8, 4, 128).2;
        assert_eq!(small, large, "delay must not improve with buffer size");
    }

    #[test]
    fn full_run_passes() {
        assert!(run().pass);
    }
}
