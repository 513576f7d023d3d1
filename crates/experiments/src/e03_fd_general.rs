//! E3 — Theorem 8: *every* fully-distributed demultiplexing algorithm on a
//! bufferless PPS has relative queuing delay and jitter at least
//! `(R/r − 1)·N/S`, because the input constraint forces each demultiplexor
//! to use at least `r'` planes, so some plane serves `≥ r'·N/K = N/S`
//! inputs.
//!
//! Victim: the *minimal* static partition (each input restricted to
//! exactly `r'` planes) — the algorithm that concentrates least among
//! legal fully-distributed ones. Sweep: the speedup `S` via `K`.

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::StaticPartitionDemux;
use pps_traffic::adversary::concentration_attack;
use pps_traffic::min_burstiness;

/// One sweep point; returns `(S, N/S, d aligned, paper bound, exact bound,
/// measured delay, measured jitter, burstiness)`.
pub fn point(
    n: usize,
    k: usize,
    r_prime: usize,
    sink: &Sink,
) -> (f64, u64, usize, u64, u64, i64, i64, u64) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    cfg.validate().expect("valid sweep point");
    let demux = StaticPartitionDemux::minimal(n, k, r_prime);
    let all: Vec<u32> = (0..n as u32).collect();
    let atk = concentration_attack(&demux, &cfg, &all, 4 * k);
    let b = min_burstiness(&atk.trace, n).overall();
    let n_over_s = cfg.n_over_s();
    let theorem_bound = bounds::theorem8(&cfg);
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, sink).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    (
        cfg.speedup().to_f64(),
        n_over_s,
        atk.d,
        theorem_bound,
        atk.model_exact_bound,
        rd.max,
        cmp.relative_jitter(),
        b,
    )
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, r_prime) = (64, 4);
    let mut table = Table::new(
        format!("Theorem 8 sweep: N={n}, r'={r_prime} (bound = (R/r-1)*N/S)"),
        &[
            "K",
            "S",
            "N/S",
            "d aligned",
            "bound (paper)",
            "bound (exact)",
            "measured delay",
            "measured jitter",
            "traffic B",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new_in("e3", vec![4usize, 8, 16, 32, 64], sink);
    let results = plan.run(|pt| point(n, *pt.params, r_prime, pt.sink));
    for (&k, (s, n_over_s, d, paper, exact, delay, jitter, b)) in plan.points().iter().zip(results)
    {
        // The minimal partition concentrates at least N/S inputs on some
        // plane; the adversary should find (at least) that many.
        pass &= d as u64 >= n_over_s && delay as u64 >= exact && jitter as u64 >= exact && b == 0;
        table.row_display(&[
            k.to_string(),
            format!("{s}"),
            n_over_s.to_string(),
            d.to_string(),
            paper.to_string(),
            exact.to_string(),
            delay.to_string(),
            jitter.to_string(),
            b.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e3",
        title: "Theorem 8 — every fully-distributed algorithm: lower bound (R/r-1)*N/S".into(),
        tables: vec![table],
        notes: vec![
            "d aligned = measured concentration of the minimal legal partition; \
             Theorem 8's pigeonhole says it cannot drop below N/S"
                .into(),
            "measured delay exceeds the theorem bound because the attack concentrates \
             a whole sharing group, which is ceil(N/(K/r')) >= N/S inputs"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentration_at_least_n_over_s() {
        let (_s, n_over_s, d, _paper, _exact, delay, _jitter, b) =
            point(16, 8, 4, &Sink::default());
        assert!(d as u64 >= n_over_s, "d {d} < N/S {n_over_s}");
        assert_eq!(b, 0);
        assert!(delay > 0);
    }

    #[test]
    fn higher_speedup_weakens_the_bound() {
        let low_s = point(32, 8, 4, &Sink::default()).5; // S = 2
        let high_s = point(32, 32, 4, &Sink::default()).5; // S = 8
        assert!(
            low_s > high_s,
            "more parallel capacity should reduce the forced delay: {low_s} !> {high_s}"
        );
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
