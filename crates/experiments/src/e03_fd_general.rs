//! E3 — Theorem 8: *every* fully-distributed demultiplexing algorithm on a
//! bufferless PPS has relative queuing delay and jitter at least
//! `(R/r − 1)·N/S`, because the input constraint forces each demultiplexor
//! to use at least `r'` planes, so some plane serves `≥ r'·N/K = N/S`
//! inputs.
//!
//! Victim: the *minimal* static partition (each input restricted to
//! exactly `r'` planes) — the algorithm that concentrates least among
//! legal fully-distributed ones. Sweep: the speedup `S` via `K`.

use crate::attack::{concentration, AttackPoint};
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::StaticPartitionDemux;

/// One sweep point; the paper's bound is Theorem 8's.
pub fn point(n: usize, k: usize, r_prime: usize, sink: &Sink) -> AttackPoint {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = StaticPartitionDemux::minimal(n, k, r_prime);
    AttackPoint {
        paper: bounds::theorem8(&cfg),
        ..concentration(cfg, demux, n, 4 * k, sink).0
    }
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, r_prime) = (64, 4);
    let mut table = Table::new(
        format!("Theorem 8 sweep: N={n}, r'={r_prime} (bound = (R/r-1)*N/S)"),
        &[&["K", "S", "N/S", "d aligned"][..], &AttackPoint::HEADERS].concat(),
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e3", vec![4usize, 8, 16, 32, 64], sink);
    let results = plan.run(|pt| point(n, *pt.params, r_prime, pt.sink));
    for (&k, a) in plan.points().iter().zip(results) {
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        let (s, n_over_s) = (cfg.speedup().to_f64(), cfg.n_over_s());
        a.check(claims.at(format!("K = {k}")), "=", "0");
        // The minimal partition concentrates at least N/S inputs on some
        // plane; the adversary should find (at least) that many.
        claims.check("d aligned ≥ N/S", a.aligned, n_over_s);
        let key = [
            k.to_string(),
            format!("{s}"),
            n_over_s.to_string(),
            a.aligned.to_string(),
        ];
        table.row_display(&[&key[..], &a.cells()].concat());
    }
    ExperimentOutput::new(
        "e3",
        "Theorem 8 — every fully-distributed algorithm: lower bound (R/r-1)*N/S",
        vec![table],
        &[
            "d aligned = measured concentration of the minimal legal partition; \
             Theorem 8's pigeonhole says it cannot drop below N/S",
            "measured delay exceeds the theorem bound because the attack concentrates \
             a whole sharing group, which is ceil(N/(K/r')) >= N/S inputs",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentration_at_least_n_over_s() {
        let a = point(16, 8, 4, &Sink::default());
        let n_over_s = PpsConfig::bufferless(16, 8, 4).n_over_s();
        assert!(
            a.aligned as u64 >= n_over_s,
            "d {} < N/S {n_over_s}",
            a.aligned
        );
        assert_eq!(a.burstiness, 0);
        assert!(a.delay > 0);
    }

    #[test]
    fn higher_speedup_weakens_the_bound() {
        let low_s = point(32, 8, 4, &Sink::default()).delay; // S = 2
        let high_s = point(32, 32, 4, &Sink::default()).delay; // S = 8
        assert!(
            low_s > high_s,
            "more parallel capacity should reduce the forced delay: {low_s} !> {high_s}"
        );
    }

    #[test]
    fn the_worst_cells_relative_delay_is_all_plane_wait() {
        let (a, summary) = crate::tests::traced(|sink| point(16, 8, 4, sink));
        let blocks = crate::tests::blocks(&summary);
        let [(engine, lines)] = &blocks[..] else {
            panic!("one PPS run: {summary}");
        };
        assert_eq!(engine, "pps");
        assert_eq!(lines[0].get("max"), a.delay);
        // Bufferless, fully distributed: no input wait and no hold; the
        // reference serves the cell on arrival.
        let worst = &lines[3];
        for stage in ["input-wait", "output-hold", "oq-wait"] {
            assert_eq!(worst.get(stage), 0, "{stage}: {summary}");
        }
        assert_eq!(worst.get("plane-wait"), a.delay, "{summary}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
