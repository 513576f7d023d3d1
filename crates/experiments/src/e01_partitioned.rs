//! E1 — Theorem 6: a bufferless PPS with a *d-partitioned*
//! fully-distributed demultiplexing algorithm has relative queuing delay
//! and relative delay jitter at least `(R/r − 1)·d`, under burst-free
//! leaky-bucket traffic.
//!
//! Sweep: the concentration `d`, realized by partitioning the inputs into
//! groups of size `d` that share an `r'`-plane subset. The adversary then
//! aligns one group and fires the Figure 2 burst.

use crate::attack::{concentration, AttackPoint};
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::StaticPartitionDemux;

/// The sweep's geometry: ports, planes, slowdown.
const GEOMETRY: (usize, usize, usize) = (32, 32, 4);
/// The group sizes `d` the sweep walks.
const DS: [usize; 5] = [2, 4, 8, 16, 32];

/// Build the d-grouped partition: inputs `g·d .. (g+1)·d` share planes
/// `g·r' .. (g+1)·r'` (wrapping over `K`).
fn grouped_partition(cfg: &PpsConfig, d: usize) -> StaticPartitionDemux {
    let (groups, r_prime) = (cfg.n.div_ceil(d), cfg.r_prime);
    let partition = (0..cfg.n)
        .map(|i| {
            let g = i / d;
            (0..r_prime)
                .map(|m| ((g % groups) * r_prime + m) as u32 % cfg.k as u32)
                .collect()
        })
        .collect();
    StaticPartitionDemux::new(partition)
}

/// One sweep point: the attack on the first group only — that is what
/// d-partitioned means.
fn point(cfg: PpsConfig, d: usize, sink: &Sink) -> AttackPoint {
    concentration(cfg, grouped_partition(&cfg, d), d, 4 * cfg.k, sink).0
}

/// Every point of the sweep.
fn measure(sink: &Sink) -> Vec<AttackPoint> {
    let (n, k, r_prime) = GEOMETRY;
    let plan = SweepPlan::new_in("e1", DS.to_vec(), sink);
    plan.run(|pt| point(PpsConfig::bufferless(n, k, r_prime), *pt.params, pt.sink))
}

/// The table and the claims over the sweep's `points`.
fn report(points: &[AttackPoint]) -> ExperimentOutput {
    let (n, k, r_prime) = GEOMETRY;
    let mut table = Table::new(
        format!("Theorem 6 sweep: N={n}, K={k}, r'={r_prime} (bound = (R/r-1)*d)"),
        &[&["d", "aligned"][..], &AttackPoint::HEADERS].concat(),
    );
    let mut claims = Claims::default();
    for (d, a) in DS.iter().zip(points) {
        a.check(claims.at(format!("d = {d}")), "=", "0");
        table.row_display(&[&[d.to_string(), a.aligned.to_string()][..], &a.cells()].concat());
    }
    ExperimentOutput::new(
        "e1",
        "Theorem 6 — d-partitioned fully-distributed lower bound (R/r-1)*d",
        vec![table],
        &[
            "bound (exact) = (R/r-1)*(d-1): the model lets a plane's first delivery \
             complete in its starting slot, shaving one r' term; asymptotics unchanged",
            "traffic B = 0 certifies the burst-free leaky-bucket premise",
        ],
        claims,
    )
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    report(&measure(sink))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_point_beats_the_exact_bound() {
        let a = point(PpsConfig::bufferless(8, 8, 2), 4, &Sink::default());
        assert_eq!(a.aligned, 4);
        assert_eq!(a.burstiness, 0, "premise: burst-free");
        assert_eq!((a.delay, a.jitter), (a.exact as i64, a.exact as i64));
    }

    #[test]
    fn bound_scales_with_d() {
        let f = |d| point(PpsConfig::bufferless(16, 16, 2), d, &Sink::default()).delay;
        let d4 = f(4);
        let d8 = f(8);
        assert!(d8 > d4, "larger groups concentrate more: {d4} !< {d8}");
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }

    #[test]
    fn one_slot_more_delay_fails_the_claim_and_says_where() {
        let mut points = measure(&Sink::default());
        points[2].delay += 1;
        let out = report(&points);
        // `ppslab` exits 1 when any experiment it ran has `pass == false`.
        assert!(!out.pass);
        let text = out.render();
        let line =
            "  claim failed: measured delay = bound (exact) at d = 8: measured 22, bound 21\n";
        assert!(text.contains(&format!("{line}  verdict: FAIL\n")), "{text}");
        assert_eq!(out.claims.iter().filter(|c| !c.holds()).count(), 1);
    }
}
