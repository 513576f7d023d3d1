//! E1 — Theorem 6: a bufferless PPS with a *d-partitioned*
//! fully-distributed demultiplexing algorithm has relative queuing delay
//! and relative delay jitter at least `(R/r − 1)·d`, under burst-free
//! leaky-bucket traffic.
//!
//! Sweep: the concentration `d`, realized by partitioning the inputs into
//! groups of size `d` that share an `r'`-plane subset. The adversary then
//! aligns one group and fires the Figure 2 burst.

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::StaticPartitionDemux;
use pps_traffic::adversary::concentration_attack;
use pps_traffic::min_burstiness;

/// Parameters of one E1 sweep point.
#[derive(Clone, Copy, Debug)]
struct Params {
    /// Ports.
    pub n: usize,
    /// Planes.
    pub k: usize,
    /// Internal slowdown `r' = R/r`.
    pub r_prime: usize,
    /// Target concentration `d` (group size).
    pub d: usize,
}

/// Build the d-grouped partition: inputs `g·d .. (g+1)·d` share planes
/// `g·r' .. (g+1)·r'` (wrapping over `K`).
fn grouped_partition(p: Params) -> StaticPartitionDemux {
    let groups = p.n.div_ceil(p.d);
    let partition = (0..p.n)
        .map(|i| {
            let g = i / p.d;
            (0..p.r_prime)
                .map(|m| ((g % groups) * p.r_prime + m) as u32 % p.k as u32)
                .collect()
        })
        .collect();
    StaticPartitionDemux::new(partition)
}

/// One sweep point: returns `(d_aligned, paper bound, model-exact bound,
/// measured delay, measured jitter, burstiness)`.
fn point(p: Params, sink: &Sink) -> (usize, u64, u64, i64, i64, u64) {
    let cfg = PpsConfig::bufferless(p.n, p.k, p.r_prime);
    cfg.validate().expect("valid sweep point");
    let demux = grouped_partition(p);
    // Attack the first group only — that is what d-partitioned means.
    let group: Vec<u32> = (0..p.d as u32).collect();
    let atk = concentration_attack(&demux, &cfg, &group, 4 * p.k);
    let b = min_burstiness(&atk.trace, p.n).overall();
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, sink).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0, "attack must not wedge the switch");
    (
        atk.d,
        atk.predicted_bound,
        atk.model_exact_bound,
        rd.max,
        cmp.relative_jitter(),
        b,
    )
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (32, 32, 4);
    let mut table = Table::new(
        format!("Theorem 6 sweep: N={n}, K={k}, r'={r_prime} (bound = (R/r-1)*d)"),
        &[
            "d",
            "aligned",
            "bound (paper)",
            "bound (exact)",
            "measured delay",
            "measured jitter",
            "traffic B",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new_in(
        "e1",
        [2usize, 4, 8, 16, 32]
            .into_iter()
            .map(|d| Params { n, k, r_prime, d })
            .collect(),
        sink,
    );
    let results = plan.run(|pt| point(*pt.params, pt.sink));
    for (p, (aligned, paper, exact, delay, jitter, b)) in plan.points().iter().zip(results) {
        pass &= delay as u64 >= exact && jitter as u64 >= exact && b == 0;
        table.row_display(&[
            p.d.to_string(),
            aligned.to_string(),
            paper.to_string(),
            exact.to_string(),
            delay.to_string(),
            jitter.to_string(),
            b.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e1",
        title: "Theorem 6 — d-partitioned fully-distributed lower bound (R/r-1)*d".into(),
        tables: vec![table],
        notes: vec![
            "bound (exact) = (R/r-1)*(d-1): the model lets a plane's first delivery \
             complete in its starting slot, shaving one r' term; asymptotics unchanged"
                .into(),
            "traffic B = 0 certifies the burst-free leaky-bucket premise".into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_point_beats_the_exact_bound() {
        let (aligned, _paper, exact, delay, jitter, b) = point(
            Params {
                n: 8,
                k: 8,
                r_prime: 2,
                d: 4,
            },
            &Sink::default(),
        );
        assert_eq!(aligned, 4);
        assert_eq!(b, 0, "premise: burst-free");
        assert!(delay as u64 >= exact, "delay {delay} < exact bound {exact}");
        assert!(jitter as u64 >= exact);
    }

    #[test]
    fn bound_scales_with_d() {
        let f = |d| {
            point(
                Params {
                    n: 16,
                    k: 16,
                    r_prime: 2,
                    d,
                },
                &Sink::default(),
            )
            .3
        };
        let d4 = f(4);
        let d8 = f(8);
        assert!(d8 > d4, "larger groups concentrate more: {d4} !< {d8}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
