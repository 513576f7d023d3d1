//! E14 — the paper's closing open question (§6): *"Our lower bounds
//! present worst-case traffics also for randomized demultiplexing
//! algorithms, but it would be interesting to study the distribution of
//! the relative queuing delay when randomization is employed."*
//!
//! Two adversary models against the seeded randomized demultiplexor:
//!
//! * **seed-aware** (the paper's deterministic reading): the adversary
//!   probes the automaton — RNG state and all — and achieves the full
//!   concentration, exactly like against round robin;
//! * **oblivious**: the adversary knows the algorithm but not the seed and
//!   simply fires the N-cell burst at a quiet switch. The concentration is
//!   then the maximum bin of N balls thrown (near-)uniformly into K bins —
//!   `N/K + Θ(√(N/K·ln K))` — so the *typical* relative delay is
//!   `Θ((R/r−1)·N/K)` with the measured distribution tightly above it.
//!
//! We run 200 seeds of the oblivious attack and report
//! min/mean/p95/max, next to the balls-in-bins mean prediction and the
//! seed-aware (= deterministic) ceiling.

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::RandomDemux;
use pps_traffic::adversary::concentration_attack;

/// The oblivious burst: after an idle prefix, one cell per slot for the
/// hot output from each of the `n` inputs (no alignment phase — nothing to
/// align without knowing the seed).
fn oblivious_burst(n: usize) -> Trace {
    let arrivals = (0..n as u64)
        .map(|i| Arrival::new(i, i as u32, 0))
        .collect();
    Trace::build(arrivals, n).expect("one cell per (slot, input)")
}

/// Run the oblivious attack against seed `seed`; returns
/// `(max relative delay, concentration)`.
fn oblivious_point(n: usize, k: usize, r_prime: usize, seed: u64, sink: &Sink) -> (i64, usize) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let cmp = compare_bufferless_in(cfg, RandomDemux::new(n, seed), &oblivious_burst(n), sink)
        .expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    (rd.max, cmp.max_concentration())
}

/// Distribution summary over seeds.
#[derive(Clone, Debug)]
struct DelayDistribution {
    /// Minimum over seeds.
    pub min: i64,
    /// Mean over seeds.
    pub mean: f64,
    /// 95th percentile.
    pub p95: i64,
    /// Maximum over seeds.
    pub max: i64,
    /// Mean measured concentration.
    pub mean_concentration: f64,
}

/// Sample the oblivious-attack delay distribution over `seeds` seeds.
fn distribution(n: usize, k: usize, r_prime: usize, seeds: u64, sink: &Sink) -> DelayDistribution {
    // The seeds are the literal parameters of the study (0..seeds), so the
    // distribution is unchanged by how the points are scheduled.
    let plan = SweepPlan::new_in("e14-dist", (0..seeds).collect(), sink);
    let samples = plan.run(|pt| oblivious_point(n, k, r_prime, *pt.params, pt.sink));
    let mut delays: Vec<i64> = samples.iter().map(|&(d, _)| d).collect();
    let conc_sum: usize = samples.iter().map(|&(_, c)| c).sum();
    delays.sort_unstable();
    let mean = delays.iter().sum::<i64>() as f64 / delays.len() as f64;
    DelayDistribution {
        min: delays[0],
        mean,
        p95: delays[(delays.len() * 95) / 100],
        max: *delays.last().unwrap(),
        mean_concentration: conc_sum as f64 / seeds as f64,
    }
}

/// Run the default study.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (k, r_prime, seeds) = (8usize, 4usize, 200u64);
    let mut table = Table::new(
        format!("Relative delay of the randomized demux, oblivious N-cell burst, {seeds} seeds (K={k}, r'={r_prime})"),
        &[
            "N",
            "E[max bin] approx",
            "mean conc.",
            "delay min",
            "delay mean",
            "delay p95",
            "delay max",
            "seed-aware ceiling",
        ],
    );
    let mut pass = true;
    let plan = SweepPlan::new_in("e14", vec![16usize, 32, 64], sink);
    let results = plan.run(|pt| {
        let n = *pt.params;
        let dist = distribution(n, k, r_prime, seeds, pt.sink);
        // Seed-aware adversary reaches the deterministic ceiling.
        let demux = RandomDemux::new(n, 424_242);
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        let aware = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 32 * k);
        let aware_cmp = compare_bufferless_in(cfg, demux, &aware.trace, pt.sink).expect("run");
        (
            dist,
            aware.model_exact_bound,
            aware_cmp.relative_delay().max,
        )
    });
    for (&n, (dist, aware_exact_bound, ceiling)) in plan.points().iter().zip(results) {
        // Balls-in-bins mean prediction for the max bin.
        let lam = n as f64 / k as f64;
        let predict = lam + (2.0 * lam * (k as f64).ln()).sqrt();
        // Shape checks: (a) the oblivious distribution never exceeds the
        // seed-aware ceiling and is strictly positive in the mean; (b) the
        // measured concentration tracks the balls-in-bins prediction; (c)
        // the seed-aware adversary reaches the deterministic bound.
        pass &= dist.min >= 0 && dist.mean > 0.0;
        pass &= dist.max <= ceiling;
        pass &= (dist.mean_concentration - predict).abs() < predict * 0.5;
        pass &= ceiling as u64 >= aware_exact_bound.saturating_sub((r_prime as u64 - 1) * 2);
        table.row_display(&[
            n.to_string(),
            format!("{predict:.1}"),
            format!("{:.1}", dist.mean_concentration),
            dist.min.to_string(),
            format!("{:.1}", dist.mean),
            dist.p95.to_string(),
            dist.max.to_string(),
            ceiling.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e14",
        title: "Open question (§6) — the randomized demux's relative-delay distribution".into(),
        tables: vec![table],
        notes: vec![
            "randomization does not escape the lower bound (a seed-aware adversary \
             reaches the deterministic ceiling); against oblivious rate-R bursts the \
             typical delay stays small because each plane's share of the burst \
             arrives spread over N slots — the worst case needs coordination, which \
             is the paper's point"
                .into(),
            "mean concentration tracks the balls-in-bins prediction N/K + \
             sqrt(2(N/K)lnK)"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oblivious_distribution_sits_below_the_deterministic_ceiling() {
        let dist = distribution(16, 8, 4, 40, &Sink::default());
        let deterministic = 3 * 15; // (r'-1)(N-1)
        assert!(dist.max <= deterministic);
        assert!(dist.min >= 0);
        assert!(dist.mean > 0.0, "some concentration always happens");
        assert!(dist.p95 >= dist.min && dist.max >= dist.p95);
    }

    #[test]
    fn concentration_tracks_balls_in_bins() {
        let dist = distribution(64, 8, 4, 40, &Sink::default());
        let lam = 8.0;
        assert!(
            dist.mean_concentration > lam && dist.mean_concentration < 3.0 * lam,
            "mean concentration {} out of band",
            dist.mean_concentration
        );
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
