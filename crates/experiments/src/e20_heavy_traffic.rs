//! E20 — the heavy-traffic regime: delay growth as load approaches 1.
//!
//! Heavy-traffic theory (Jhunjhunwala & Maguluri, arXiv:2004.12271)
//! characterizes switch delay as load `ρ → 1`: the shadow OQ switch's
//! mean queueing delay under i.i.d. uniform Bernoulli traffic follows the
//! discrete Geo/D/1 form `W(ρ) ≈ (N−1)/N · ρ / (2(1−ρ))` per output, and
//! the question for a PPS is whether its *relative* delay (the paper's
//! metric) also blows up with `1/(1−ρ)` or stays bounded by geometry.
//!
//! This experiment sweeps load under uniform Bernoulli traffic and
//! reports, side by side: the measured OQ mean delay vs the Geo/D/1
//! prediction, and the mean/p99/p999 relative delay of a bufferless and
//! an input-buffered fully-distributed PPS. The expected shape — and the
//! claims — is that the *absolute* delay diverges with the
//! heavy-traffic prediction while the *relative* delay stays flat and
//! small: the inherent queuing delay of the PPS is an additive geometric
//! term (`Θ(N/S)` worst-case, near zero typically), not a multiplicative
//! degradation, exactly as the paper's bounds say.

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{
    compare_buffered_in, compare_bufferless_in, relative_delays, Table, TailQuantiles,
};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};
use pps_workload::WorkloadSpec;

/// Geometry: same canonical S = 2 point as E19.
const N: usize = 16;
/// Center-stage planes.
const K: usize = 8;
/// Internal slowdown.
const R_PRIME: usize = 4;
/// Per-input buffer of the buffered variant.
const BUFFER: usize = 64;
/// Slots per load point.
const HORIZON: u64 = 40_000;

/// Geo/D/1 mean-waiting prediction for an output fed by
/// `Binomial(N, ρ/N)` arrivals at one departure per slot.
fn predicted_oq_mean(load: f64) -> f64 {
    ((N - 1) as f64 / N as f64) * load / (2.0 * (1.0 - load))
}

/// One load level: the offered per-input load, the shadow OQ's mean
/// queueing delay, the relative-delay tails of the bufferless and the
/// buffered PPS, and the cells each left undelivered.
struct LoadPoint {
    load: f64,
    oq_mean: f64,
    bufferless: TailQuantiles,
    buffered: TailQuantiles,
    undelivered: (usize, usize),
}

/// Measure one load level.
fn measure(load: f64, seed: u64, sink: &Sink) -> LoadPoint {
    let spec = WorkloadSpec::parse(&format!(
        "uniform:n={N},load={load},seed={seed},horizon={HORIZON}"
    ))
    .expect("spec");
    let trace = spec.trace().expect("materialize");

    let cfg = PpsConfig::bufferless(N, K, R_PRIME);
    let bl =
        compare_bufferless_in(cfg, RoundRobinDemux::new(N, K), &trace, sink).expect("bufferless");
    let cfg_b = PpsConfig::buffered(N, K, R_PRIME, BUFFER);
    let bf = compare_buffered_in(cfg_b, BufferedRoundRobinDemux::new(N, K), &trace, sink)
        .expect("buffered");

    LoadPoint {
        load,
        oq_mean: bl.oq.mean_delay().unwrap_or(0.0),
        bufferless: TailQuantiles::from(&relative_delays(&bl.pps.log, &bl.oq)).expect("cells"),
        buffered: TailQuantiles::from(&relative_delays(&bf.pps.log, &bf.oq)).expect("cells"),
        undelivered: (
            bl.relative_delay().pps_undelivered,
            bf.relative_delay().pps_undelivered,
        ),
    }
}

/// Run the sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let loads = [0.6, 0.75, 0.9, 0.95, 0.98];
    let mut table = Table::new(
        format!(
            "Heavy-traffic sweep, uniform Bernoulli (N={N}, K={K}, r'={R_PRIME}, buffer={BUFFER}, \
             {HORIZON} slots): absolute OQ delay diverges, relative delay stays flat"
        ),
        &[
            "load",
            "OQ mean",
            "Geo/D/1 W",
            "bl mean",
            "bl p99",
            "bl p999",
            "buf mean",
            "buf p99",
            "buf p999",
        ],
    );
    let plan = SweepPlan::new_in("e20", loads.to_vec(), sink);
    let points = plan.run(|pt| measure(*pt.params, 20_000 + pt.index as u64, pt.sink));
    let mut claims = Claims::default();
    let worst_case = pps_core::bounds::theorem6_exact(R_PRIME, N);
    for (i, p) in points.iter().enumerate() {
        let w = predicted_oq_mean(p.load);
        // (a) everything delivered; (b) measured OQ mean tracks the
        // heavy-traffic prediction (factor-3 band away from the extreme
        // point, where finite-horizon bias is large); (c) absolute delay
        // grows with load while the relative tail does NOT: p999 stays
        // below the fully-distributed worst case at every load.
        claims.at(format!("load = {:.2}", p.load));
        let undelivered = p.undelivered.0 + p.undelivered.1;
        claims.check("undelivered (bl + buf) = 0", undelivered, 0);
        if p.load <= 0.951 {
            claims.check("OQ mean > Geo/D/1 W / 3", p.oq_mean, w / 3.0);
            claims.check("OQ mean < 3 Geo/D/1 W + 1", p.oq_mean, w * 3.0 + 1.0);
        }
        if i > 0 {
            let previous = points[i - 1].oq_mean;
            claims.check("OQ mean > that at the previous load", p.oq_mean, previous);
        }
        claims.check("bl p999 < (r'-1)(N-1)", p.bufferless.p999, worst_case);
        claims.check("buf p999 < (r'-1)(N-1)", p.buffered.p999, worst_case);
        table.row_display(&[
            format!("{:.2}", p.load),
            format!("{:.2}", p.oq_mean),
            format!("{w:.2}"),
            format!("{:.2}", p.bufferless.mean),
            p.bufferless.p99.to_string(),
            p.bufferless.p999.to_string(),
            format!("{:.2}", p.buffered.mean),
            p.buffered.p99.to_string(),
            p.buffered.p999.to_string(),
        ]);
    }
    ExperimentOutput::new(
        "e20",
        "Heavy traffic — absolute delay diverges as 1/(1−ρ), relative delay stays geometric",
        vec![table],
        &[
            "the shadow OQ mean follows the Geo/D/1 heavy-traffic form (N−1)/N·ρ/(2(1−ρ)); \
             the PPS's relative delay does not inherit the 1/(1−ρ) divergence — the \
             inherent queuing delay is an additive geometric cost, which is the \
             operational content of the paper's bounds under average-case load",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }

    #[test]
    fn oq_mean_tracks_geo_d1_at_moderate_load() {
        let p = measure(0.75, 1, &Sink::default());
        let w = predicted_oq_mean(0.75);
        assert!(
            p.oq_mean > w / 2.0 && p.oq_mean < w * 2.0 + 0.5,
            "OQ mean {} vs predicted {w}",
            p.oq_mean
        );
    }

    /// Pinned here, not in `tests/golden_regression.rs` beside the other
    /// record-by-record pins: the root package cannot reach `pps-workload`
    /// to build this trace.
    #[test]
    fn the_four_logs_of_the_rho_09_point_are_pinned_record_by_record() {
        // The registry's ρ = 0.9 point (sweep index 2), as `measure` runs it.
        let spec = format!("uniform:n={N},load=0.9,seed=20002,horizon={HORIZON}");
        let trace = WorkloadSpec::parse(&spec).unwrap().trace().unwrap();
        let cfg = PpsConfig::bufferless(N, K, R_PRIME);
        let bl = compare_bufferless_in(cfg, RoundRobinDemux::new(N, K), &trace, &Sink::default())
            .unwrap();
        let cfg_b = PpsConfig::buffered(N, K, R_PRIME, BUFFER);
        let bf = compare_buffered_in(
            cfg_b,
            BufferedRoundRobinDemux::new(N, K),
            &trace,
            &Sink::default(),
        )
        .unwrap();
        let digests = [&bl.pps.log, &bl.oq, &bf.pps.log, &bf.oq].map(RunLog::digest);
        assert_eq!(trace.len(), 576_279);
        assert_eq!(
            digests,
            [
                12_014_347_730_225_302_229,
                12_930_262_509_364_905_786,
                12_014_347_730_225_302_229,
                12_930_262_509_364_905_786,
            ]
        );
    }

    #[test]
    fn relative_tail_does_not_diverge_with_load() {
        let lo = measure(0.6, 2, &Sink::default());
        let hi = measure(0.98, 3, &Sink::default());
        // Absolute delay explodes by an order of magnitude...
        assert!(hi.oq_mean > 4.0 * lo.oq_mean);
        // ...while the relative p999 stays under the geometric worst case.
        assert!(hi.bufferless.p999 < ((R_PRIME - 1) * (N - 1)) as i64);
    }
}
