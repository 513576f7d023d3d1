//! E15 — the paper's buffer corollary (§1.2 and §6): *"large relative
//! queuing delays usually imply that the buffer sizes at the middle-stage
//! switches or at the external ports should be large as well"*, and the
//! closing remark that the delay bounds should translate into bounds on a
//! jitter regulator's internal buffer \[20\].
//!
//! For the Corollary 7 attack swept over `N` we record, next to the
//! relative delay: the plane-buffer high-water mark, the output
//! (resequencer) high-water mark, and the internal buffer a jitter
//! regulator needs to flatten the run to constant delay. All three grow
//! linearly with `N` — the delay bound priced in memory.

use crate::attack::{concentration, AttackPoint};
use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::Table;
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_reference::regulator::{min_feasible_delay, regulate, RegulationReport as Regulated};
use pps_switch::demux::RoundRobinDemux;
use pps_switch::fabric::FabricStats;

/// One sweep point: the attack, the fabric's buffer high-water marks, and
/// the regulator that flattens the run to constant delay.
fn point(n: usize, k: usize, r_prime: usize, sink: &Sink) -> (AttackPoint, FabricStats, Regulated) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let (attack, cmp) = concentration(cfg, RoundRobinDemux::new(n, k), n, 4 * k, sink);
    let regulated = regulate(&cmp.pps.log, min_feasible_delay(&cmp.pps.log));
    (attack, cmp.pps.stats, regulated)
}

/// Run the default sweep.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (k, r_prime) = (8, 4); // S = 2
    let mut table = Table::new(
        format!("Memory implied by the Corollary 7 delay at K={k}, r'={r_prime}"),
        &[
            "N",
            "rel delay",
            "plane buffer HWM",
            "resequencer HWM",
            "regulator buffer",
            "residual jitter",
        ],
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e15", vec![32usize, 64, 128, 256], sink);
    let results = plan.run(|pt| point(*pt.params, k, r_prime, pt.sink));
    // The doubling checks compare adjacent points, so they run post-merge
    // over the ordered results.
    for (i, (&n, (a, fabric, reg))) in plan.points().iter().zip(&results).enumerate() {
        // The regulator buffer must absorb the early cells of the
        // concentration: at least a constant fraction of N.
        let (plane_hwm, reg_buf) = (fabric.max_plane_queue, reg.buffer_required);
        claims.at(format!("N = {n}"));
        claims.check("regulator buffer ≥ N/2", reg_buf, n / 2);
        claims.check("plane buffer HWM ≥ N/2", plane_hwm, n / 2);
        claims.check("residual jitter = 0", reg.residual_jitter, 0);
        if let Some((pa, _, preg)) = i.checked_sub(1).map(|j| &results[j]) {
            // Linear growth: doubling N roughly doubles both delay and buffers.
            let dr = a.delay as f64 / pa.delay as f64;
            let br = reg_buf as f64 / preg.buffer_required as f64;
            claims.check("rel delay / rel delay at N/2 within 0.4 of 2", dr, 2);
            let doubled = "regulator buffer / regulator buffer at N/2 within 0.4 of 2";
            claims.check(doubled, br, 2);
        }
        table.row_display(&[
            n.to_string(),
            a.delay.to_string(),
            plane_hwm.to_string(),
            fabric.max_output_held.to_string(),
            reg_buf.to_string(),
            reg.residual_jitter.to_string(),
        ]);
    }
    ExperimentOutput::new(
        "e15",
        "Buffer implications — the delay bounds priced in plane, resequencer and \
         jitter-regulator memory",
        vec![table],
        &[
            "residual jitter 0: a regulator *can* flatten the PPS output — but only \
             by holding Theta(N) cells, the paper's suggested translation of the \
             delay lower bound into a buffer lower bound",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulator_buffer_scales_with_the_concentration() {
        let (a, fabric, small) = point(16, 8, 4, &Sink::default());
        let (reg_small, reg_large) = (
            small.buffer_required,
            point(64, 8, 4, &Sink::default()).2.buffer_required,
        );
        assert!(a.delay > 0);
        assert!(fabric.max_plane_queue >= 8);
        assert!(
            reg_large > 3 * reg_small,
            "4x ports should ~4x the regulator buffer: {reg_small} -> {reg_large}"
        );
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
