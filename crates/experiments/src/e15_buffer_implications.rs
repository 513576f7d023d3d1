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

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_in, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_reference::regulator::{min_feasible_delay, regulate};
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::concentration_attack;

/// One sweep point: `(relative delay, plane HWM, output HWM, regulator
/// buffer, regulator residual jitter)`.
fn point(n: usize, k: usize, r_prime: usize, sink: &Sink) -> (i64, usize, usize, usize, u64) {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let demux = RoundRobinDemux::new(n, k);
    let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, sink).expect("run");
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    let d = min_feasible_delay(&cmp.pps.log);
    let reg = regulate(&cmp.pps.log, d);
    (
        rd.max,
        cmp.pps_stats().max_plane_queue,
        cmp.pps_stats().max_output_held,
        reg.buffer_required,
        reg.residual_jitter,
    )
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
    let mut pass = true;
    let mut prev: Option<(usize, i64, usize)> = None;
    let plan = SweepPlan::new_in("e15", vec![32usize, 64, 128, 256], sink);
    let results = plan.run(|pt| point(*pt.params, k, r_prime, pt.sink));
    // The doubling checks compare adjacent points, so they run post-merge
    // over the ordered results.
    for (&n, (delay, plane_hwm, out_hwm, reg_buf, resid)) in plan.points().iter().zip(results) {
        // The regulator buffer must absorb the early cells of the
        // concentration: at least a constant fraction of N.
        pass &= reg_buf >= n / 2 && plane_hwm >= n / 2 && resid == 0;
        if let Some((pn, pd, pb)) = prev {
            // Linear growth: doubling N roughly doubles both delay and buffers.
            let dr = delay as f64 / pd as f64;
            let br = reg_buf as f64 / pb as f64;
            pass &= (1.6..2.4).contains(&dr) && (1.6..2.4).contains(&br);
            let _ = pn;
        }
        prev = Some((n, delay, reg_buf));
        table.row_display(&[
            n.to_string(),
            delay.to_string(),
            plane_hwm.to_string(),
            out_hwm.to_string(),
            reg_buf.to_string(),
            resid.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "e15",
        title: "Buffer implications — the delay bounds priced in plane, resequencer and \
                jitter-regulator memory"
            .into(),
        tables: vec![table],
        notes: vec![
            "residual jitter 0: a regulator *can* flatten the PPS output — but only \
             by holding Theta(N) cells, the paper's suggested translation of the \
             delay lower bound into a buffer lower bound"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulator_buffer_scales_with_the_concentration() {
        let (delay, plane_hwm, _out, reg_small, _r) = point(16, 8, 4, &Sink::default());
        let (_d2, _p2, _o2, reg_large, _r2) = point(64, 8, 4, &Sink::default());
        assert!(delay > 0);
        assert!(plane_hwm >= 8);
        assert!(
            reg_large > 3 * reg_small,
            "4x ports should ~4x the regulator buffer: {reg_small} -> {reg_large}"
        );
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }
}
