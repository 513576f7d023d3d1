//! E8 — Theorem 14: the extended fractional-traffic-dispatch algorithm
//! (block size `h·R/r`, `h > 1`, speedup `S ≥ h`) introduces **no relative
//! queuing delay during congested periods**, after a warm-up.
//!
//! A period is congested for output `j` when every plane's queue for `j`
//! is continuously backlogged; the `K` plane→output lines then jointly
//! deliver `K/r' = S > 1` cells per slot, so the output never idles — the
//! PPS output is work-conserving, emitting one cell per slot exactly like
//! the reference switch.
//!
//! Measured three ways: (a) the slot at which congestion sets in (the
//! warm-up), (b) work-conservation violations of the hot output inside the
//! congested window (expected 0), (c) departure-rank relative delay inside
//! the window (expected 0 — both switches emit the `k`-th congested cell
//! in the same slot).

use crate::claim::Claims;
use crate::ExperimentOutput;
use pps_analysis::{metrics, Table};
use pps_core::oracle;
use pps_core::prelude::*;
use pps_core::stepping::{self, SlotEngine};
use pps_core::sweep::SweepPlan;
use pps_reference::oq::run_oq_in;
use pps_switch::demux::FtdDemux;
use pps_switch::engine::BufferlessPps;
use pps_traffic::adversary::congestion_traffic;

/// Outcome of one congestion run.
#[derive(Clone, Debug)]
pub(crate) struct CongestionOutcome {
    /// First slot at which all `K` plane queues for the hot output were
    /// simultaneously backlogged (`None` if congestion never set in).
    pub(crate) congestion_start: Option<Slot>,
    /// Work-conservation violations of the hot output inside the window.
    pub(crate) wc_violations: usize,
    /// Maximum |departure-rank delta| inside the window.
    pub(crate) max_rank_delta: i64,
    /// Cells compared rank-wise.
    pub(crate) ranks: usize,
    /// Maximum deviation of the hot output's in-fabric occupancy from the
    /// Theorem-14 ramp (slope `senders − 1` per slot) inside the window.
    pub(crate) shape_dev: u64,
    /// Occupancy samples taken inside the window.
    pub(crate) shape_samples: usize,
    /// The ramp oracle's verdict ([`pps_core::oracle::check_linear_ramp`]).
    pub(crate) shape_violation: Option<pps_core::OracleViolation>,
}

/// The PPS under test plus the Theorem-14 probe: after every slot it notes
/// when congestion first sets in and, from then until the overload ends,
/// samples the hot output's in-fabric occupancy.
struct Probe {
    pps: BufferlessPps<FtdDemux>,
    duration: Slot,
    congestion_start: Option<Slot>,
    series: Vec<(Slot, u64)>,
}

impl SlotEngine for Probe {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        self.pps.slot(now, arrivals, log)?;
        let fabric = self.pps.fabric();
        if self.congestion_start.is_none() && fabric.all_planes_backlogged_for(0) {
            self.congestion_start = Some(now);
        }
        if self.congestion_start.is_some() && now < self.duration {
            self.series.push((now, fabric.queued_for(0) as u64));
        }
        Ok(())
    }

    fn backlog(&self) -> usize {
        self.pps.backlog()
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        self.pps.next_activity(now)
    }

    fn skip_idle(&mut self, from: Slot, to: Slot) {
        self.pps.skip_idle(from, to)
    }
}

/// Run the congestion scenario with the extended-FTD demultiplexor.
pub(crate) fn point(
    n: usize,
    k: usize,
    r_prime: usize,
    h: usize,
    duration: Slot,
    sink: &Sink,
) -> CongestionOutcome {
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    cfg.validate().expect("valid sweep point");
    // Congestion requires overdriving the *planes*, i.e. offering more
    // than the aggregate plane->output drain rate K/r' = S.
    let senders = k / r_prime + 1;
    let traffic = congestion_traffic(n, 0, senders, duration);
    let mut probe = Probe {
        pps: BufferlessPps::new_in(cfg, FtdDemux::new(n, k, r_prime, h), sink).expect("engine"),
        duration,
        congestion_start: None,
        series: Vec::new(),
    };
    let cap = duration + (traffic.trace.len() as Slot + 2) * (r_prime as Slot + 1) + 64;
    // Dense: the probe samples every slot of the window.
    let (log, _) = stepping::drive(&mut probe, &traffic.trace, n, cap, Stepping::Dense)
        .expect("model-legal run");
    let (congestion_start, series) = (probe.congestion_start, probe.series);
    let oq = run_oq_in(&traffic.trace, n, sink);
    // The congested window: from observed onset to the end of the
    // overload. Cells arriving inside it are the theorem's subjects.
    let window = (congestion_start.unwrap_or(duration), duration);
    let wc_violations = oracle::check_work_conserving(&log, PortId(0), Some(window)).len();
    let deltas = metrics::rank_relative_delay(&log, &oq, PortId(0), window);
    // Theorem 14 makes the hot output work-conserving inside the window
    // (one departure per slot) while the adversary offers `senders` cells
    // per slot, so the sampled occupancy must ramp linearly at
    // `senders - 1` — the executable "bound shape" checked below.
    let slope = senders as i64 - 1;
    // The shape tolerance covers one slot's worth of in-flight jitter on
    // either side of the ideal ramp plus the r'-slot line granularity.
    let tolerance = 2 * senders as u64 + 2 * r_prime as u64 + 4;
    CongestionOutcome {
        congestion_start,
        wc_violations,
        max_rank_delta: deltas.iter().copied().map(i64::abs).max().unwrap_or(0),
        ranks: deltas.len(),
        shape_dev: oracle::max_ramp_deviation(&series, slope),
        shape_samples: series.len(),
        shape_violation: oracle::check_linear_ramp(&series, slope, tolerance),
    }
}

/// Run the default sweep over the block parameter `h`.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime, duration) = (16, 8, 2, 800u64);
    let mut table = Table::new(
        format!(
            "Theorem 14: N={n}, K={k}, r'={r_prime} (S=4), S+1 cells/slot on output 0 for {duration} slots"
        ),
        &[
            "h",
            "warm-up (slots)",
            "wc violations in window",
            "max rank delta",
            "ranks compared",
            "ramp dev (slope S)",
        ],
    );
    let mut claims = Claims::default();
    let plan = SweepPlan::new_in("e8", vec![2usize, 3, 4], sink);
    let results = plan.run(|pt| point(n, k, r_prime, *pt.params, duration, pt.sink));
    for (&h, out) in plan.points().iter().zip(results) {
        let warm = out.congestion_start;
        claims.at(format!("h = {h}"));
        let onset = warm.unwrap_or(duration);
        claims.check("warm-up (slots) < duration", onset, duration);
        claims.check("wc violations in window = 0", out.wc_violations, 0);
        claims.check("max rank delta ≤ 1", out.max_rank_delta, 1);
        claims.check("ranks compared > 0", out.ranks, 0);
        claims.check("ramp samples > 0", out.shape_samples, 0);
        let off_ramp = usize::from(out.shape_violation.is_some());
        claims.check("ramp oracle violations = 0", off_ramp, 0);
        table.row_display(&[
            h.to_string(),
            warm.map_or("never".into(), |w| w.to_string()),
            out.wc_violations.to_string(),
            out.max_rank_delta.to_string(),
            out.ranks.to_string(),
            out.shape_dev.to_string(),
        ]);
    }
    ExperimentOutput::new(
        "e8",
        "Theorem 14 — extended FTD: zero relative queuing delay in congested periods",
        vec![table],
        &[
            "rank delta compares the slot of the k-th congested-window departure in \
             each switch: 0 means the PPS output tracks the work-conserving reference \
             cell-for-cell",
            "the warm-up period is when plane queues fill; Section 5 notes it shrinks \
             as h grows",
            "rank deltas of +-1 slot at the window boundary come from the PPS serving \
             one pre-congestion straggler in a different interleaving; the delta does \
             not grow with the congestion duration (checked up to 3200 slots)",
            "ramp dev: max deviation of the hot output's in-fabric occupancy from the \
             Theorem-14 shape (linear ramp at S = senders-1 per slot inside the \
             congested window), checked by the chaos oracle layer's linear-ramp \
             invariant; pass requires it within one slot of in-flight jitter",
        ],
        claims,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_sets_in_and_output_never_idles() {
        let out = point(8, 8, 2, 2, 400, &Sink::default());
        assert!(out.congestion_start.is_some(), "congestion must set in");
        assert_eq!(out.wc_violations, 0, "output idled during congestion");
        assert!(
            out.max_rank_delta <= 1,
            "PPS fell behind the reference: {}",
            out.max_rank_delta
        );
        assert!(out.ranks > 100);
        assert!(out.shape_samples > 100, "window too short to check shape");
        assert!(
            out.shape_violation.is_none(),
            "occupancy off the Theorem-14 ramp: {:?} (dev {})",
            out.shape_violation,
            out.shape_dev
        );
    }

    #[test]
    fn full_run_passes() {
        let out = run(&Sink::default());
        assert!(out.pass, "{}", out.render());
    }
}
