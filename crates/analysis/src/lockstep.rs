//! Running a PPS and its shadow switch on the same trace.
//!
//! "The switch used for the comparison is called a shadow switch … it
//! receives exactly the same stream of flows as the PPS" (paper, §1.1).
//! Both engines consume the identical [`Trace`]; the per-cell logs are
//! joined by cell id into a [`Comparison`], from which every relative
//! metric is derived.

use crate::metrics::{self, RelativeDelay};
use pps_core::prelude::*;
use pps_reference::oq::run_oq;
use pps_switch::engine::{BufferedPps, BufferlessPps, InputStage, Pps, PpsRun};
use pps_switch::fabric::FabricStats;

/// Joined result of one PPS run and one shadow-OQ run over the same trace.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The PPS side.
    pub pps: PpsRun,
    /// The shadow output-queued reference log.
    pub oq: RunLog,
    /// Ports of the switch (for reporting).
    pub n: usize,
}

impl Comparison {
    /// Relative queuing delay distribution.
    pub fn relative_delay(&self) -> RelativeDelay {
        metrics::relative_delay(&self.pps.log, &self.oq)
    }

    /// Relative delay jitter (max over flows).
    pub fn relative_jitter(&self) -> i64 {
        metrics::relative_jitter(&self.pps.log, &self.oq)
    }

    /// Fabric statistics of the PPS run.
    pub fn pps_stats(&self) -> &FabricStats {
        &self.pps.stats
    }

    /// Largest number of cells one plane carried for one output — the
    /// measured concentration `c` of Lemma 4, reconstructed from the log.
    pub fn max_concentration(&self) -> usize {
        let mut counts: std::collections::BTreeMap<(PlaneId, PortId), usize> = Default::default();
        for rec in self.pps.log.records() {
            if let Some(plane) = rec.plane() {
                *counts.entry((plane, rec.output)).or_default() += 1;
            }
        }
        counts.into_values().max().unwrap_or(0)
    }
}

/// The one lockstep: run `trace` through `pps` — built and configured
/// (fault plan, stepping mode) by the caller — and through the shadow OQ
/// switch. The shadow switch stays fault-free whatever `pps` replays:
/// relative metrics then measure pure degradation, not a shifted baseline.
fn compare<S: InputStage>(mut pps: Pps<S>, trace: &Trace) -> Result<Comparison, ModelError> {
    let n = pps.fabric().cfg().n;
    let run = pps.run(trace)?;
    // Free the fabric (K·N plane queues, N² flow states) before the
    // shadow run allocates its log: the two never need to coexist.
    drop(pps);
    let oq = run_oq(trace, n);
    Ok(Comparison { pps: run, oq, n })
}

/// Run `trace` through a bufferless PPS with `demux` and through the shadow
/// OQ switch.
///
/// ```
/// use pps_core::prelude::*;
/// use pps_switch::demux::RoundRobinDemux;
/// use pps_analysis::compare_bufferless;
///
/// let cfg = PpsConfig::bufferless(4, 4, 2);
/// let trace = Trace::build(vec![Arrival::new(0, 0, 1), Arrival::new(0, 1, 1)], 4)?;
/// let cmp = compare_bufferless(cfg, RoundRobinDemux::new(4, 4), &trace)?;
/// // Both round-robin pointers start at plane 0, so the two same-slot
/// // cells concentrate on it — a miniature Corollary 7: the second cell
/// // leaves one slot later than in the reference switch.
/// assert_eq!(cmp.relative_delay().max, 1);
/// assert_eq!(cmp.max_concentration(), 2);
/// # Ok::<(), pps_core::ModelError>(())
/// ```
pub fn compare_bufferless<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<Comparison, ModelError> {
    compare(BufferlessPps::new(cfg, demux)?, trace)
}

/// Run `trace` through an input-buffered PPS with `demux` and through the
/// shadow OQ switch.
pub fn compare_buffered<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<Comparison, ModelError> {
    compare(BufferedPps::new(cfg, demux)?, trace)
}

/// Like [`compare_bufferless`], but the PPS replays the scripted `faults`
/// mid-run.
pub fn compare_bufferless_faulted<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    faults: &FaultPlan,
) -> Result<Comparison, ModelError> {
    let mut pps = BufferlessPps::new(cfg, demux)?;
    pps.set_fault_plan(faults)?;
    compare(pps, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};

    fn diag_trace(n: usize, slots: Slot) -> Trace {
        let mut v = Vec::new();
        for s in 0..slots {
            for i in 0..n as u32 {
                v.push(Arrival::new(s, i, i));
            }
        }
        Trace::build(v, n).unwrap()
    }

    #[test]
    fn diagonal_traffic_has_zero_relative_delay() {
        // One flow per output: no contention anywhere, both switches are
        // pass-through.
        let cfg = PpsConfig::bufferless(4, 4, 2);
        let cmp = compare_bufferless(cfg, RoundRobinDemux::new(4, 4), &diag_trace(4, 64)).unwrap();
        let rd = cmp.relative_delay();
        assert_eq!(rd.pps_undelivered, 0);
        assert_eq!(rd.max, 0, "diagonal traffic must be pass-through");
        assert_eq!(cmp.relative_jitter(), 0);
    }

    #[test]
    fn buffered_engine_compares_too() {
        let cfg = PpsConfig::buffered(4, 4, 2, 8);
        let cmp =
            compare_buffered(cfg, BufferedRoundRobinDemux::new(4, 4), &diag_trace(4, 32)).unwrap();
        assert_eq!(cmp.relative_delay().pps_undelivered, 0);
        assert!(cmp.relative_delay().max <= 1);
    }

    #[test]
    fn concentration_is_reconstructed_from_the_log() {
        // All cells to one output through a 2-plane switch: concentration
        // is about half the cells with round robin.
        let cfg = PpsConfig::bufferless(2, 2, 2);
        let t = Trace::build(
            (0..8).map(|s| Arrival::new(s, (s % 2) as u32, 0)).collect(),
            2,
        )
        .unwrap();
        let cmp = compare_bufferless(cfg, RoundRobinDemux::new(2, 2), &t).unwrap();
        assert!(cmp.max_concentration() >= 4);
    }
}
