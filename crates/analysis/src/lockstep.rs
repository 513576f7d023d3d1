//! Running a PPS and its shadow switch on the same trace.
//!
//! "The switch used for the comparison is called a shadow switch … it
//! receives exactly the same stream of flows as the PPS" (paper, §1.1).
//! Both engines consume the identical [`Trace`]; the per-cell logs are
//! joined by cell id into a [`Comparison`], from which every relative
//! metric is derived.

use crate::metrics::{self, RelativeDelay};
use pps_core::prelude::*;
use pps_core::process;
use pps_reference::oq::run_oq_in;
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
        metrics::relative_jitter(&self.pps.log, self.oq.departures())
    }

    /// Fabric statistics of the PPS run.
    pub fn pps_stats(&self) -> &FabricStats {
        &self.pps.stats
    }
}

/// The one lockstep: run `trace` through `pps` — built in the run `sink`
/// records and configured (fault plan) by the caller — and through the
/// shadow OQ switch. The shadow switch stays fault-free whatever `pps`
/// replays: relative metrics then measure pure degradation, not a shifted
/// baseline.
fn compare<S: InputStage>(
    mut pps: Pps<S>,
    trace: &Trace,
    sink: &Sink,
) -> Result<Comparison, ModelError> {
    let n = pps.fabric().cfg().n;
    let run = pps.run(trace)?;
    // Free the fabric (K·N plane queues, N² flow states) before the
    // shadow run allocates its log: the two never need to coexist.
    drop(pps);
    let oq = run_oq_in(trace, n, sink);
    Ok(Comparison { pps: run, oq, n })
}

/// Run `trace` through a bufferless PPS with `demux` and through the shadow
/// OQ switch, in the run `sink` records.
///
/// ```
/// use pps_core::prelude::*;
/// use pps_core::run::Sink;
/// use pps_switch::demux::RoundRobinDemux;
/// use pps_analysis::{compare_bufferless_in, metrics::max_concentration};
///
/// let cfg = PpsConfig::bufferless(4, 4, 2);
/// let trace = Trace::build(vec![Arrival::new(0, 0, 1), Arrival::new(0, 1, 1)], 4)?;
/// let cmp = compare_bufferless_in(cfg, RoundRobinDemux::new(4, 4), &trace, &Sink::default())?;
/// // Both round-robin pointers start at plane 0, so the two same-slot
/// // cells concentrate on it — a miniature Corollary 7: the second cell
/// // leaves one slot later than in the reference switch.
/// assert_eq!(cmp.relative_delay().max, 1);
/// assert_eq!(max_concentration(&cmp.pps.log), 2);
/// # Ok::<(), pps_core::ModelError>(())
/// ```
pub fn compare_bufferless_in<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    sink: &Sink,
) -> Result<Comparison, ModelError> {
    compare(BufferlessPps::new_in(cfg, demux, sink)?, trace, sink)
}

/// Run `trace` through an input-buffered PPS with `demux` and through the
/// shadow OQ switch, in the run `sink` records.
pub fn compare_buffered_in<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    sink: &Sink,
) -> Result<Comparison, ModelError> {
    compare(BufferedPps::new_in(cfg, demux, sink)?, trace, sink)
}

/// Like [`compare_bufferless_in`], but the PPS replays the scripted
/// `faults` mid-run.
pub fn compare_bufferless_faulted_in<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    faults: &FaultPlan,
    sink: &Sink,
) -> Result<Comparison, ModelError> {
    let mut pps = BufferlessPps::new_in(cfg, demux, sink)?;
    pps.set_fault_plan(faults)?;
    compare(pps, trace, sink)
}

/// [`compare_bufferless_in`] on the process default: a shim of the
/// benchmark seam (DESIGN.md, "The benchmark's surface").
pub fn compare_bufferless<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<Comparison, ModelError> {
    compare_bufferless_in(cfg, demux, trace, &process::sink())
}

/// [`compare_buffered_in`] on the process default: a shim of the
/// benchmark seam.
pub fn compare_buffered<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
) -> Result<Comparison, ModelError> {
    compare_buffered_in(cfg, demux, trace, &process::sink())
}

/// [`compare_bufferless_faulted_in`] on the process default: a shim of the
/// benchmark seam.
pub fn compare_bufferless_faulted<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    faults: &FaultPlan,
) -> Result<Comparison, ModelError> {
    compare_bufferless_faulted_in(cfg, demux, trace, faults, &process::sink())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_switch::demux::{BufferedRoundRobinDemux, RoundRobinDemux};

    fn sink() -> Sink {
        Sink::default()
    }

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
        let cmp =
            compare_bufferless_in(cfg, RoundRobinDemux::new(4, 4), &diag_trace(4, 64), &sink())
                .unwrap();
        let rd = cmp.relative_delay();
        assert_eq!(rd.pps_undelivered, 0);
        assert_eq!(rd.max, 0, "diagonal traffic must be pass-through");
        assert_eq!(cmp.relative_jitter(), 0);
    }

    #[test]
    fn buffered_engine_compares_too() {
        let cfg = PpsConfig::buffered(4, 4, 2, 8);
        let cmp = compare_buffered_in(
            cfg,
            BufferedRoundRobinDemux::new(4, 4),
            &diag_trace(4, 32),
            &sink(),
        )
        .unwrap();
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
        let cmp = compare_bufferless_in(cfg, RoundRobinDemux::new(2, 2), &t, &sink()).unwrap();
        assert!(crate::metrics::max_concentration(&cmp.pps.log) >= 4);
    }
}
