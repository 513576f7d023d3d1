//! PPS configuration and validation.

use crate::error::ModelError;
use crate::rate::{speedup, Ratio};
use crate::time::Slot;
use crate::trace::MAX_PORTS;
use serde::{Deserialize, Serialize};

/// Planes a switch can have: a run log stores a plane in 16 bits, one
/// value of which means "no plane" (`K ≤ 65535`).
pub const MAX_PLANES: usize = crate::record::NO_PLANE as usize;

/// First-stage buffering model.
///
/// The base PPS of Iyer–Awadallah–McKeown is *bufferless*: an arriving cell
/// is demultiplexed to a plane immediately. Iyer & McKeown's *input-buffered
/// PPS* variant adds a finite buffer at each input port; Section 4 of the
/// paper studies how that buffer changes the attainable bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferSpec {
    /// No input buffers; every arrival is dispatched in its arrival slot.
    Bufferless,
    /// A finite buffer of `size` cells at every input port.
    Buffered {
        /// Capacity of each input-port buffer, in cells.
        size: usize,
    },
}

impl BufferSpec {
    /// Buffer capacity (0 for the bufferless switch).
    pub fn capacity(self) -> usize {
        match self {
            BufferSpec::Bufferless => 0,
            BufferSpec::Buffered { size } => size,
        }
    }
}

/// Emission discipline of the output multiplexors.
///
/// The paper's lower bounds are discipline-independent (Lemma 4 assumes only
/// that cells are not dropped), but the cited upper bounds target specific
/// reference disciplines, so the engine makes the discipline pluggable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputDiscipline {
    /// Emit cells respecting per-flow order; among eligible heads, prefer the
    /// cell that arrived to the switch earliest (then lowest id). The
    /// default: it matches the model requirement that flow order is
    /// preserved while staying work-conserving at the output.
    FlowFifo,
    /// Emit cells in global arrival order (the *globally FCFS* discipline of
    /// footnote 3): the output waits for the next-in-order cell even if
    /// later cells are already present. Used when mimicking a FCFS
    /// output-queued switch (CPA).
    GlobalFcfs,
    /// Emit any present cell, earliest-arrival-at-output first. Maximally
    /// work-conserving but may reorder flows; provided for ablations only.
    Greedy,
}

/// Static description of a PPS instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PpsConfig {
    /// Number of external ports (`N`): the switch is `N × N`.
    pub n: usize,
    /// Number of center-stage planes (`K`).
    pub k: usize,
    /// Internal slowdown `r' = R/r` (integer per the paper's assumption):
    /// an internal line carries at most one cell every `r_prime` slots.
    pub r_prime: usize,
    /// First-stage buffering.
    pub buffer: BufferSpec,
    /// Output-stage emission discipline.
    pub discipline: OutputDiscipline,
    /// Resequencer watchdog: if an output multiplexor holds cells but
    /// emits nothing for this many consecutive slots (a cell lost to a
    /// failed plane is head-of-line-blocking the discipline), it skips
    /// ahead past the missing cell. `None` disables the watchdog — the
    /// correct setting for fault-free runs, where a stall is a bug, not a
    /// loss.
    pub watchdog: Option<Slot>,
}

impl PpsConfig {
    /// A bufferless, flow-FIFO configuration — the common case in the
    /// paper's Section 3.
    pub fn bufferless(n: usize, k: usize, r_prime: usize) -> Self {
        PpsConfig {
            n,
            k,
            r_prime,
            buffer: BufferSpec::Bufferless,
            discipline: OutputDiscipline::FlowFifo,
            watchdog: None,
        }
    }

    /// An input-buffered configuration (Section 4).
    pub fn buffered(n: usize, k: usize, r_prime: usize, size: usize) -> Self {
        PpsConfig {
            n,
            k,
            r_prime,
            buffer: BufferSpec::Buffered { size },
            discipline: OutputDiscipline::FlowFifo,
            watchdog: None,
        }
    }

    /// Replace the output discipline.
    pub fn with_discipline(mut self, d: OutputDiscipline) -> Self {
        self.discipline = d;
        self
    }

    /// Enable the resequencer watchdog with a `timeout`-slot stall limit
    /// (see [`PpsConfig::watchdog`]).
    pub fn with_watchdog(mut self, timeout: Slot) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Speedup `S = K/r'` of this configuration.
    pub fn speedup(&self) -> Ratio {
        speedup(self.k, self.r_prime)
    }

    /// `N/S = N·r'/K` rounded down — the recurring quantity in the paper's
    /// bounds.
    pub fn n_over_s(&self) -> u64 {
        self.speedup().div_int_floor(self.n as u64)
    }

    /// Validate the configuration against the model's domain.
    ///
    /// `N` and `K` must fit the narrow columns of traces and logs
    /// ([`MAX_PORTS`], [`MAX_PLANES`]).
    ///
    /// Beyond positivity, a *bufferless* switch needs `K ≥ r'`: with one
    /// arrival per slot, up to `r'` cells may need distinct free input lines
    /// within any `r'`-slot window, and a bufferless input has nowhere to
    /// hold a cell while all its lines are busy.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if self.n == 0 {
            return fail("N must be positive".into());
        }
        if self.k == 0 {
            return fail("K must be positive".into());
        }
        if self.r_prime == 0 {
            return fail("r' = R/r must be positive".into());
        }
        if self.n > MAX_PORTS {
            return fail(format!(
                "N must be at most {MAX_PORTS} (got N = {}): a trace stores a port in 16 bits",
                self.n
            ));
        }
        if self.k > MAX_PLANES {
            return fail(format!(
                "K must be at most {MAX_PLANES} (got K = {}): a run log stores a plane in 16 bits",
                self.k
            ));
        }
        if matches!(self.buffer, BufferSpec::Bufferless) && self.k < self.r_prime {
            return fail(format!(
                "bufferless PPS requires K >= r' (got K = {}, r' = {}): an input \
                 receiving one cell per slot needs r' simultaneously-free lines",
                self.k, self.r_prime
            ));
        }
        if let BufferSpec::Buffered { size } = self.buffer {
            if size == 0 {
                return fail("input buffer size must be positive; use Bufferless instead".into());
            }
        }
        if self.watchdog == Some(0) {
            return fail("watchdog timeout must be positive; use None to disable".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_configuration_is_valid() {
        // Figure 1: a 5x5 PPS with 2 planes (bufferless). With r' = 2 this
        // needs K >= 2, which holds.
        let cfg = PpsConfig::bufferless(5, 2, 2);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.speedup(), Ratio::new(1, 1));
    }

    #[test]
    fn bufferless_requires_enough_planes() {
        let cfg = PpsConfig::bufferless(4, 2, 3);
        assert!(matches!(
            cfg.validate(),
            Err(ModelError::InvalidConfig { .. })
        ));
        // The same geometry is fine with input buffers.
        let cfg = PpsConfig::buffered(4, 2, 3, 8);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_sized_anything_is_rejected() {
        assert!(PpsConfig::bufferless(0, 2, 1).validate().is_err());
        assert!(PpsConfig::bufferless(2, 0, 1).validate().is_err());
        assert!(PpsConfig::bufferless(2, 2, 0).validate().is_err());
        assert!(PpsConfig::buffered(2, 2, 1, 0).validate().is_err());
    }

    #[test]
    fn geometry_past_the_narrow_columns_is_rejected() {
        let refused = |cfg: PpsConfig| match cfg.validate() {
            Err(ModelError::InvalidConfig { reason }) => reason,
            other => panic!("{cfg:?} validated as {other:?}"),
        };
        assert!(PpsConfig::bufferless(65_536, 65_535, 1).validate().is_ok());
        let n = refused(PpsConfig::bufferless(65_537, 8, 1));
        assert!(n.contains("N must be at most 65536"), "{n}");
        let k = refused(PpsConfig::buffered(16, 65_536, 1, 4));
        assert!(k.contains("K must be at most 65535"), "{k}");
        refused(PpsConfig::bufferless(70_000, 70_000, 4));
    }

    #[test]
    fn watchdog_zero_is_rejected() {
        assert!(PpsConfig::bufferless(2, 2, 1)
            .with_watchdog(0)
            .validate()
            .is_err());
        assert!(PpsConfig::bufferless(2, 2, 1)
            .with_watchdog(16)
            .validate()
            .is_ok());
    }

    #[test]
    fn n_over_s_matches_hand_computation() {
        // N = 64, K = 8, r' = 4 => S = 2, N/S = 32.
        assert_eq!(PpsConfig::bufferless(64, 8, 4).n_over_s(), 32);
        // N = 10, K = 3, r' = 2 => S = 3/2, N/S = 6 (floor of 6.67).
        assert_eq!(PpsConfig::bufferless(10, 3, 2).n_over_s(), 6);
    }
}
