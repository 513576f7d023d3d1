//! The concentration traffic `LB` of Theorem 6 (Figure 2).
//!
//! Three phases, composed exactly as in the proof:
//!
//! 1. **Alignment** — per aligned input `i`, the traffic `A_i` discovered
//!    by [`crate::adversary::alignment`]: probe cells for the hot output,
//!    spaced `r'` slots apart globally so (a) every dispatch sees all of
//!    its input's lines free (matching the probe's assumption), and (b)
//!    the hot output receives at most one cell per `r'` slots — burst-free.
//! 2. **Quiescence** — no arrivals until every buffer in every plane has
//!    certainly drained ("no cells arrive to the switch until all the
//!    buffers in all the planes are eventually empty").
//! 3. **Concentration burst** — `d` cells for the hot output, one per slot,
//!    each from a different aligned input (so no input sends twice and the
//!    output's arrival rate is exactly `R`): every one of them is
//!    dispatched to the same plane, which then needs `d·r'` slots to hand
//!    them to the output — Lemma 4 with `c = d`, `s = d`, `B = 0` gives
//!    relative delay and jitter at least `(R/r − 1)·d`.

use super::alignment::{AlignmentPlan, DispatchLog};
use pps_core::config::PpsConfig;
use pps_core::demux::Demultiplexor;
use pps_core::time::Slot;
use pps_core::trace::{Arrival, Trace};

/// A fully-built concentration attack.
#[derive(Clone, Debug)]
pub struct ConcentrationAttack {
    /// The composed traffic `LB`.
    pub trace: Trace,
    /// The alignment plan realized by phase 1.
    pub plan: AlignmentPlan,
    /// First slot of the concentration burst.
    pub burst_start: Slot,
    /// Number of burst cells (`d`).
    pub d: usize,
    /// The paper's predicted lower bound `(R/r − 1)·d` in slots.
    pub predicted_bound: u64,
    /// The bound re-derived under this model's timing convention, where a
    /// plane's first delivery completes in its starting slot (the paper
    /// itself allows a cell to traverse the PPS in its arrival slot):
    /// deliveries happen at `t, t+r', …, t+(d−1)r'`, so the worst cell
    /// waits `(R/r − 1)·(d − 1)` slots. Asymptotically identical to
    /// [`Self::predicted_bound`]; exact for assertions.
    pub model_exact_bound: u64,
    /// Human-readable phase narration (the Figure 2 storyboard).
    pub phase_log: Vec<String>,
}

/// Build the Theorem 6 traffic against a concrete demultiplexor.
///
/// `inputs` is the candidate concentrating set (use `0..N` for the
/// unpartitioned Corollary 7 case); the hot output is fixed to 0 w.l.o.g.
/// and the plane maximizing the achievable concentration is chosen by
/// probing the automaton.
///
/// ```
/// use pps_core::prelude::*;
/// use pps_switch::demux::RoundRobinDemux;
/// use pps_traffic::adversary::concentration_attack;
/// use pps_traffic::min_burstiness;
///
/// let cfg = PpsConfig::bufferless(8, 4, 2);
/// let atk = concentration_attack(
///     &RoundRobinDemux::new(8, 4), &cfg, &(0..8).collect::<Vec<_>>(), 16,
/// );
/// assert_eq!(atk.d, 8);                               // everyone aligned
/// assert!(min_burstiness(&atk.trace, 8).burst_free()); // Theorem 6 premise
/// assert_eq!(atk.predicted_bound, (2 - 1) * 8);        // (R/r - 1) * N
/// ```
pub fn concentration_attack<D: Demultiplexor + Clone>(
    demux: &D,
    cfg: &PpsConfig,
    inputs: &[u32],
    max_probes: usize,
) -> ConcentrationAttack {
    concentration_attack_on(demux, cfg, inputs, 0, max_probes)
}

/// [`concentration_attack`] with an explicit hot output — used to compose
/// simultaneous attacks on several outputs (the bounds are per-output, so
/// attacks over disjoint input sets and distinct outputs superpose).
pub fn concentration_attack_on<D: Demultiplexor + Clone>(
    demux: &D,
    cfg: &PpsConfig,
    inputs: &[u32],
    hot_output: u32,
    max_probes: usize,
) -> ConcentrationAttack {
    let r_prime = cfg.r_prime as Slot;
    // One forward recording of every input's trajectory; the best plane's
    // plan is a table scan (no per-plane re-runs, no per-peek clones).
    let plan = DispatchLog::record(demux, inputs, cfg.k, hot_output, max_probes).best_plan();
    let mut phase_log = Vec::new();
    let mut arrivals: Vec<Arrival> = Vec::new();

    // Phase 1: alignment cells, spaced r' slots apart globally.
    let mut cursor: Slot = 0;
    for &(input, count) in &plan.probes {
        for _ in 0..count {
            arrivals.push(Arrival::new(cursor, input, hot_output));
            cursor += r_prime;
        }
    }
    phase_log.push(format!(
        "phase 1 (alignment): {} cells steer {} demultiplexors toward plane {} for output {} \
         (slots 0..{})",
        plan.total_probes(),
        plan.d(),
        plan.plane,
        hot_output,
        cursor
    ));

    // Phase 2: quiescence. Worst case every alignment cell sits in one
    // plane queue: draining takes (cells + 1) * r' slots; add slack.
    let gap = (plan.total_probes() as Slot + 2) * r_prime + 2 * r_prime;
    let burst_start = cursor + gap;
    phase_log.push(format!(
        "phase 2 (quiescence): no arrivals for {gap} slots; all plane buffers drain"
    ));

    // Phase 3: d cells, one per slot, from distinct aligned inputs.
    let d = plan.d();
    for (offset, &(input, _)) in plan.probes.iter().enumerate() {
        arrivals.push(Arrival::new(
            burst_start + offset as Slot,
            input,
            hot_output,
        ));
    }
    phase_log.push(format!(
        "phase 3 (burst): {d} cells for output {hot_output}, one per slot from distinct \
         inputs, starting at slot {burst_start}; all land on plane {}",
        plan.plane
    ));

    // Phase 4 (jitter witness, from Lemma 4's proof): after the burst has
    // certainly drained, a lone cell of the *last* burst flow arrives to an
    // empty switch and departs immediately — the spread between it and its
    // flow-mate stuck behind the concentration is the delay jitter.
    if let Some(&(last_input, _)) = plan.probes.last() {
        let drain = (d as Slot + 2) * r_prime + 2 * r_prime;
        let witness_slot = burst_start + d as Slot + drain;
        arrivals.push(Arrival::new(witness_slot, last_input, hot_output));
        phase_log.push(format!(
            "phase 4 (jitter witness): one cell of flow ({last_input} -> {hot_output}) at \
             slot {witness_slot}, after all buffers drain"
        ));
    }

    let predicted_bound = pps_core::bounds::theorem6(cfg.r_prime, d);
    let model_exact_bound = pps_core::bounds::theorem6_exact(cfg.r_prime, d);
    let trace = Trace::build(arrivals, cfg.n).expect("attack slots are distinct per input");
    ConcentrationAttack {
        trace,
        plan,
        burst_start,
        d,
        predicted_bound,
        model_exact_bound,
        phase_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaky_bucket::min_burstiness;
    use pps_core::cell::Cell;
    use pps_core::demux::{Demultiplexor, DispatchCtx, InfoClass};
    use pps_core::ids::PlaneId;

    /// Round-robin clone for testing without depending on pps-switch.
    #[derive(Clone)]
    struct Rr {
        next: Vec<u32>,
        k: u32,
    }
    impl Rr {
        fn new(n: usize, k: usize) -> Self {
            Rr {
                next: vec![0; n],
                k: k as u32,
            }
        }
    }
    impl Demultiplexor for Rr {
        fn info_class(&self) -> InfoClass {
            InfoClass::FullyDistributed
        }
        fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
            let i = cell.input.idx();
            let p = ctx.local.next_free_from(self.next[i] as usize).unwrap();
            self.next[i] = (p as u32 + 1) % self.k;
            PlaneId(p as u32)
        }
    }

    #[test]
    fn attack_traffic_is_burst_free() {
        let cfg = PpsConfig::bufferless(8, 4, 2);
        let inputs: Vec<u32> = (0..8).collect();
        let atk = concentration_attack(&Rr::new(8, 4), &cfg, &inputs, 16);
        assert_eq!(atk.d, 8, "all inputs align on a round robin");
        let rep = min_burstiness(&atk.trace, 8);
        assert!(
            rep.burst_free(),
            "Theorem 6 requires burst-free traffic: {rep:?}"
        );
    }

    #[test]
    fn predicted_bound_matches_formula() {
        let cfg = PpsConfig::bufferless(16, 8, 4);
        let inputs: Vec<u32> = (0..16).collect();
        let atk = concentration_attack(&Rr::new(16, 8), &cfg, &inputs, 16);
        // (R/r - 1) * d = 3 * 16.
        assert_eq!(atk.predicted_bound, 48);
    }

    #[test]
    fn burst_cells_come_from_distinct_inputs_one_per_slot() {
        let cfg = PpsConfig::bufferless(4, 4, 2);
        let inputs: Vec<u32> = (0..4).collect();
        let atk = concentration_attack(&Rr::new(4, 4), &cfg, &inputs, 16);
        let burst: Vec<_> = atk
            .trace
            .arrivals()
            .filter(|a| a.slot >= atk.burst_start && a.slot < atk.burst_start + atk.d as Slot)
            .collect();
        assert_eq!(burst.len(), atk.d);
        let slots: Vec<Slot> = burst.iter().map(|a| a.slot).collect();
        let want: Vec<Slot> = (0..atk.d as Slot).map(|o| atk.burst_start + o).collect();
        assert_eq!(slots, want);
        let inputs_used: std::collections::BTreeSet<u32> =
            burst.iter().map(|a| a.input.0).collect();
        assert_eq!(inputs_used.len(), atk.d);
    }

    #[test]
    fn phase_log_tells_the_figure_2_story() {
        let cfg = PpsConfig::bufferless(4, 2, 2);
        let atk = concentration_attack(&Rr::new(4, 2), &cfg, &[0, 1, 2, 3], 8);
        assert_eq!(atk.phase_log.len(), 4);
        assert!(atk.phase_log[0].contains("alignment"));
        assert!(atk.phase_log[1].contains("quiescence"));
        assert!(atk.phase_log[2].contains("burst"));
    }
}
