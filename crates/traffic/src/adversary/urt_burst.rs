//! The hidden-window burst of Theorem 10 / Corollary 11.
//!
//! A `u`-RT demultiplexor deciding at slot `t` knows the global switch
//! state only up to `t − u`; everything the *other* inputs did in the last
//! `u` slots is invisible to it. The adversary exploits the blind spot:
//!
//! * Let `u' = min(u, r'/2)` and `m = ⌊u'·N/K⌋`.
//! * Starting from an empty, quiescent switch, `m` inputs simultaneously
//!   send `u'` back-to-back cells each, all for the same output `j`.
//! * Throughout the burst every stale view still shows the pre-burst
//!   (empty) switch, and each input sees only its own sends — so the `m`
//!   symmetric automata make *identical* plane choices: position-`p` cells
//!   of every input land on the same plane, concentrating `m` cells per
//!   touched plane.
//!
//! Lemma 4 with `c = m`, `s = u'` and burstiness `B = u'²·N/K − u'` yields
//! relative delay and jitter at least `m·(r' − u') = (1 − u'·r/R)·u'·N/S`.
//! With `u = 1` (any real-time distributed algorithm) this specializes to
//! Corollary 11's `(1 − r/R)·N/S` under burstiness `N/K − 1`.

use pps_core::bounds;
use pps_core::config::PpsConfig;
use pps_core::time::Slot;
use pps_core::trace::{Arrival, Trace};

/// A fully-built u-RT burst attack.
#[derive(Clone, Debug)]
pub struct UrtBurstAttack {
    /// The burst traffic.
    pub trace: Trace,
    /// Effective window `u' = min(u, r'/2)`.
    pub u_eff: Slot,
    /// Number of coordinated inputs `m = ⌊u'·N/K⌋`.
    pub m: usize,
    /// The hot output.
    pub hot_output: u32,
    /// First slot of the burst (placed after the information horizon so
    /// stale views predate it).
    pub burst_start: Slot,
    /// Paper bound `m·(r' − u')` in slots.
    pub predicted_bound: u64,
    /// Model-exact bound `(m − 1)·(r' − u')`: as in the concentration
    /// attack, the first delivery of a plane completes in its starting
    /// slot under this model's timing convention.
    pub model_exact_bound: u64,
    /// Paper burstiness premise `u'²·N/K − u'` (the traffic's actual
    /// minimal burstiness is `u'·(m − 1) ≤` this).
    pub predicted_burstiness: u64,
}

/// Build the Theorem 10 traffic for a switch configuration and information
/// delay `u`.
///
/// # Panics
/// Panics if the parameters degenerate (`u' < 1` or `m < 1`) — callers
/// should pick `r' ≥ 2` and `N ≥ K`.
pub fn urt_burst_attack(cfg: &PpsConfig, u: Slot) -> UrtBurstAttack {
    let r_prime = cfg.r_prime as Slot;
    let u_eff = bounds::u_effective(cfg.r_prime, u);
    let m = (bounds::theorem10_m(cfg, u) as usize).min(cfg.n);
    assert!(
        m >= 1,
        "need u'*N/K >= 1 (got N={}, K={}, u'={u_eff})",
        cfg.n,
        cfg.k
    );
    let hot_output = 0u32;
    // Start after the stale horizon: views during [start, start+u') are
    // taken at <= start + u' - 1 - u < start, i.e. before the burst.
    let burst_start = u + 4;
    let mut arrivals = Vec::new();
    for input in 0..m as u32 {
        for pos in 0..u_eff {
            arrivals.push(Arrival::new(burst_start + pos, input, hot_output));
        }
    }
    // Jitter witness (Lemma 4's proof): a lone cell of the last flow after
    // everything drains, so the flow's jitter spans the concentration delay.
    let drain = (m as Slot * u_eff + 2) * r_prime;
    arrivals.push(Arrival::new(
        burst_start + u_eff + drain,
        m as u32 - 1,
        hot_output,
    ));
    let trace = Trace::build(arrivals, cfg.n).expect("one cell per (slot, input)");
    UrtBurstAttack {
        trace,
        u_eff,
        m,
        hot_output,
        burst_start,
        predicted_bound: bounds::theorem10(cfg, u),
        model_exact_bound: bounds::theorem10_exact(cfg, u),
        predicted_burstiness: bounds::theorem10_burstiness(cfg, u),
    }
}

/// Check Theorem 10's symmetry premise against a concrete automaton.
///
/// During the blind window every coordinated input decides on a stale
/// (pre-burst, empty) global view and its own all-free lines, so the `m`
/// symmetric automata should make *identical* plane choices at every burst
/// position. This records each input's forward trajectory with the
/// one-pass recorder (`record_trajectories` — no automaton clones) and
/// returns, per burst position `0..u'`, the modal plane and how many of
/// the `m` inputs chose it: a count of `m` at every position certifies the
/// full `m`-cell concentration the bound charges. Test-only: no experiment
/// reads the profile; the unit test holds the real round-robin automaton
/// to the premise with it.
#[cfg(test)]
fn burst_concentration<D: pps_core::demux::Demultiplexor + Clone>(
    demux: &D,
    cfg: &PpsConfig,
    u: Slot,
) -> Vec<(u32, usize)> {
    let u_eff = bounds::u_effective(cfg.r_prime, u) as usize;
    let m = (bounds::theorem10_m(cfg, u) as usize).min(cfg.n);
    let inputs: Vec<u32> = (0..m as u32).collect();
    let traj = super::alignment::record_trajectories(demux, &inputs, cfg.k, 0, u_eff);
    (0..u_eff)
        .map(|pos| {
            let mut counts = vec![0usize; cfg.k];
            for row in 0..m {
                counts[traj[row * u_eff + pos].idx()] += 1;
            }
            let (plane, &count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .expect("k >= 1");
            (plane as u32, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaky_bucket::min_burstiness;

    #[test]
    fn geometry_matches_the_theorem() {
        // N = 32, K = 8, r' = 8 (S = 1), u = 4: u' = min(4, 4) = 4,
        // m = 4*32/8 = 16, bound = 16*(8-4) = 64.
        let cfg = PpsConfig::bufferless(32, 8, 8);
        let atk = urt_burst_attack(&cfg, 4);
        assert_eq!(atk.u_eff, 4);
        assert_eq!(atk.m, 16);
        assert_eq!(atk.predicted_bound, 64);
        assert_eq!(atk.predicted_burstiness, 4 * 4 * 32 / 8 - 4);
    }

    #[test]
    fn u_prime_is_capped_by_half_r_prime() {
        let cfg = PpsConfig::bufferless(16, 8, 4);
        let atk = urt_burst_attack(&cfg, 100);
        assert_eq!(atk.u_eff, 2);
    }

    #[test]
    fn actual_burstiness_is_within_the_premise() {
        let cfg = PpsConfig::bufferless(32, 8, 8);
        let atk = urt_burst_attack(&cfg, 4);
        let b = min_burstiness(&atk.trace, cfg.n).overall();
        assert!(
            b <= atk.predicted_burstiness,
            "measured B {b} exceeds theorem premise {}",
            atk.predicted_burstiness
        );
        // m inputs per slot for u' slots: B = u'*(m-1)... window arithmetic
        // gives (m-1) + (u'-1)*(m-1) = u'*(m-1).
        assert_eq!(b, atk.u_eff * (atk.m as u64 - 1));
    }

    #[test]
    fn burst_lies_beyond_the_information_horizon() {
        let cfg = PpsConfig::bufferless(16, 4, 4);
        let u = 2;
        let atk = urt_burst_attack(&cfg, u);
        assert!(atk.burst_start > u);
        // Stale view during the last burst slot predates the burst.
        let last_burst_slot = atk.burst_start + atk.u_eff - 1;
        assert!(last_burst_slot - u < atk.burst_start);
    }

    #[test]
    fn symmetric_automata_concentrate_fully() {
        // N = 32, K = 8, r' = 8, u = 4: m = 16 coordinated inputs. Round
        // robin is symmetric (every input starts at plane 0), so all m
        // inputs make identical choices at every burst position — the
        // premise Theorem 10 charges for.
        let cfg = PpsConfig::bufferless(32, 8, 8);
        let demux = pps_switch::demux::RoundRobinDemux::new(32, 8);
        let atk = urt_burst_attack(&cfg, 4);
        let prof = burst_concentration(&demux, &cfg, 4);
        assert_eq!(prof.len(), atk.u_eff as usize);
        for (pos, &(plane, count)) in prof.iter().enumerate() {
            assert_eq!(count, atk.m, "position {pos} not fully concentrated");
            assert_eq!(plane, pos as u32 % 8);
        }
    }

    #[test]
    fn corollary_11_specialization() {
        // u = 1: bound (1 - r/R) * N/S = (1 - 1/r') * N*r'/K = N(r'-1)/K.
        let cfg = PpsConfig::bufferless(64, 8, 4);
        let atk = urt_burst_attack(&cfg, 1);
        assert_eq!(atk.u_eff, 1);
        assert_eq!(atk.m, 64 / 8);
        // m*(r'-u') = 8*3 = 24 = N(r'-1)/K * ... check against closed form:
        let closed = (cfg.n as u64) * (cfg.r_prime as u64 - 1) / cfg.k as u64;
        assert_eq!(atk.predicted_bound, closed);
        // Burstiness N/K - 1.
        assert_eq!(atk.predicted_burstiness, (cfg.n / cfg.k) as u64 - 1);
    }
}
