//! The lower-bound family's record: one adversarial run against the shadow
//! output-queued switch, named once for every experiment that reads it
//! (e1–e5, e7, e11, e12, e14, e15, e18), with the claims the family states
//! on it.

use crate::claim::Claims;
use pps_analysis::{compare_bufferless_in, Comparison};
use pps_core::prelude::*;
use pps_switch::demux::RoundRobinDemux;
use pps_traffic::adversary::{concentration_attack, ConcentrationAttack, UrtBurstAttack};
use pps_traffic::min_burstiness;

/// An adversary's traffic and what it was built to force:
/// `[aligned, paper, exact, premise]`, as in [`AttackPoint`].
pub(crate) trait Attack {
    fn forces(self) -> (Trace, [u64; 4]);
}

impl Attack for ConcentrationAttack {
    /// The Theorem 6 construction is burst-free: its premise is `B = 0`.
    fn forces(self) -> (Trace, [u64; 4]) {
        let bounds = [
            self.d as u64,
            self.predicted_bound,
            self.model_exact_bound,
            0,
        ];
        (self.trace, bounds)
    }
}

impl Attack for UrtBurstAttack {
    /// The Theorem 10 burst: `m` inputs within burstiness `u'²·N/K − u'`.
    fn forces(self) -> (Trace, [u64; 4]) {
        let (m, paper, exact) = (self.m as u64, self.predicted_bound, self.model_exact_bound);
        (self.trace, [m, paper, exact, self.predicted_burstiness])
    }
}

/// One attack run: the inputs it concentrates (`aligned`: `d`, or `m` for
/// the u-RT burst), the paper's and the model-exact bound, the burstiness
/// the theorem's premise allows (0: burst-free), and what the PPS measured
/// against its shadow OQ — the traffic's minimal burstiness, the maximum
/// relative delay and the relative delay jitter.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackPoint {
    pub(crate) aligned: usize,
    pub(crate) paper: u64,
    pub(crate) exact: u64,
    pub(crate) premise: u64,
    pub(crate) burstiness: u64,
    pub(crate) delay: i64,
    pub(crate) jitter: i64,
}

impl AttackPoint {
    /// The headers of [`Self::cells`].
    pub(crate) const HEADERS: [&'static str; 5] = [
        "bound (paper)",
        "bound (exact)",
        "measured delay",
        "measured jitter",
        "traffic B",
    ];

    /// Record `attack` as `cmp` ran it; the attack must not wedge the
    /// switch.
    pub(crate) fn new(attack: impl Attack, cmp: &Comparison) -> Self {
        let (trace, [aligned, paper, exact, premise]) = attack.forces();
        let rd = cmp.relative_delay();
        assert_eq!(rd.pps_undelivered, 0, "attack must not wedge the switch");
        AttackPoint {
            aligned: aligned as usize,
            paper,
            exact,
            premise,
            burstiness: min_burstiness(&trace, cmp.n).overall(),
            delay: rd.max,
            jitter: cmp.relative_jitter(),
        }
    }

    /// The table cells under [`Self::HEADERS`].
    pub(crate) fn cells(&self) -> [String; 5] {
        let (delay, jitter) = (self.delay.to_string(), self.jitter.to_string());
        let [paper, exact, b] = [self.paper, self.exact, self.burstiness].map(|v| v.to_string());
        [paper, exact, delay, jitter, b]
    }

    /// The family's claims at one point: delay and jitter stand in `op`
    /// (`=` or `≥`) to the exact bound, and the traffic stays within the
    /// premise, which `premise` names.
    pub(crate) fn check(&self, claims: &mut Claims, op: &str, premise: &str) {
        let exact = format!("{op} bound (exact)");
        claims.check(&format!("measured delay {exact}"), self.delay, self.exact);
        claims.check(&format!("measured jitter {exact}"), self.jitter, self.exact);
        let within = format!("traffic B ≤ {premise}");
        claims.check(&within, self.burstiness, self.premise);
    }
}

/// The Corollary 7 attack: all `n` inputs against the round robin over `k`
/// planes at slowdown `r_prime`, with at most `4·K` probe cells.
pub(crate) fn round_robin_attack(n: usize, k: usize, r_prime: usize) -> ConcentrationAttack {
    let (rr, cfg) = (
        RoundRobinDemux::new(n, k),
        PpsConfig::bufferless(n, k, r_prime),
    );
    concentration_attack(&rr, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k)
}

/// The concentration attack on the first `group` inputs (at most `probes`
/// probe cells) against `demux` on the bufferless `cfg`, and its run.
pub(crate) fn concentration<D: Demultiplexor + Clone>(
    cfg: PpsConfig,
    demux: D,
    group: usize,
    probes: usize,
    sink: &Sink,
) -> (AttackPoint, Comparison) {
    let inputs: Vec<u32> = (0..group as u32).collect();
    let atk = concentration_attack(&demux, &cfg, &inputs, probes);
    let cmp = compare_bufferless_in(cfg, demux, &atk.trace, sink).expect("run");
    (AttackPoint::new(atk, &cmp), cmp)
}
