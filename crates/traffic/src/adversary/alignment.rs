//! Generic demultiplexor state steering.
//!
//! The proof of Theorem 6 picks, for each input `i` in the concentrating
//! set, a traffic `A_i` that drives demultiplexor `i` into a state `σ_i`
//! from which its next cell for output `j` is dispatched to plane `k`.
//! The paper gets `A_i`'s existence from the assumption that the switch's
//! applicable configurations form a strongly-connected graph; here we
//! *search* for it by running the real automaton.
//!
//! A demultiplexor probed with all lines free is a deterministic automaton,
//! so its dispatch trajectory — the sequence of planes it picks for
//! consecutive cells of one flow — is a fixed sequence that a **single
//! forward run** can record. [`DispatchLog::record`] performs that run
//! once per input (at most `max_probes + 1` dispatches, stopping early
//! once every plane has appeared) and stores, per input, the *first
//! position* at which each plane occurs. The alignment plan for *every*
//! candidate plane then falls out by scanning that table: input `i` aligns
//! to plane `k` after exactly `first_occurrence(i, k)` probe cells. No
//! automaton state is cloned per peek, per probe, or per candidate plane —
//! the search clones the automaton once and drives that copy forward.
//!
//! This is exact for every fully-distributed demultiplexor in the
//! workspace (round robin, per-flow round robin, static partition,
//! seeded-randomized): their state is per input port — Definition 5 gives
//! them nothing else to key on under a fixed all-free local view — so one
//! input's probes cannot perturb another's trajectory, and probing a plane
//! never depends on which plane the adversary later commits to. The
//! clone-per-peek reference implementation is retained under `#[cfg(test)]`
//! (`oracle`) and the property tests prove plan-for-plan equality
//! against it.
//!
//! The driver works for any `Demultiplexor + Clone`, including the seeded
//! randomized one, whose RNG state rides along in the working copy.

use pps_core::cell::Cell;
use pps_core::demux::{probe_dispatch, Demultiplexor};
#[cfg(test)]
use pps_core::ids::PlaneId;
use pps_core::ids::{CellId, PortId};
use pps_core::time::Slot;

/// Result of steering a set of inputs toward `(output, plane)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignmentPlan {
    /// The hot output `j`.
    pub output: u32,
    /// The concentrating plane `k`.
    pub plane: u32,
    /// Per aligned input: `(input, probe cells consumed)`. After consuming
    /// that many cells for `output`, the input's next dispatch for
    /// `output` uses `plane`.
    pub probes: Vec<(u32, usize)>,
}

impl AlignmentPlan {
    /// Number of aligned inputs — the concentration `d` of Theorem 6.
    pub(crate) fn d(&self) -> usize {
        self.probes.len()
    }

    /// Total alignment cells across inputs.
    pub(crate) fn total_probes(&self) -> usize {
        self.probes.iter().map(|&(_, c)| c).sum()
    }
}

fn probe_cell(input: u32, output: u32) -> Cell {
    Cell {
        id: CellId(0),
        input: PortId(input),
        output: PortId(output),
        seq: 0,
        arrival: 0,
    }
}

/// Sentinel: the plane never appeared within the probe budget.
const NEVER: u32 = u32::MAX;

/// The recorded dispatch trajectories of a set of inputs, reduced to the
/// table the alignment search needs: for each `(input, plane)` pair, the
/// first position (0-based, in probe cells consumed) at which the input's
/// forward trajectory dispatches to that plane.
///
/// Recording costs one forward run of at most `max_probes + 1` dispatches
/// per input; extracting a plan for any of the `K` candidate planes is a
/// table scan. Compare the previous search, which re-ran the automaton per
/// candidate plane and deep-cloned it per peek.
#[derive(Clone, Debug)]
pub(crate) struct DispatchLog {
    /// `first_occ[row * k + plane]`, [`NEVER`] when unreached.
    first_occ: Vec<u32>,
    /// The probed inputs (table rows, in caller order).
    inputs: Vec<u32>,
    /// Number of planes (table columns).
    k: usize,
    /// The hot output the probes were destined to.
    output: u32,
}

impl DispatchLog {
    /// Run each input's automaton forward for up to `max_probes + 1`
    /// dispatches (the positions the old peek loop examined) with all
    /// lines free, recording first plane occurrences. The recording stops
    /// early for an input once all `k` planes have appeared — no later
    /// position can be a first occurrence.
    pub(crate) fn record<D: Demultiplexor + Clone>(
        demux: &D,
        inputs: &[u32],
        k: usize,
        output: u32,
        max_probes: usize,
    ) -> Self {
        let all_free: Vec<Slot> = vec![0; k];
        let mut sim = demux.clone();
        let mut first_occ = vec![NEVER; inputs.len() * k];
        for (row, &input) in inputs.iter().enumerate() {
            let cell = probe_cell(input, output);
            let occ = &mut first_occ[row * k..(row + 1) * k];
            let mut unseen = k;
            for pos in 0..=max_probes {
                let p = probe_dispatch(&mut sim, &cell, 0, &all_free).idx();
                if occ[p] == NEVER {
                    occ[p] = pos as u32;
                    unseen -= 1;
                    if unseen == 0 {
                        break;
                    }
                }
            }
        }
        DispatchLog {
            first_occ,
            inputs: inputs.to_vec(),
            k,
            output,
        }
    }

    /// First position at which `input` (by row index) dispatches to
    /// `plane`, or `None` if it never did within the probe budget.
    fn first_occurrence(&self, row: usize, plane: u32) -> Option<usize> {
        match self.first_occ[row * self.k + plane as usize] {
            NEVER => None,
            pos => Some(pos as usize),
        }
    }

    /// The alignment plan for one candidate plane: every input whose
    /// trajectory reaches `plane`, with its probe-cell cost.
    fn plan_for(&self, plane: u32) -> AlignmentPlan {
        let probes = self
            .inputs
            .iter()
            .enumerate()
            .filter_map(|(row, &input)| self.first_occurrence(row, plane).map(|c| (input, c)))
            .collect();
        AlignmentPlan {
            output: self.output,
            plane,
            probes,
        }
    }

    /// One plane's `(d, Reverse(total probes))` score — a pure column scan
    /// of the recorded table.
    fn score(&self, plane: usize) -> (usize, std::cmp::Reverse<usize>) {
        let (mut d, mut total) = (0usize, 0usize);
        for row in 0..self.inputs.len() {
            let occ = self.first_occ[row * self.k + plane];
            if occ != NEVER {
                d += 1;
                total += occ as usize;
            }
        }
        (d, std::cmp::Reverse(total))
    }

    /// The plan with the largest concentration `d` (ties: fewest total
    /// probe cells; equal on both: the highest plane, matching the old
    /// per-plane `max_by` search exactly). Only the winning plan is
    /// materialized.
    pub(crate) fn best_plan(&self) -> AlignmentPlan {
        // `max_by_key` keeps the last of equal maxima: the highest plane.
        let best = (0..self.k)
            .max_by_key(|&plane| self.score(plane))
            .expect("at least one plane");
        self.plan_for(best as u32)
    }
}

/// Record the raw forward dispatch trajectories of `inputs`: for each, the
/// planes its automaton picks for `count` consecutive cells destined to
/// `output`, with all lines free. Row-major, `count` entries per input.
/// Test-only: the Theorem 10 symmetric-burst check in
/// [`crate::adversary::urt_burst`] needs positions beyond the first
/// occurrence, which [`DispatchLog`] does not keep.
#[cfg(test)]
pub(crate) fn record_trajectories<D: Demultiplexor + Clone>(
    demux: &D,
    inputs: &[u32],
    k: usize,
    output: u32,
    count: usize,
) -> Vec<PlaneId> {
    let all_free: Vec<Slot> = vec![0; k];
    let mut sim = demux.clone();
    let mut out = Vec::with_capacity(inputs.len() * count);
    for &input in inputs {
        let cell = probe_cell(input, output);
        for _ in 0..count {
            out.push(probe_dispatch(&mut sim, &cell, 0, &all_free));
        }
    }
    out
}

/// The pre-optimization clone-based search, retained verbatim as the
/// reference oracle: the one-pass [`DispatchLog`] must produce exactly the
/// plans this produces (see the property tests below). Test-only — the
/// shipping path never clones automaton state per peek.
#[cfg(test)]
mod oracle {
    use super::*;
    use pps_core::demux::Demultiplexor;

    /// Clone-per-peek rendition of [`DispatchLog::plan_for`].
    pub(crate) fn plan_alignment<D: Demultiplexor + Clone>(
        demux: &D,
        inputs: &[u32],
        k: usize,
        output: u32,
        plane: u32,
        max_probes: usize,
    ) -> AlignmentPlan {
        let all_free: Vec<Slot> = vec![0; k];
        let mut sim = demux.clone();
        let mut probes = Vec::new();
        for &input in inputs {
            let cell = probe_cell(input, output);
            let mut consumed = 0usize;
            let aligned = loop {
                // Peek: what would the automaton do right now?
                let mut peek = sim.clone();
                if probe_dispatch(&mut peek, &cell, 0, &all_free) == PlaneId(plane) {
                    break true;
                }
                if consumed >= max_probes {
                    break false;
                }
                // Consume one probe cell for real.
                probe_dispatch(&mut sim, &cell, 0, &all_free);
                consumed += 1;
            };
            if aligned {
                probes.push((input, consumed));
            }
        }
        AlignmentPlan {
            output,
            plane,
            probes,
        }
    }

    /// Clone-based rendition of [`DispatchLog::best_plan`].
    pub(crate) fn best_alignment<D: Demultiplexor + Clone>(
        demux: &D,
        inputs: &[u32],
        k: usize,
        output: u32,
        max_probes: usize,
    ) -> AlignmentPlan {
        (0..k as u32)
            .map(|plane| plan_alignment(demux, inputs, k, output, plane, max_probes))
            .max_by(|a, b| {
                (a.d(), std::cmp::Reverse(a.total_probes()))
                    .cmp(&(b.d(), std::cmp::Reverse(b.total_probes())))
            })
            .expect("at least one plane")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::demux::{Demultiplexor, DispatchCtx, InfoClass};

    /// A toy automaton: cycles planes 0..k; destination-oblivious.
    #[derive(Clone)]
    struct Cycler {
        next: Vec<u32>,
        k: u32,
    }
    impl Demultiplexor for Cycler {
        fn info_class(&self) -> InfoClass {
            InfoClass::FullyDistributed
        }
        fn dispatch(&mut self, cell: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
            let i = cell.input.idx();
            let p = self.next[i];
            self.next[i] = (p + 1) % self.k;
            PlaneId(p)
        }
    }

    #[test]
    fn aligns_cyclers_with_mixed_phases() {
        let demux = Cycler {
            next: vec![0, 1, 2, 3],
            k: 4,
        };
        let plan = DispatchLog::record(&demux, &[0, 1, 2, 3], 4, 0, 8).plan_for(2);
        assert_eq!(plan.d(), 4);
        // Input 0 needs 2 probes (0,1 consumed), input 2 needs 0, etc.
        let by_input: std::collections::BTreeMap<u32, usize> =
            plan.probes.iter().copied().collect();
        assert_eq!(by_input[&0], 2);
        assert_eq!(by_input[&1], 1);
        assert_eq!(by_input[&2], 0);
        assert_eq!(by_input[&3], 3);
    }

    #[test]
    fn unalignable_inputs_are_omitted() {
        /// Never chooses plane 1.
        #[derive(Clone)]
        struct Stubborn;
        impl Demultiplexor for Stubborn {
            fn info_class(&self) -> InfoClass {
                InfoClass::FullyDistributed
            }
            fn dispatch(&mut self, _c: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
                PlaneId(0)
            }
        }
        let log = DispatchLog::record(&Stubborn, &[0, 1], 2, 0, 8);
        assert_eq!(log.plan_for(1).d(), 0);
        let plan0 = log.plan_for(0);
        assert_eq!(plan0.d(), 2);
        assert_eq!(plan0.total_probes(), 0);
    }

    #[test]
    fn best_alignment_maximizes_d_then_minimizes_probes() {
        let demux = Cycler {
            next: vec![1, 1, 1],
            k: 3,
        };
        let plan = DispatchLog::record(&demux, &[0, 1, 2], 3, 0, 8).best_plan();
        assert_eq!(plan.d(), 3);
        // All at phase 1: plane 1 costs zero probes and must be chosen.
        assert_eq!(plan.plane, 1);
        assert_eq!(plan.total_probes(), 0);
    }

    #[test]
    fn trajectories_are_the_raw_dispatch_sequences() {
        let demux = Cycler {
            next: vec![2, 0],
            k: 3,
        };
        let t = record_trajectories(&demux, &[0, 1], 3, 0, 4);
        let planes: Vec<u32> = t.iter().map(|p| p.0).collect();
        assert_eq!(planes, vec![2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn score_ties_resolve_to_the_highest_plane() {
        // Every plane achieves the same d at the same total cost, so the
        // tie-break — last wins, as in the oracle's `max_by` — decides.
        let (n, k) = (64usize, 16usize);
        let demux = Cycler {
            next: (0..n).map(|i| (i % k) as u32).collect(),
            k: k as u32,
        };
        let inputs: Vec<u32> = (0..n as u32).collect();
        let plan = DispatchLog::record(&demux, &inputs, k, 0, 2 * k).best_plan();
        assert_eq!(plan, oracle::best_alignment(&demux, &inputs, k, 0, 2 * k));
        assert_eq!(plan.plane, (k - 1) as u32);
    }

    #[test]
    fn log_exposes_first_occurrences() {
        let demux = Cycler {
            next: vec![1],
            k: 4,
        };
        let log = DispatchLog::record(&demux, &[0], 4, 0, 8);
        assert_eq!(log.first_occurrence(0, 1), Some(0));
        assert_eq!(log.first_occurrence(0, 3), Some(2));
        assert_eq!(log.first_occurrence(0, 0), Some(3));
        let budget_limited = DispatchLog::record(&demux, &[0], 4, 0, 1);
        assert_eq!(budget_limited.first_occurrence(0, 0), None);
    }

    /// The property-test battery: one-pass plans are identical — plane,
    /// per-input probe counts, d — to the clone-based oracle, across every
    /// demultiplexor family the adversarial experiments probe.
    mod oracle_equality {
        use super::super::{oracle, probe_cell, DispatchLog};
        use pps_core::demux::{probe_dispatch, Demultiplexor, DispatchCtx, InfoClass};
        use pps_core::{Cell, PlaneId};
        use pps_switch::demux::{
            HashFlowDemux, PerFlowRoundRobinDemux, RandomDemux, RoundRobinDemux,
            StaticPartitionDemux,
        };
        use proptest::prelude::*;

        /// Seeded sticky flow-hash demultiplexor (fully distributed): each
        /// flow starts on a hashed *home plane* and sticks to the last
        /// plane that carried it — when that plane's line is busy the
        /// dispatch deviates to the next free line and the pin moves with
        /// it. Being stateful per flow, it exercises the one-pass
        /// trajectory recording in a way the stateless hash in `pps-switch`
        /// cannot.
        #[derive(Clone, Debug)]
        struct FlowHashDemux {
            n: usize,
            k: usize,
            seed: u64,
            /// Current plane pin per dense flow index; `u32::MAX` =
            /// unpinned (first dispatch uses the hashed home plane).
            pins: Vec<u32>,
            /// Dispatches that had to move a flow off its pinned plane.
            repins: u64,
        }

        impl FlowHashDemux {
            const UNPINNED: u32 = u32::MAX;

            fn new(n: usize, k: usize, seed: u64) -> Self {
                FlowHashDemux {
                    n,
                    k,
                    seed,
                    pins: vec![Self::UNPINNED; n * n],
                    repins: 0,
                }
            }

            fn home_plane(&self, input: usize, output: usize) -> usize {
                let f = (input * self.n + output) as u64 ^ self.seed;
                ((f.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % self.k as u64) as usize
            }
        }

        impl Demultiplexor for FlowHashDemux {
            fn info_class(&self) -> InfoClass {
                InfoClass::FullyDistributed
            }

            fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
                let flow = cell.input.idx() * self.n + cell.output.idx();
                let pinned = self.pins[flow];
                let want = if pinned == Self::UNPINNED {
                    self.home_plane(cell.input.idx(), cell.output.idx())
                } else {
                    pinned as usize
                };
                let p = if ctx.local.is_free(want) {
                    want
                } else {
                    self.repins += 1;
                    ctx.local
                        .next_free_from(want)
                        .expect("valid bufferless config guarantees a free plane")
                };
                self.pins[flow] = p as u32;
                PlaneId(p as u32)
            }
        }

        #[test]
        fn flow_hash_sticks_until_forced_off() {
            let mut d = FlowHashDemux::new(2, 4, 7);
            let c = probe_cell(0, 1);
            let free = vec![0u64; 4];
            let home = probe_dispatch(&mut d, &c, 0, &free).idx();
            assert_eq!(home, d.home_plane(0, 1), "first dispatch uses the hash");
            // Busy home line: the flow deviates and re-pins.
            let mut busy = vec![0u64; 4];
            busy[home] = 100;
            let moved = probe_dispatch(&mut d, &c, 1, &busy).idx();
            assert_ne!(moved, home);
            assert_eq!(d.repins, 1);
            // Home frees up again — the flow stays on its new pin (sticky).
            assert_eq!(probe_dispatch(&mut d, &c, 200, &free).idx(), moved);
            assert_eq!(d.repins, 1, "staying on the pin is not a repin");
        }

        #[test]
        fn flow_hash_seed_changes_homes() {
            let a = FlowHashDemux::new(8, 8, 1);
            let b = FlowHashDemux::new(8, 8, 2);
            let differing = (0..8)
                .flat_map(|i| (0..8).map(move |j| (i, j)))
                .filter(|&(i, j)| a.home_plane(i, j) != b.home_plane(i, j))
                .count();
            assert!(differing > 0, "seeds must perturb the placement");
        }

        /// Check every per-plane plan and the best plan against the oracle.
        fn assert_matches_oracle<D: Demultiplexor + Clone>(
            demux: &D,
            n: usize,
            k: usize,
            max_probes: usize,
        ) {
            let inputs: Vec<u32> = (0..n as u32).collect();
            let log = DispatchLog::record(demux, &inputs, k, 0, max_probes);
            for plane in 0..k as u32 {
                let fast = log.plan_for(plane);
                let slow = oracle::plan_alignment(demux, &inputs, k, 0, plane, max_probes);
                assert_eq!(fast, slow, "plane {plane} plan diverged");
            }
            let fast = log.best_plan();
            let slow = oracle::best_alignment(demux, &inputs, k, 0, max_probes);
            assert_eq!(fast, slow, "best plan diverged");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn round_robin(n in 2usize..24, k in 2usize..12, probes in 1usize..40) {
                assert_matches_oracle(&RoundRobinDemux::new(n, k), n, k, probes);
            }

            #[test]
            fn per_flow_round_robin(n in 2usize..24, k in 2usize..12, probes in 1usize..40) {
                assert_matches_oracle(&PerFlowRoundRobinDemux::new(n, k), n, k, probes);
            }

            #[test]
            fn static_partition(n in 2usize..24, groups in 1usize..4, r_prime in 1usize..4, probes in 1usize..40) {
                let k = groups * r_prime;
                let demux = StaticPartitionDemux::minimal(n, k, r_prime);
                assert_matches_oracle(&demux, n, k, probes);
            }

            #[test]
            fn seeded_randomized(n in 2usize..16, k in 2usize..10, seed in 0u64..1_000, probes in 1usize..48) {
                assert_matches_oracle(&RandomDemux::new(n, seed), n, k, probes);
            }

            #[test]
            fn sticky_flow_hash(n in 2usize..20, k in 2usize..10, seed in 0u64..1_000, probes in 1usize..40) {
                // The sticky pins make this one genuinely stateful: a probe
                // that deviates re-pins the flow, so later probes follow
                // the pin, not the hash home.
                assert_matches_oracle(&FlowHashDemux::new(n, k, seed), n, k, probes);
            }

            #[test]
            fn stateless_hash_flow(n in 2usize..20, k in 2usize..10, probes in 1usize..40) {
                assert_matches_oracle(&HashFlowDemux::new(n, k), n, k, probes);
            }
        }
    }
}
