//! Combined input-output-queued (CIOQ) crossbar with fabric speedup.
//!
//! The paper's related work (§1.3) cites Chuang, Goel, McKeown & Prabhakar:
//! a CIOQ switch needs fabric speedup about 2 (exactly `2 − 1/N`) to
//! exactly mimic an output-queued switch. This module implements a CIOQ
//! crossbar with integer speedup `s` — the fabric runs `s` matching phases
//! per slot — scheduled *critical cells first*: cells carry their FCFS-OQ
//! departure deadlines (computable online at arrival, exactly like the
//! PPS's CPA), each phase transfers a greedy earliest-deadline matching,
//! and each output emits its earliest-deadline cell once per slot.
//!
//! Experiment E17 sweeps `s` across the threshold: at `s = 1` mimicking
//! fails visibly, from `s = 2` the greedy scheduler tracks the reference
//! closely — the same "speedup ≥ 2 buys exactness" phenomenon that CPA
//! exhibits on the PPS (ablation A2), in a completely different
//! architecture.

use crate::occupancy::{clear_bit, cyclic_bits, fill_ones, test_bit, words_for, Voqs};
use pps_core::prelude::*;
use pps_core::stepping::{self, SlotEngine};
use std::collections::BTreeSet;

/// The matching discipline a [`CioqSwitch`] runs in each fabric phase.
///
/// Cogill & Lall (arXiv cs/0605030) analyze CIOQ switches under *any*
/// maximal matching with speedup 2 and bound the expected extra waiting
/// versus OQ by a conflict envelope `λc / (1 − λc)` with
/// `λc = 2ρ(N−1)/N` — no deadline bookkeeping required. The two policies
/// here bracket that result: [`CioqPolicy::CriticalFirst`] uses the exact
/// FCFS-OQ deadlines (the Chuang et al. mimicking flavour), while
/// [`CioqPolicy::MaximalRr`] is a deliberately deadline-blind maximal
/// matching — rotating-start, longest-VOQ-first greedy — that only enjoys
/// the Cogill–Lall guarantee. Experiment E24 charts the gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CioqPolicy {
    /// Greedy earliest-deadline-first over VOQ heads (deadlines are the
    /// online FCFS-OQ departure times, as CPA computes them for the PPS).
    CriticalFirst,
    /// Deadline-blind greedy maximal matching: inputs are visited in
    /// round-robin order starting at `(now + phase) mod N`, and each takes
    /// its longest VOQ among still-unmatched outputs. Maximal by
    /// construction — an input goes unmatched only when every non-empty
    /// VOQ it holds points at a taken output.
    MaximalRr,
}

impl CioqPolicy {
    /// Short policy name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CioqPolicy::CriticalFirst => "critical-first",
            CioqPolicy::MaximalRr => "maximal-rr",
        }
    }
}

/// A CIOQ crossbar with `s` matching phases per slot.
#[derive(Clone, Debug)]
pub struct CioqSwitch {
    n: usize,
    speedup: usize,
    policy: CioqPolicy,
    /// VOQ `(i, j)` holding `(deadline, id)` in FIFO (= deadline) order —
    /// the matching and the output buffer only ever need the id — plus
    /// the occupancy index the match loops walk.
    voqs: Voqs<(Slot, CellId)>,
    /// FCFS-OQ deadline oracle per output.
    dt_last: Vec<Option<Slot>>,
    /// Output-side buffers: cells awaiting emission, keyed by deadline.
    outq: Vec<BTreeSet<(Slot, CellId)>>,
    /// Cells currently parked at the outputs (`outq` entries).
    parked: usize,
    max_outq: usize,
    /// Scratch bitmaps: ports not yet matched in the current phase.
    in_free: Vec<u64>,
    out_free: Vec<u64>,
    /// Scratch: the VOQ heads of a critical-first phase, as
    /// `(deadline, id, input, output)`.
    heads: Vec<(Slot, CellId, usize, usize)>,
}

impl CioqSwitch {
    /// An idle `n × n` CIOQ switch with fabric speedup `s ≥ 1` under an
    /// explicit matching policy.
    pub fn with_policy(n: usize, speedup: usize, policy: CioqPolicy) -> Self {
        CioqSwitch {
            n,
            speedup: speedup.max(1),
            policy,
            voqs: Voqs::new(n),
            dt_last: vec![None; n],
            outq: (0..n).map(|_| BTreeSet::new()).collect(),
            parked: 0,
            max_outq: 0,
            in_free: vec![0; words_for(n)],
            out_free: vec![0; words_for(n)],
            heads: Vec::new(),
        }
    }

    /// Advance one slot.
    pub fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        use pps_core::telemetry::{self, Engine, EventKind};
        pps_core::perf::record_slots(1);
        for cell in arrivals {
            debug_assert_eq!(cell.arrival, now);
            if telemetry::on() {
                telemetry::record(
                    Engine::Cioq,
                    now,
                    EventKind::Arrival {
                        cell: cell.id,
                        input: cell.input,
                        output: cell.output,
                    },
                );
            }
            let j = cell.output.idx();
            let dt = match self.dt_last[j] {
                Some(prev) => now.max(prev + 1),
                None => now,
            };
            self.dt_last[j] = Some(dt);
            self.voqs.push(cell.input.idx(), j, (dt, cell.id));
        }
        // s matching phases per slot, policy-dependent. Either way the
        // transferred cell parks at its output keyed by its FCFS-OQ
        // deadline, and emission below is deadline-ordered — per-flow
        // deadlines are strictly increasing and VOQs are FIFO, so flow
        // order survives even the deadline-blind policy.
        for phase in 0..self.speedup {
            if self.voqs.occupancy().is_empty() {
                break;
            }
            fill_ones(&mut self.out_free, self.n);
            match self.policy {
                // Greedy earliest-deadline-first over VOQ heads.
                CioqPolicy::CriticalFirst => {
                    self.heads.clear();
                    for i in 0..self.n {
                        for j in self.voqs.occupancy().row_outputs(i) {
                            if let Some(&(dt, id)) = self.voqs.front(i, j) {
                                self.heads.push((dt, id, i, j));
                            }
                        }
                    }
                    self.heads.sort_unstable();
                    fill_ones(&mut self.in_free, self.n);
                    for at in 0..self.heads.len() {
                        let (_dt, _id, i, j) = self.heads[at];
                        if !(test_bit(&self.in_free, i) && test_bit(&self.out_free, j)) {
                            continue;
                        }
                        clear_bit(&mut self.in_free, i);
                        clear_bit(&mut self.out_free, j);
                        self.transfer(now, i, j);
                    }
                }
                // Rotating-start, longest-VOQ-first greedy maximal
                // matching, blind to deadlines.
                CioqPolicy::MaximalRr => {
                    let start = (now as usize).wrapping_add(phase) % self.n;
                    for off in 0..self.n {
                        let i = (start + off) % self.n;
                        let occ = self.voqs.occupancy();
                        // Input `i`'s non-empty VOQs to still-unmatched
                        // outputs, in rotating order from `start`.
                        let mut best: Option<(usize, usize)> = None; // (len, j)
                        for j in cyclic_bits(occ.row(i), &self.out_free, start) {
                            let l = occ.len(i, j);
                            // Ties go to the output visited first from the
                            // rotating start.
                            if best.is_none_or(|(bl, _)| l > bl) {
                                best = Some((l, j));
                            }
                        }
                        if let Some((_, j)) = best {
                            clear_bit(&mut self.out_free, j);
                            self.transfer(now, i, j);
                        }
                    }
                }
            }
        }
        // Emission: earliest deadline per output, one per slot.
        for j in 0..self.n {
            self.max_outq = self.max_outq.max(self.outq[j].len());
            if let Some((_dt, id)) = self.outq[j].pop_first() {
                self.parked -= 1;
                if telemetry::on() {
                    telemetry::record(
                        Engine::Cioq,
                        now,
                        EventKind::Depart {
                            cell: id,
                            output: PortId(j as u32),
                        },
                    );
                }
                log.set_departure(id, now);
            }
        }
        #[cfg(debug_assertions)]
        self.voqs.assert_in_sync();
    }

    /// Move the head of VOQ `(i, j)` across the fabric into output `j`'s
    /// buffer.
    fn transfer(&mut self, now: Slot, i: usize, j: usize) {
        use pps_core::telemetry::{self, Engine, EventKind};
        let (dt, id) = self.voqs.pop(i, j).expect("head exists");
        if telemetry::on() {
            // Parked at the output buffer awaiting its deadline turn.
            telemetry::record(
                Engine::Cioq,
                now,
                EventKind::ReseqHold {
                    cell: id,
                    output: PortId(j as u32),
                },
            );
        }
        self.outq[j].insert((dt, id));
        self.parked += 1;
    }

    /// Cells still inside the switch.
    pub fn backlog(&self) -> usize {
        self.voqs.occupancy().backlog() + self.parked
    }

    /// The next slot strictly after `now` at which the switch does
    /// anything, ignoring future arrivals. The deadline oracle (`dt_last`)
    /// holds absolute slots and needs no catch-up; an empty slot is a pure
    /// no-op, so this is `now + 1` with backlog or nothing without.
    fn next_activity(&self, now: Slot) -> Option<Slot> {
        (self.backlog() > 0).then(|| now + 1)
    }

    /// Largest output-queue occupancy reached.
    pub fn max_output_queue(&self) -> usize {
        self.max_outq
    }
}

impl SlotEngine for CioqSwitch {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) -> Result<(), ModelError> {
        CioqSwitch::slot(self, now, arrivals, log);
        Ok(())
    }

    fn backlog(&self) -> usize {
        CioqSwitch::backlog(self)
    }

    fn next_activity(&self, now: Slot) -> Option<Slot> {
        CioqSwitch::next_activity(self, now)
    }

    /// An empty CIOQ slot moves no state, so an idle stretch is only
    /// metered: as skipped instead of simulated.
    fn skip_idle(&mut self, from: Slot, to: Slot) {
        pps_core::perf::record_skipped(to - from + 1);
    }
}

/// Run a trace through a fresh critical-cells-first CIOQ switch until it
/// drains. Uses the process-default stepping mode.
pub fn run_cioq(trace: &Trace, n: usize, speedup: usize) -> RunLog {
    let mode = stepping::process_default();
    run_cioq_policy(trace, n, speedup, CioqPolicy::CriticalFirst, mode)
}

/// [`run_cioq`] under an explicit matching policy and stepping mode
/// (identical logs either way).
pub fn run_cioq_policy(
    trace: &Trace,
    n: usize,
    speedup: usize,
    policy: CioqPolicy,
    mode: Stepping,
) -> RunLog {
    let mut sw = CioqSwitch::with_policy(n, speedup, policy);
    let cap = crate::switch::drain_cap(trace, n);
    let (log, _) = stepping::drive(&mut sw, trace, n, cap, mode).expect("a CIOQ slot cannot fail");
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_reference::oq::run_oq;

    fn trace(v: Vec<Arrival>, n: usize) -> Trace {
        Trace::build(v, n).unwrap()
    }

    #[test]
    fn lone_cell_is_passthrough() {
        let t = trace(vec![Arrival::new(2, 0, 1)], 2);
        let log = run_cioq(&t, 2, 2);
        assert_eq!(log.get(CellId(0)).delay(), Some(0));
    }

    #[test]
    fn speedup_two_mimics_oq_under_fanin() {
        // The Chuang et al. worst-ish case flavour: several inputs burst
        // into one output while also feeding others.
        let n = 4;
        let mut v = Vec::new();
        for s in 0..60u64 {
            for i in 0..n as u32 {
                let j = if s % 3 == 0 {
                    0
                } else {
                    (i + s as u32) % n as u32
                };
                v.push(Arrival::new(s, i, j));
            }
        }
        let t = trace(v, n);
        let oq = run_oq(&t, n);
        let cioq = run_cioq(&t, n, 2);
        assert_eq!(cioq.undelivered(), 0);
        for ((id, a), b) in cioq.iter().zip(oq.records()) {
            let rel = a.departure().unwrap() as i64 - b.departure().unwrap() as i64;
            assert!(rel <= 1, "cell {id:?} late by {rel}");
        }
    }

    #[test]
    fn speedup_one_falls_behind() {
        // At s = 1 the fabric is the bottleneck: some cell must miss its
        // OQ deadline under concentrated fan-in.
        let n = 4;
        let mut v = Vec::new();
        for s in 0..80u64 {
            for i in 0..n as u32 {
                // Half the slots everyone hits output 0; otherwise spread.
                let j = if s % 2 == 0 { 0 } else { i };
                v.push(Arrival::new(s, i, j));
            }
        }
        let t = trace(v, n);
        let oq = run_oq(&t, n);
        let cioq = run_cioq(&t, n, 1);
        assert_eq!(cioq.undelivered(), 0);
        let worst = cioq
            .records()
            .zip(oq.records())
            .map(|(a, b)| a.departure().unwrap() as i64 - b.departure().unwrap() as i64)
            .max()
            .unwrap();
        assert!(worst > 0, "speedup 1 should visibly miss deadlines");
    }

    #[test]
    fn flow_order_is_preserved() {
        let n = 4;
        let t = pps_traffic::gen::OnOffGen::uniform(8.0, 0.8, 3).trace(n, 400);
        let log = run_cioq(&t, n, 2);
        assert_eq!(log.undelivered(), 0);
        assert!(pps_reference::checker::check_flow_order(&log).is_empty());
    }

    #[test]
    fn maximal_rr_preserves_flow_order() {
        let n = 4;
        let t = pps_traffic::gen::OnOffGen::uniform(8.0, 0.8, 7).trace(n, 400);
        for s in [1, 2] {
            let log = run_cioq_policy(&t, n, s, CioqPolicy::MaximalRr, pps_core::Stepping::Dense);
            assert_eq!(log.undelivered(), 0);
            assert!(pps_reference::checker::check_flow_order(&log).is_empty());
        }
    }

    #[test]
    fn maximal_rr_is_maximal() {
        // Full persistent demand: a maximal matching over an all-occupied
        // VOQ matrix is perfect, so at speedup 1 every output emits every
        // slot once the pipeline fills — total throughput equals n per
        // slot over the busy period.
        let n = 4;
        let mut v = Vec::new();
        for s in 0..100u64 {
            for i in 0..n as u32 {
                v.push(Arrival::new(s, i, (i + s as u32) % n as u32));
            }
        }
        let t = trace(v, n);
        let log = run_cioq_policy(&t, n, 1, CioqPolicy::MaximalRr, pps_core::Stepping::Dense);
        assert_eq!(log.undelivered(), 0);
        // Perfect per-slot service ⇒ drain ends by horizon + small slack.
        let last = log.records().filter_map(|r| r.departure()).max().unwrap();
        assert!(
            last <= 100 + n as u64,
            "maximal matching drained late: {last}"
        );
    }

    #[test]
    fn maximal_rr_tracks_oq_at_speedup_two() {
        // The Cogill–Lall regime: any maximal matching at speedup 2 keeps
        // mean delay within a constant envelope of OQ at moderate load.
        let n = 8;
        let t = pps_traffic::gen::BernoulliGen::uniform(0.45, 17).trace(n, 2_000);
        let oq = run_oq(&t, n).mean_delay().unwrap();
        let mm = run_cioq_policy(&t, n, 2, CioqPolicy::MaximalRr, pps_core::Stepping::Dense)
            .mean_delay()
            .unwrap();
        // λc = 2ρ(N−1)/N = 0.7875 ⇒ envelope λc/(1−λc) ≈ 3.7 slots.
        assert!(mm <= oq + 3.8, "maximal-rr {mm} vs oq {oq}");
    }

    #[test]
    fn higher_speedup_never_hurts() {
        let n = 8;
        let t = pps_traffic::gen::BernoulliGen::uniform(0.95, 9).trace(n, 800);
        let d1 = run_cioq(&t, n, 1).mean_delay().unwrap();
        let d2 = run_cioq(&t, n, 2).mean_delay().unwrap();
        let d3 = run_cioq(&t, n, 3).mean_delay().unwrap();
        assert!(d2 <= d1 + 1e-9);
        assert!(d3 <= d2 + 1e-9);
    }
}
