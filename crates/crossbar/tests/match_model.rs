//! Model-based property test for the occupancy-indexed match loops.
//!
//! The five matching disciplines — iSLIP, QPS-r, SW-QPS on the
//! [`CrossbarSwitch`], critical-first and rotating maximal matching on the
//! [`CioqSwitch`] — walk an incrementally maintained occupancy index with
//! bitmap scans (DESIGN.md §15). Each is checked here against the loop it
//! replaced: a dense rescan of an `N × N` length matrix rebuilt from the
//! queues every slot, kept below as the reference oracle. Old and new are
//! driven through one random arrival/drain script — contended bursts on a
//! hot set of outputs that straddles the word boundaries, idle gaps short
//! and long, a drain tail — and after every slot the departures (the
//! slot's matching), the scheduler's `state_digest` and the backlog must
//! agree.

use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

use pps_core::prelude::*;
use pps_core::rng::SplitMix64;
use pps_crossbar::{
    CioqPolicy, CioqSwitch, CrossbarScheduler, CrossbarSwitch, IslipArbiter, QpsRScheduler,
    SwQpsScheduler,
};

// ---------------------------------------------------------------------------
// Reference oracles: the dense match loops as they were before the index.
// ---------------------------------------------------------------------------

/// A matching discipline over a dense length matrix (`lens[i * n + j]`).
trait DenseScheduler {
    fn schedule(&mut self, lens: &[usize], out: &mut [Option<usize>]);
    fn state_digest(&self) -> u64;
}

struct DenseIslip {
    n: usize,
    iterations: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
}

impl DenseIslip {
    fn new(n: usize, iterations: usize) -> Self {
        DenseIslip {
            n,
            iterations: iterations.max(1),
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
        }
    }
}

impl DenseScheduler for DenseIslip {
    fn schedule(&mut self, lens: &[usize], out: &mut [Option<usize>]) {
        let n = self.n;
        let occupied = |i: usize, j: usize| lens[i * n + j] > 0;
        let mut input_matched: Vec<Option<usize>> = vec![None; n];
        let mut output_matched: Vec<Option<usize>> = vec![None; n];
        for iter in 0..self.iterations {
            let mut grants: Vec<Option<usize>> = vec![None; n]; // output -> input
            for j in 0..n {
                if output_matched[j].is_some() {
                    continue;
                }
                let start = self.grant_ptr[j];
                for off in 0..n {
                    let i = (start + off) % n;
                    if input_matched[i].is_none() && occupied(i, j) {
                        grants[j] = Some(i);
                        break;
                    }
                }
            }
            #[allow(clippy::needless_range_loop)] // i indexes three vectors
            for i in 0..n {
                if input_matched[i].is_some() {
                    continue;
                }
                let start = self.accept_ptr[i];
                let chosen = (0..n)
                    .map(|off| (start + off) % n)
                    .find(|&j| grants[j] == Some(i));
                if let Some(j) = chosen {
                    input_matched[i] = Some(j);
                    output_matched[j] = Some(i);
                    if iter == 0 {
                        self.grant_ptr[j] = (i + 1) % n;
                        self.accept_ptr[i] = (j + 1) % n;
                    }
                }
            }
        }
        out.copy_from_slice(&input_matched);
    }

    fn state_digest(&self) -> u64 {
        let mut d = 0x15_117u64;
        for (&g, &a) in self.grant_ptr.iter().zip(&self.accept_ptr) {
            d = SplitMix64::fold_digest(d, ((g as u64) << 32) | a as u64);
        }
        d
    }
}

struct DenseQpsR {
    n: usize,
    r: usize,
    rng: SplitMix64,
    proposals: Vec<usize>,
}

impl DenseQpsR {
    fn new(n: usize, r: usize, seed: u64) -> Self {
        DenseQpsR {
            n,
            r: r.max(1),
            rng: SplitMix64::new(seed).derive(0x9B5),
            proposals: vec![usize::MAX; n],
        }
    }

    fn sample_output(&mut self, i: usize, lens: &[usize], total: u64) -> usize {
        let mut x = self.rng.below(total);
        for j in 0..self.n {
            let l = lens[i * self.n + j] as u64;
            if x < l {
                return j;
            }
            x -= l;
        }
        unreachable!("draw below total must land in a VOQ")
    }
}

impl DenseScheduler for DenseQpsR {
    fn schedule(&mut self, lens: &[usize], out: &mut [Option<usize>]) {
        let n = self.n;
        let mut output_taken = vec![false; n];
        for _round in 0..self.r {
            for i in 0..n {
                self.proposals[i] = usize::MAX;
                if out[i].is_some() {
                    continue;
                }
                let total: u64 = lens[i * n..(i + 1) * n].iter().map(|&l| l as u64).sum();
                if total == 0 {
                    continue;
                }
                self.proposals[i] = self.sample_output(i, lens, total);
            }
            for j in 0..n {
                if output_taken[j] {
                    continue;
                }
                let winner = (0..n)
                    .filter(|&i| self.proposals[i] == j)
                    .max_by_key(|&i| (lens[i * n + j], std::cmp::Reverse(i)));
                if let Some(i) = winner {
                    out[i] = Some(j);
                    output_taken[j] = true;
                }
            }
        }
    }

    fn state_digest(&self) -> u64 {
        SplitMix64::fold_digest(0x9B5, self.rng.state_fingerprint())
    }
}

struct DenseSwQps {
    n: usize,
    window: usize,
    rng: SplitMix64,
    /// `slots[w][i] = Some(j)`: input `i` is reserved for output `j` in the
    /// matching that executes `w` slots from now.
    slots: VecDeque<Vec<Option<usize>>>,
}

impl DenseSwQps {
    fn new(n: usize, window: usize, seed: u64) -> Self {
        let window = window.max(1);
        DenseSwQps {
            n,
            window,
            rng: SplitMix64::new(seed).derive(0x5109),
            slots: (0..window).map(|_| vec![None; n]).collect(),
        }
    }

    fn reserved(&self, i: usize, j: usize) -> usize {
        self.slots.iter().filter(|m| m[i] == Some(j)).count()
    }
}

impl DenseScheduler for DenseSwQps {
    fn schedule(&mut self, lens: &[usize], out: &mut [Option<usize>]) {
        let n = self.n;
        let mut proposals: Vec<(usize, usize, usize)> = Vec::new(); // (len, i, j)
        for i in 0..n {
            let total: u64 = (0..n)
                .map(|j| lens[i * n + j].saturating_sub(self.reserved(i, j)) as u64)
                .sum();
            if total == 0 {
                continue;
            }
            let mut x = self.rng.below(total);
            for j in 0..n {
                let l = lens[i * n + j].saturating_sub(self.reserved(i, j)) as u64;
                if x < l {
                    proposals.push((lens[i * n + j], i, j));
                    break;
                }
                x -= l;
            }
        }
        proposals.sort_unstable_by(|a, b| {
            (b.0, std::cmp::Reverse(b.1)).cmp(&(a.0, std::cmp::Reverse(a.1)))
        });
        for (_len, i, j) in proposals {
            let fit = (0..self.window).find(|&w| {
                let m = &self.slots[w];
                m[i].is_none() && !m.contains(&Some(j))
            });
            if let Some(w) = fit {
                self.slots[w][i] = Some(j);
            }
        }
        let head = self.slots.pop_front().expect("window is never empty");
        out.copy_from_slice(&head);
        let mut recycled = head;
        recycled.fill(None);
        self.slots.push_back(recycled);
    }

    fn state_digest(&self) -> u64 {
        let mut d = SplitMix64::fold_digest(0x5109, self.rng.state_fingerprint());
        for m in &self.slots {
            for (i, j) in m.iter().enumerate() {
                if let Some(j) = j {
                    d = SplitMix64::fold_digest(d, ((i as u64) << 32) | *j as u64);
                }
            }
            d = SplitMix64::fold_digest(d, 0xFEED);
        }
        d
    }
}

/// The crossbar as it stepped before the index: rebuild `lens` from the
/// queues, hand it to the scheduler, sum the queues for the backlog.
struct DenseCrossbar<S> {
    n: usize,
    voqs: Vec<VecDeque<CellId>>,
    scheduler: S,
}

impl<S: DenseScheduler> DenseCrossbar<S> {
    fn new(n: usize, scheduler: S) -> Self {
        DenseCrossbar {
            n,
            voqs: (0..n * n).map(|_| VecDeque::new()).collect(),
            scheduler,
        }
    }
}

/// The CIOQ switch as it stepped before the index.
struct DenseCioq {
    n: usize,
    speedup: usize,
    policy: CioqPolicy,
    voqs: Vec<VecDeque<(Slot, CellId)>>,
    dt_last: Vec<Option<Slot>>,
    outq: Vec<BTreeSet<(Slot, CellId)>>,
    max_outq: usize,
}

impl DenseCioq {
    fn new(n: usize, speedup: usize, policy: CioqPolicy) -> Self {
        DenseCioq {
            n,
            speedup: speedup.max(1),
            policy,
            voqs: (0..n * n).map(|_| VecDeque::new()).collect(),
            dt_last: vec![None; n],
            outq: (0..n).map(|_| BTreeSet::new()).collect(),
            max_outq: 0,
        }
    }

    fn transfer(&mut self, i: usize, j: usize) {
        let head = self.voqs[i * self.n + j].pop_front().expect("head exists");
        self.outq[j].insert(head);
    }
}

// ---------------------------------------------------------------------------
// The lockstep.
// ---------------------------------------------------------------------------

/// What the lockstep needs of a switch, old or new.
trait Switch {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog);
    fn backlog(&self) -> usize;
    /// Hidden state that must agree: the scheduler digest, or for the CIOQ
    /// switch (which has no seeded or pointer state) its output-queue
    /// high-water mark.
    fn digest(&self) -> u64;
}

impl<S: CrossbarScheduler> Switch for CrossbarSwitch<S> {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        CrossbarSwitch::slot(self, now, arrivals, log);
    }
    fn backlog(&self) -> usize {
        CrossbarSwitch::backlog(self)
    }
    fn digest(&self) -> u64 {
        self.scheduler().state_digest()
    }
}

impl Switch for CioqSwitch {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        CioqSwitch::slot(self, now, arrivals, log);
    }
    fn backlog(&self) -> usize {
        CioqSwitch::backlog(self)
    }
    fn digest(&self) -> u64 {
        self.max_output_queue() as u64
    }
}

impl<S: DenseScheduler> Switch for DenseCrossbar<S> {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        let n = self.n;
        for cell in arrivals {
            self.voqs[cell.input.idx() * n + cell.output.idx()].push_back(cell.id);
        }
        let lens: Vec<usize> = self.voqs.iter().map(VecDeque::len).collect();
        let mut matching = vec![None; n];
        self.scheduler.schedule(&lens, &mut matching);
        for (i, m) in matching.iter().enumerate() {
            if let Some(j) = m {
                let id = self.voqs[i * n + j]
                    .pop_front()
                    .expect("scheduler only matches occupied VOQs");
                log.set_departure(id, now);
            }
        }
    }
    fn backlog(&self) -> usize {
        self.voqs.iter().map(VecDeque::len).sum()
    }
    fn digest(&self) -> u64 {
        self.scheduler.state_digest()
    }
}

impl Switch for DenseCioq {
    fn slot(&mut self, now: Slot, arrivals: &[Cell], log: &mut RunLog) {
        let n = self.n;
        for cell in arrivals {
            let j = cell.output.idx();
            let dt = match self.dt_last[j] {
                Some(prev) => now.max(prev + 1),
                None => now,
            };
            self.dt_last[j] = Some(dt);
            self.voqs[cell.input.idx() * n + j].push_back((dt, cell.id));
        }
        for phase in 0..self.speedup {
            match self.policy {
                CioqPolicy::CriticalFirst => {
                    let mut heads: Vec<(Slot, CellId, usize, usize)> = Vec::new();
                    for i in 0..n {
                        for j in 0..n {
                            if let Some(&(dt, id)) = self.voqs[i * n + j].front() {
                                heads.push((dt, id, i, j));
                            }
                        }
                    }
                    heads.sort_unstable();
                    let mut input_used = vec![false; n];
                    let mut output_used = vec![false; n];
                    for (_dt, _id, i, j) in heads {
                        if input_used[i] || output_used[j] {
                            continue;
                        }
                        input_used[i] = true;
                        output_used[j] = true;
                        self.transfer(i, j);
                    }
                }
                CioqPolicy::MaximalRr => {
                    let start = (now as usize).wrapping_add(phase) % n;
                    let mut output_used = vec![false; n];
                    for off in 0..n {
                        let i = (start + off) % n;
                        let mut best: Option<(usize, usize)> = None; // (len, j)
                        for joff in 0..n {
                            let j = (start + joff) % n;
                            if output_used[j] {
                                continue;
                            }
                            let l = self.voqs[i * n + j].len();
                            if l > 0 && best.is_none_or(|(bl, _)| l > bl) {
                                best = Some((l, j));
                            }
                        }
                        if let Some((_, j)) = best {
                            output_used[j] = true;
                            self.transfer(i, j);
                        }
                    }
                }
            }
        }
        for j in 0..n {
            self.max_outq = self.max_outq.max(self.outq[j].len());
            if let Some(&(dt, id)) = self.outq[j].first() {
                self.outq[j].remove(&(dt, id));
                log.set_departure(id, now);
            }
        }
    }
    fn backlog(&self) -> usize {
        let queued: usize = self.voqs.iter().map(VecDeque::len).sum();
        queued + self.outq.iter().map(BTreeSet::len).sum::<usize>()
    }
    fn digest(&self) -> u64 {
        self.max_outq as u64
    }
}

/// A random script over `slots` arrival slots: bursts of one to six slots
/// in which each input sends with the burst's probability to a hot set of
/// outputs (1, 3 or all of them, at a random offset so that every word of
/// a port bitmap sees traffic), separated by gaps of which some outlast
/// the backlog. At most one cell per input per slot, as the model demands.
fn script(n: usize, seed: u64, slots: usize) -> Vec<Cell> {
    let mut rng = SplitMix64::new(seed).derive(0x5C817);
    let mut arrivals = Vec::new();
    let mut slot: Slot = 0;
    while (slot as usize) < slots {
        let p = [0.3, 0.8, 1.0][rng.below(3) as usize];
        let hot = [1, 3, n][rng.below(3) as usize].min(n) as u64;
        let base = rng.below(n as u64);
        for _ in 0..1 + rng.below(6) {
            for i in 0..n as u32 {
                if rng.chance(p) {
                    let j = (base + rng.below(hot)) % n as u64;
                    arrivals.push(Arrival::new(slot, i, j as u32));
                }
            }
            slot += 1;
        }
        slot += match rng.below(3) {
            0 => 0,
            1 => rng.below(4),
            _ => 8 + rng.below(n as u64 + 24),
        };
    }
    Trace::build(arrivals, n)
        .expect("one cell per input per slot")
        .cells(n)
}

/// Step `new` and `old` through `cells` slot by slot — every arrival slot,
/// every gap slot, then the drain and three idle slots, at most `cap`
/// slots in all (a contended script need not drain) — comparing after
/// each.
fn lockstep<A: Switch, B: Switch>(
    what: &str,
    mut new: A,
    mut old: B,
    cells: &[Cell],
    cap: usize,
) -> Result<(), TestCaseError> {
    let mut new_log = RunLog::with_cells(cells);
    let mut old_log = RunLog::with_cells(cells);
    let mut in_flight: Vec<CellId> = Vec::new();
    let mut next = 0;
    let mut idle_tail = 0;
    for now in 0..cap as Slot {
        let start = next;
        while next < cells.len() && cells[next].arrival == now {
            next += 1;
        }
        let arrivals = &cells[start..next];
        in_flight.extend(arrivals.iter().map(|c| c.id));
        let idle = arrivals.is_empty() && old.backlog() == 0;
        let before = (new.digest(), new.backlog());
        new.slot(now, arrivals, &mut new_log);
        old.slot(now, arrivals, &mut old_log);
        // The slot's matching, read off the departures it caused.
        for &id in &in_flight {
            let (a, b) = (new_log.get(id).departure(), old_log.get(id).departure());
            prop_assert_eq!(
                a,
                b,
                "{}: slot {}: cell {:?} departs differently",
                what,
                now,
                id
            );
        }
        in_flight.retain(|&id| new_log.get(id).departure().is_none());
        prop_assert_eq!(
            new.backlog(),
            old.backlog(),
            "{}: slot {}: backlog",
            what,
            now
        );
        prop_assert_eq!(
            new.digest(),
            old.digest(),
            "{}: slot {}: state digest",
            what,
            now
        );
        if idle {
            prop_assert_eq!(
                (new.digest(), new.backlog()),
                before,
                "{}: idle slot {} moved state",
                what,
                now
            );
        }
        if next == cells.len() && in_flight.is_empty() {
            idle_tail += 1;
            if idle_tail > 3 {
                break;
            }
        }
    }
    Ok(())
}

/// Script length for a discipline whose reference costs `per_slot` basic
/// steps a slot: long enough for every window to wrap where that is
/// affordable, short where N²·T makes the reference crawl.
fn slots_for(per_slot: usize) -> usize {
    (4_000_000 / per_slot.max(1)).clamp(24, 400)
}

const PORTS: [usize; 6] = [1, 5, 63, 64, 65, 130];
const WINDOWS: [usize; 6] = [1, 2, 8, 64, 65, 100];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn islip_matches_the_dense_arbiter(seed in 0u64..1_000_000) {
        for n in PORTS {
            let slots = slots_for(n * n * 4);
            let cells = script(n, seed, slots);
            for iterations in [1usize, 2, 4] {
                lockstep(
                    &format!("islip-{iterations} n={n} seed={seed}"),
                    CrossbarSwitch::with_scheduler(IslipArbiter::new(n, iterations), &Sink::default()),
                    DenseCrossbar::new(n, DenseIslip::new(n, iterations)),
                    &cells,
                    2 * slots,
                )?;
            }
        }
    }

    #[test]
    fn qps_r_matches_the_dense_sampler(seed in 0u64..1_000_000) {
        for n in PORTS {
            let slots = slots_for(n * n * 4);
            let cells = script(n, seed, slots);
            for r in [1usize, 3] {
                lockstep(
                    &format!("qps-{r} n={n} seed={seed}"),
                    CrossbarSwitch::with_scheduler(QpsRScheduler::new(n, r, seed ^ 0x9B5), &Sink::default()),
                    DenseCrossbar::new(n, DenseQpsR::new(n, r, seed ^ 0x9B5)),
                    &cells,
                    2 * slots,
                )?;
            }
        }
    }

    #[test]
    fn sw_qps_matches_the_dense_window(seed in 0u64..1_000_000) {
        for n in PORTS {
            for window in WINDOWS {
                let slots = slots_for(n * n * window);
                let cells = script(n, seed ^ window as u64, slots);
                lockstep(
                    &format!("sw-qps-{window} n={n} seed={seed}"),
                    CrossbarSwitch::with_scheduler(SwQpsScheduler::new(n, window, seed ^ 0x5109), &Sink::default()),
                    DenseCrossbar::new(n, DenseSwQps::new(n, window, seed ^ 0x5109)),
                    &cells,
                    2 * slots,
                )?;
            }
        }
    }

    #[test]
    fn cioq_policies_match_the_dense_phases(seed in 0u64..1_000_000) {
        for n in PORTS {
            let slots = slots_for(n * n * 8);
            let cells = script(n, seed, slots);
            for policy in [CioqPolicy::CriticalFirst, CioqPolicy::MaximalRr] {
                for speedup in [1usize, 2, 3] {
                    lockstep(
                        &format!("cioq {} s={speedup} n={n} seed={seed}", policy.name()),
                        CioqSwitch::with_policy(n, speedup, policy, &Sink::default()),
                        DenseCioq::new(n, speedup, policy),
                        &cells,
                        2 * slots,
                    )?;
                }
            }
        }
    }
}
