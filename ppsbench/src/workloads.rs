//! The five workloads and the one function that runs a rep of each.
//!
//! A *rep* is the whole pipeline a user of the simulator pays for: spec
//! string → `Trace` → engines → join against the shadow OQ log → tails →
//! rendered table. It is closed loop: the next rep starts when the last
//! one has returned. [`Workload::rep`] is generic over a [`Tracer`], so the
//! untraced rep the end-to-end numbers time and the traced rep the
//! per-layer numbers come from are the same code.
//!
//! Why these five (the one-line versions are in `BENCHMARK.json`):
//!
//! * `registry` — every `ppslab` experiment, the ROADMAP's definition of
//!   end to end and the sentinel that no layer change slows the suite;
//! * `dense_lockstep` — e20's ρ = 0.9 point: small N, no idle slots, so the
//!   per-cell cost of demux / plane service / resequencer / shadow OQ /
//!   join dominates and skip-ahead does nothing;
//! * `wide_lockstep` — the same cell count spread over N = 512: N² rings
//!   and K·N queues, working set ≫ cache, per-slot O(N) scans dominate. A
//!   gain on `dense_lockstep` bought with wider per-slot state shows as a
//!   loss here;
//! * `sparse_skip` — ~59 M of 60 M slots are jumped: `next_activity` and
//!   `skip_idle` per burst, live u-RT snapshot ring, fault script. The
//!   bypass workload for every per-cell optimisation;
//! * `crossbar_zoo` — the PPS fabric does nothing, `pps-crossbar`'s match
//!   loops do everything. The bypass workload for every PPS change.

use crate::loops::{engine_loop, engine_phase, SampledLaps};
use crate::spans::Tracer;
use pps_analysis::metrics::relative_delay;
use pps_analysis::{
    compare_buffered, compare_bufferless, compare_bufferless_faulted, relative_delays, Comparison,
    Table, TailQuantiles,
};
use pps_core::prelude::*;
use pps_crossbar::cioq::{run_cioq_policy, CioqPolicy};
use pps_crossbar::{run_crossbar_with, IslipArbiter, QpsRScheduler, SwQpsScheduler};
use pps_experiments::Runner;
use pps_reference::oq::run_oq;
use pps_switch::demux::{BufferedRoundRobinDemux, FaultAwareRoundRobinDemux, RoundRobinDemux};
use pps_switch::engine::{run_buffered, BufferlessPps, PpsRun};
use pps_workload::WorkloadSpec;

/// Workload names, in the order `ppsbench run` executes them.
pub const NAMES: [&str; 5] = [
    "registry",
    "dense_lockstep",
    "wide_lockstep",
    "sparse_skip",
    "crossbar_zoo",
];

/// The seed the committed goldens were blessed with.
pub const DEFAULT_SEED: u64 = 1;

/// The registry subset `--quick` runs.
const QUICK_EXPERIMENTS: [&str; 5] = ["e1", "e2", "e3", "e4", "e9"];

/// FNV-1a, 64 bit: the digest every rendered output is pinned by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The telemetry `arrival` counter: every engine bumps it once per cell it
/// ingests, at `Level::Counters` and above (it stands still at `Off`).
pub fn arrivals_counted() -> u64 {
    pps_core::telemetry::counters()
        .into_iter()
        .find(|(name, _)| *name == "arrival")
        .map_or(0, |(_, n)| n)
}

/// One operation of a rep: the whole rep, or one experiment of `registry`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// The workload's name, or the experiment id.
    pub id: String,
    /// FNV-1a of the rendered output.
    pub digest: u64,
    /// Cell arrivals ingested, summed over every engine run. An experiment
    /// of `registry` can only count them through the telemetry `arrival`
    /// counter, so there this reads 0 unless the rep ran at
    /// `Level::Counters` (as `bless` does; timed reps use the golden's).
    pub engine_cells: u64,
    /// `pps_core::perf::slots_simulated()` delta.
    pub slots: u64,
    /// `pps_core::perf::slots_skipped()` delta.
    pub slots_skipped: u64,
    /// Why the op failed on its own evidence (an undelivered cell, a FAIL
    /// verdict, a tail past the paper's bound), if it did.
    pub fault: Option<String>,
}

/// What an op's pipeline hands back: the digest of its rendered output,
/// the engine cells it counted itself (if it can), and why it failed (if
/// it did).
type Outcome = (u64, Option<u64>, Option<String>);

/// Simulated-time facts about the bufferless PPS run of a rep. The counts
/// of the hand loop are only known to the traced rep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PpsFacts {
    /// Slots the engine processed one by one (traced rep only).
    pub slots_processed: u64,
    /// Slots the engine jumped (traced rep only).
    pub slots_skipped: u64,
    /// Jumps taken (traced rep only).
    pub skip_jumps: u64,
    /// `FabricStats::max_plane_queue`.
    pub max_plane_queue: u64,
    /// `FabricStats::max_output_held`.
    pub max_output_held: u64,
    /// `FabricStats::stalled_slots`.
    pub stalled_slots: u64,
}

/// What one rep produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepOutput {
    /// The rep's operations, in execution order.
    pub ops: Vec<Op>,
    /// The bufferless PPS run's facts (zero where no PPS runs).
    pub pps: PpsFacts,
}

/// Which pipeline a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All `pps_experiments::registry()` runners plus rendering.
    Registry,
    /// Bufferless + buffered fully-distributed PPS against the shadow OQ.
    Lockstep,
    /// Faulted u-RT bufferless PPS on a nearly empty trace.
    SparseSkip,
    /// OQ, three crossbar schedulers and two CIOQ policies.
    CrossbarZoo,
}

/// One registry entry with its span name.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Experiment id (`e1` … `a3`).
    pub id: &'static str,
    /// Span layer, `experiments.<id>`.
    pub layer: &'static str,
    /// The entry point.
    pub run: Runner,
}

/// Every registry entry, its span name made once per process (span names
/// are `&'static str`; set-up builds the workload many times).
fn registry_experiments() -> &'static [Experiment] {
    static ALL: std::sync::OnceLock<Vec<Experiment>> = std::sync::OnceLock::new();
    ALL.get_or_init(|| {
        pps_experiments::registry()
            .into_iter()
            .map(|(id, run)| Experiment {
                id,
                layer: Box::leak(format!("experiments.{id}").into_boxed_str()),
                run,
            })
            .collect()
    })
}

/// A workload, fully determined by `(name, seed, quick)`.
pub struct Workload {
    /// Name, one of [`NAMES`].
    pub name: &'static str,
    /// Pipeline.
    pub kind: Kind,
    /// Ports.
    pub n: usize,
    /// Planes.
    pub k: usize,
    /// Internal slowdown.
    pub r_prime: usize,
    /// Seed behind every generated input.
    pub seed: u64,
    /// The arrival spec string (empty for `registry`).
    pub spec: String,
    /// Fault script (`sparse_skip` only).
    pub faults: Option<FaultPlan>,
    /// Registry entries (`registry` only).
    pub experiments: Vec<Experiment>,
    /// Warm-up reps each set-up runs before the first timed rep.
    pub warmup_reps: usize,
}

/// Input-buffer size of the buffered lockstep engine (e20's).
const BUFFER: usize = 64;
/// Resequencer watchdog of `sparse_skip`.
const WATCHDOG: Slot = 64;
/// `PlaneDown`/`PlaneUp` pulses in `sparse_skip`'s fault script.
const FAULT_PULSES: u64 = 64;
/// Column headers of the rendered relative-delay table.
const HEADERS: [&str; 7] = ["engine", "cells", "lost", "max", "mean", "p99", "p999"];

impl Workload {
    /// Build the named workload. `quick` divides horizons by 20 and
    /// restricts `registry` to e1–e4 + e9 (the smoke test's mode).
    pub fn new(name: &str, seed: u64, quick: bool) -> Result<Workload, String> {
        let scale = |h: u64| if quick { h / 20 } else { h };
        let mut w = Workload {
            name: NAMES
                .iter()
                .find(|n| **n == name)
                .ok_or_else(|| format!("unknown workload {name:?} (expected one of {NAMES:?})"))?,
            kind: Kind::Lockstep,
            n: 0,
            k: 0,
            r_prime: 0,
            seed,
            spec: String::new(),
            faults: None,
            experiments: Vec::new(),
            warmup_reps: 2,
        };
        match name {
            "registry" => {
                w.kind = Kind::Registry;
                // The registry pins its own seeds: `--seed` changes nothing.
                w.experiments = registry_experiments()
                    .iter()
                    .filter(|e| !quick || QUICK_EXPERIMENTS.contains(&e.id))
                    .copied()
                    .collect();
                // A CLI user pays the cold cost, so no full warm-up pass:
                // set-up only proves the build on the quick subset.
                w.warmup_reps = 0;
            }
            "dense_lockstep" => {
                (w.n, w.k, w.r_prime) = (16, 8, 4);
                let h = scale(40_000);
                w.spec = format!("uniform:n=16,load=0.9,seed={seed},horizon={h}");
            }
            "wide_lockstep" => {
                (w.n, w.k, w.r_prime) = (512, 32, 4);
                let h = scale(1_000);
                w.spec = format!("uniform:n=512,load=0.9,seed={seed},horizon={h}");
            }
            "sparse_skip" => {
                w.kind = Kind::SparseSkip;
                (w.n, w.k, w.r_prime) = (16, 8, 4);
                let h = scale(60_000_000);
                w.spec = format!("onoff:n=16,on=0.0002,off=0.2,seed={seed},horizon={h}");
                let mut plan = FaultPlan::new();
                let gap = h / (FAULT_PULSES + 1);
                for pulse in 0..FAULT_PULSES {
                    let plane = (pulse % w.k as u64) as u32;
                    let at = (pulse + 1) * gap;
                    plan = plan.plane_down(plane, at).plane_up(plane, at + gap / 4);
                }
                w.faults = Some(plan);
            }
            "crossbar_zoo" => {
                w.kind = Kind::CrossbarZoo;
                w.n = 32;
                let h = scale(6_000);
                w.spec = format!("uniform:n=32,load=0.75,seed={seed},horizon={h}");
            }
            _ => unreachable!("name checked against NAMES"),
        }
        Ok(w)
    }

    /// The paper's fully-distributed worst case `(r'−1)(N−1)`: e20's pass
    /// condition for the relative-delay p999 of both lockstep engines.
    fn p999_bound(&self) -> i64 {
        ((self.r_prime - 1) * (self.n - 1)) as i64
    }

    /// Configuration of the workload's bufferless PPS (`sparse_skip` arms
    /// the resequencer watchdog its fault script needs).
    pub fn bufferless_cfg(&self) -> PpsConfig {
        let cfg = PpsConfig::bufferless(self.n, self.k, self.r_prime);
        match self.kind {
            Kind::SparseSkip => cfg.with_watchdog(WATCHDOG),
            _ => cfg,
        }
    }

    /// The workload's bufferless PPS around `demux`, fault script loaded.
    pub fn bufferless_engine<D: Demultiplexor>(
        &self,
        demux: D,
    ) -> Result<BufferlessPps<D>, ModelError> {
        let mut pps = BufferlessPps::new(self.bufferless_cfg(), demux)?;
        if let Some(plan) = &self.faults {
            pps.set_fault_plan(plan)?;
        }
        Ok(pps)
    }

    /// Ops in one rep: the experiments of `registry`, else the rep itself.
    pub fn ops(&self) -> usize {
        self.experiments.len().max(1)
    }

    /// Run one rep: its ops, one after another.
    pub fn rep<T: Tracer>(&self, t: &mut T) -> RepOutput {
        let mut out = RepOutput {
            ops: Vec::with_capacity(self.ops()),
            pps: PpsFacts::default(),
        };
        for index in 0..self.ops() {
            let (op, pps) = self.op(t, index);
            out.ops.push(op);
            out.pps = pps;
        }
        out
    }

    /// Run op `index` of a rep (the unit the untraced run times against
    /// the yardstick). Never panics on a model error: an op that cannot
    /// finish is a failed op with the reason in [`Op::fault`].
    pub fn op<T: Tracer>(&self, t: &mut T, index: usize) -> (Op, PpsFacts) {
        let slots0 = pps_core::perf::slots_simulated();
        let skipped0 = pps_core::perf::slots_skipped();
        let arrivals0 = arrivals_counted();
        let mut pps = PpsFacts::default();
        let (id, outcome) = match self.experiments.get(index) {
            Some(e) => (e.id, Ok(self.experiment(t, e))),
            None => (self.name, self.switch_rep(t, &mut pps)),
        };
        let (digest, engine_cells, fault) = match outcome {
            // An experiment can only count cells through the telemetry
            // `arrival` counter, which stands still at `Level::Off`.
            Ok((digest, None, fault)) => (digest, arrivals_counted() - arrivals0, fault),
            Ok((digest, Some(cells), fault)) => (digest, cells, fault),
            Err(reason) => (0, 0, Some(reason)),
        };
        let op = Op {
            id: id.to_string(),
            digest,
            engine_cells,
            slots: pps_core::perf::slots_simulated() - slots0,
            slots_skipped: pps_core::perf::slots_skipped() - skipped0,
            fault,
        };
        (op, pps)
    }

    /// One experiment and its rendering.
    fn experiment<T: Tracer>(&self, t: &mut T, e: &Experiment) -> Outcome {
        let out = t.span(e.layer, |_| (e.run)());
        let rendered = t.span("experiments.render", |_| out.render());
        let fault = (!out.pass).then(|| "verdict: FAIL".to_string());
        (fnv1a(rendered.as_bytes()), None, fault)
    }

    /// The three switch pipelines; they share everything but the engines.
    fn switch_rep<T: Tracer>(&self, t: &mut T, facts: &mut PpsFacts) -> Result<Outcome, String> {
        let trace = t.span("workload.materialize", |_| {
            WorkloadSpec::parse(&self.spec)?.trace()
        })?;
        let (n, k) = (self.n, self.k);
        let mut table = Table::new(
            format!(
                "{}: relative delay against the shadow OQ ({})",
                self.name, self.spec
            ),
            &HEADERS,
        );
        let mut faults: Vec<String> = Vec::new();
        let engines = match self.kind {
            Kind::Lockstep => {
                let bl = self
                    .bufferless(t, RoundRobinDemux::new(n, k), &trace, facts)
                    .map_err(|e| e.to_string())?;
                let cfg_b = PpsConfig::buffered(n, k, self.r_prime, BUFFER);
                let demux_b = BufferedRoundRobinDemux::new(n, k);
                // The buffered slot loop cannot be taken apart from
                // outside; traced, only its shadow OQ gets a span of its own.
                let bf = if T::ON {
                    let pps = t.span("pps.buffered_run", |_| run_buffered(cfg_b, demux_b, &trace));
                    let oq = t.span("reference.oq", |_| run_oq(&trace, n));
                    pps.map(|pps| Comparison { pps, oq, n })
                } else {
                    compare_buffered(cfg_b, demux_b, &trace)
                }
                .map_err(|e| e.to_string())?;
                let bound = Some(self.p999_bound());
                let (bl_log, bf_log) = (&bl.pps.log, &bf.pps.log);
                faults.extend(join_row(
                    t,
                    &mut table,
                    "bufferless",
                    bl_log,
                    &bl.oq,
                    0,
                    bound,
                ));
                faults.extend(join_row(
                    t, &mut table, "buffered", bf_log, &bf.oq, 0, bound,
                ));
                4 // two PPS engines, each beside its own shadow OQ
            }
            Kind::SparseSkip => {
                let demux = FaultAwareRoundRobinDemux::urt(n, k, self.r_prime as Slot);
                let cmp = self
                    .bufferless(t, demux, &trace, facts)
                    .map_err(|e| e.to_string())?;
                // A cell inside a plane when it fails is lost by design
                // (and a straggler behind a watchdog skip is discarded):
                // the op fails only on a loss the fabric did not account.
                let stats = cmp.pps_stats();
                let lost = stats.dropped + stats.late_dropped;
                let (log, oq) = (&cmp.pps.log, &cmp.oq);
                faults.extend(join_row(t, &mut table, "urt-faulted", log, oq, lost, None));
                2
            }
            Kind::CrossbarZoo => {
                let mode = Stepping::SkipAhead;
                let oq = t.span("reference.oq", |_| run_oq(&trace, n));
                let islip = t.span("crossbar.islip2", |_| {
                    run_crossbar_with(&trace, IslipArbiter::new(n, 2), mode).0
                });
                faults.extend(join_row(t, &mut table, "islip-2", &islip, &oq, 0, None));
                let qps = t.span("crossbar.qps3", |_| {
                    run_crossbar_with(&trace, QpsRScheduler::new(n, 3, self.seed ^ 3), mode).0
                });
                faults.extend(join_row(t, &mut table, "qps-3", &qps, &oq, 0, None));
                let swqps = t.span("crossbar.swqps8", |_| {
                    run_crossbar_with(&trace, SwQpsScheduler::new(n, 8, self.seed ^ 8), mode).0
                });
                faults.extend(join_row(t, &mut table, "sw-qps-8", &swqps, &oq, 0, None));
                let critical = t.span("crossbar.cioq_critical", |_| {
                    run_cioq_policy(&trace, n, 2, CioqPolicy::CriticalFirst, mode)
                });
                faults.extend(join_row(
                    t,
                    &mut table,
                    "cioq-critical",
                    &critical,
                    &oq,
                    0,
                    None,
                ));
                let maximal = t.span("crossbar.cioq_maximal", |_| {
                    run_cioq_policy(&trace, n, 2, CioqPolicy::MaximalRr, mode)
                });
                faults.extend(join_row(
                    t,
                    &mut table,
                    "cioq-maximal",
                    &maximal,
                    &oq,
                    0,
                    None,
                ));
                6
            }
            Kind::Registry => unreachable!("registry has its own rep"),
        };
        let rendered = t.span("analysis.render", |_| table.render());
        Ok((
            fnv1a(rendered.as_bytes()),
            Some(engines * trace.len() as u64),
            (!faults.is_empty()).then(|| faults.join("; ")),
        ))
    }

    /// One bufferless PPS beside its shadow OQ. Untraced, this is the
    /// public `compare_bufferless{,_faulted}`; traced, `BufferlessPps::run`
    /// is replaced by the engine-level hand loop so its calls can be timed
    /// one by one.
    fn bufferless<T: Tracer, D: Demultiplexor>(
        &self,
        t: &mut T,
        demux: D,
        trace: &Trace,
        facts: &mut PpsFacts,
    ) -> Result<Comparison, ModelError> {
        let cfg = self.bufferless_cfg();
        let cmp = if !T::ON {
            match &self.faults {
                None => compare_bufferless(cfg, demux, trace)?,
                Some(plan) => compare_bufferless_faulted(cfg, demux, trace, plan)?,
            }
        } else {
            let mut pps = t.span("pps.fabric_new", |_| self.bufferless_engine(demux))?;
            let cells = t.span("core.trace_cells", |_| trace.cells(cfg.n));
            let mut log = t.span("core.runlog_init", |_| RunLog::with_cells(&cells));
            let counts = t.span("pps.run_loop", |t| {
                use engine_phase::*;
                let mut laps = SampledLaps::for_trace(trace);
                let start = std::time::Instant::now();
                let c = engine_loop(&mut pps, trace, &cells, &mut log, &mut laps)?;
                let ns = laps.split_ns(start.elapsed().as_nanos() as u64);
                t.fold("pps.backlog", ns[BACKLOG], c.slots);
                t.fold("pps.gather", ns[GATHER], c.slots);
                t.fold("pps.slot", ns[SLOT], c.slots);
                t.fold("pps.next_activity", ns[NEXT_ACTIVITY], c.jumps);
                t.fold("pps.skip_idle", ns[SKIP_IDLE], c.jumps);
                Ok::<_, ModelError>(c)
            })?;
            facts.slots_processed = counts.slots;
            facts.slots_skipped = counts.skipped;
            facts.skip_jumps = counts.jumps;
            let oq = t.span("reference.oq", |_| run_oq(trace, cfg.n));
            Comparison {
                pps: PpsRun {
                    log,
                    stats: pps.fabric().stats(),
                    end_slot: counts.end_slot,
                },
                oq,
                n: cfg.n,
            }
        };
        let stats = cmp.pps_stats();
        facts.max_plane_queue = stats.max_plane_queue as u64;
        facts.max_output_held = stats.max_output_held as u64;
        facts.stalled_slots = stats.stalled_slots;
        Ok(cmp)
    }
}

/// Join `log` against the shadow `oq` log, reduce to tails, and append the
/// engine's row; returns why the engine failed the op, if it did.
fn join_row<T: Tracer>(
    t: &mut T,
    table: &mut Table,
    engine: &str,
    log: &RunLog,
    oq: &RunLog,
    lost_by_design: u64,
    p999_below: Option<i64>,
) -> Option<String> {
    let (rel, rd) = t.span("analysis.join", |_| {
        (relative_delays(log, oq), relative_delay(log, oq))
    });
    let Some(tails) = t.span("analysis.tails", |_| TailQuantiles::from(&rel)) else {
        return Some(format!("{engine}: no cell delivered"));
    };
    table.row(&[
        engine.to_string(),
        rd.compared.to_string(),
        rd.pps_undelivered.to_string(),
        rd.max.to_string(),
        format!("{:.4}", rd.mean),
        tails.p99.to_string(),
        tails.p999.to_string(),
    ]);
    if rd.pps_undelivered as u64 != lost_by_design {
        return Some(format!(
            "{engine}: {} cells undelivered, {lost_by_design} lost by design",
            rd.pps_undelivered
        ));
    }
    match p999_below {
        Some(bound) if tails.p999 >= bound => Some(format!(
            "{engine}: p999 relative delay {} ≥ (r'−1)(N−1) = {bound}",
            tails.p999
        )),
        _ => None,
    }
}
