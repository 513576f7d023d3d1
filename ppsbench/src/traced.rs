//! The traced run: per-layer numbers from spans around the calls into each
//! crate, plus the probes that time what a rep cannot decompose in place.
//!
//! Two kinds of number come out of here:
//!
//! * **in the rep** — the traced rep is [`Workload::rep`] with a
//!   [`Recorder`]; its spans tile the rep, so their self times sum to the
//!   rep's wall time (`trace.coverage_pct`), and the traced reps against
//!   the untraced reps they alternate with are the tracing overhead
//!   (`trace.overhead_pct`);
//! * **beside the rep** — probes run after the traced reps and are not part
//!   of either figure: the fabric-level hand loop (demux / dispatch /
//!   service / emit), the whole `run()` calls, the scaling pairs, the
//!   telemetry levels, the shadow OQ's peak occupancy.
//!
//! Before any layer number is reported, both hand loops are held to
//! `BufferlessPps::run` on the workload's own trace (records,
//! `FabricStats`, `end_slot`); a mismatch is a failed op.

use crate::loops::{engine_loop, fabric_loop, fabric_phase, oq_loop, NoLaps, SampledLaps};
use crate::metrics::{median, Values};
use crate::run::SetUp;
use crate::spans::{NoTrace, Recorder, ROOT};
use crate::workloads::{arrivals_counted, Kind, RepOutput, Workload};
use pps_core::prelude::*;
use pps_core::telemetry::{self, Level};
use pps_reference::oq::run_oq;
use pps_switch::demux::{FaultAwareRoundRobinDemux, RoundRobinDemux};
use pps_switch::engine::PpsRun;
use pps_switch::fabric::{Fabric, FabricStats};
use pps_workload::WorkloadSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Times each probe is run; its median is reported.
const PROBE_RUNS: usize = 3;

/// What the traced run measured.
pub struct Layered {
    /// Per-layer metric values (every name of `metrics::per_layer`).
    pub values: Values,
    /// The spans.
    pub recorder: Recorder,
    /// Traced reps recorded.
    pub traced_reps: usize,
    /// Ops attempted (traced reps, probe reps and equality checks).
    pub attempted: u64,
    /// Ops that failed, with reasons.
    pub failures: Vec<String>,
    /// Human-readable self-time table.
    pub ledger: String,
}

/// Ops attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Hold every op of `out` to the run's reference.
    fn rep(&mut self, ready: &SetUp, out: &RepOutput) {
        self.attempted += out.ops.len() as u64;
        self.failures.extend(ready.failures(out));
    }

    /// One equality check of a hand loop (or a sharded run) against
    /// `BufferlessPps::run`.
    fn same(&mut self, what: &str, log: &RunLog, stats: FabricStats, end: Slot, run: &PpsRun) {
        self.attempted += 1;
        if log.records() != run.log.records() || stats != run.stats || end != run.end_slot {
            self.failures
                .push(format!("{what} differs from BufferlessPps::run"));
        }
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Run the traced reps and probes of `ready`'s workload: untraced and
/// traced reps for about two thirds of `seconds`; the probes take what
/// they take.
pub fn measure(ready: &SetUp, seconds: f64) -> Result<Layered, String> {
    let w = &ready.workload;
    let min_reps = if w.kind == Kind::Registry { 1 } else { 3 };
    let mut tally = Tally::default();

    // Untraced and traced reps alternate, so a host that drifts during the
    // run slows both sides of `trace.overhead_pct` alike.
    let mut untraced = Vec::new();
    let mut recorder = Recorder::new();
    let mut traced = Vec::new();
    let mut facts = Default::default();
    let start = Instant::now();
    while traced.len() < min_reps || start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        let (out, ns) = time(|| w.rep(&mut NoTrace));
        untraced.push(ns / 1e9);
        tally.rep(ready, &out);
        let (out, secs) = recorder.rep(|r| w.rep(r));
        traced.push(secs);
        tally.rep(ready, &out);
        facts = out.pps;
    }
    let untraced_s = median(&untraced);
    let reps = traced.len() as f64;

    let mut v = Values::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let selfs = recorder.self_times();
    // Mean self time of one call into `layer`, in ns.
    let per_call = |layer: &str| {
        selfs
            .get(layer)
            .filter(|(_, calls)| *calls > 0)
            .map_or(0.0, |&(ns, calls)| ns as f64 / calls as f64)
    };
    let root_ns: f64 = traced.iter().sum::<f64>() * 1e9;
    let uncovered = selfs.get(ROOT).map_or(0, |s| s.0) as f64;
    set("trace.coverage_pct", 100.0 * (1.0 - uncovered / root_ns));
    set(
        "trace.overhead_pct",
        100.0 * (median(&traced) / untraced_s - 1.0),
    );

    let mut ledger = String::from("  self time per layer, share of the traced reps:\n");
    for (layer, (ns, calls)) in &selfs {
        let _ = writeln!(
            ledger,
            "    {layer:<26} {:>10.3} ms/rep {:>6.1} %  calls/rep {}",
            *ns as f64 / reps / 1e6,
            100.0 * *ns as f64 / root_ns,
            *calls as f64 / reps
        );
    }

    if w.kind == Kind::Registry {
        for e in &w.experiments {
            set(
                &format!("experiments.{}.wall_ms", e.id),
                per_call(e.layer) / 1e6,
            );
        }
        let render_ns = selfs.get("experiments.render").map_or(0, |s| s.0) as f64;
        set("experiments.render_ms", render_ns / reps / 1e6);

        set("traffic.attack_build_us", attack_build_us());
        set("experiments.jobs2_speedup", jobs2_speedup(w, untraced_s));
    } else {
        let trace = WorkloadSpec::parse(&w.spec)?.trace()?;
        let cells = trace.len() as f64;
        set(
            "workload.materialize_ns_per_cell",
            per_call("workload.materialize") / cells,
        );
        for (name, layer) in [
            ("core.trace_cells_ns_per_cell", "core.trace_cells"),
            ("core.runlog_init_ns_per_cell", "core.runlog_init"),
            ("pps.buffered_run_ns_per_cell", "pps.buffered_run"),
            ("reference.oq_ns_per_cell", "reference.oq"),
            ("analysis.join_ns_per_cell", "analysis.join"),
            ("analysis.tails_ns_per_cell", "analysis.tails"),
            ("crossbar.islip2_ns_per_cell", "crossbar.islip2"),
            ("crossbar.qps3_ns_per_cell", "crossbar.qps3"),
            ("crossbar.swqps8_ns_per_cell", "crossbar.swqps8"),
            (
                "crossbar.cioq_critical_ns_per_cell",
                "crossbar.cioq_critical",
            ),
            ("crossbar.cioq_maximal_ns_per_cell", "crossbar.cioq_maximal"),
        ] {
            set(name, per_call(layer) / cells);
        }
        set("analysis.render_us", per_call("analysis.render") / 1e3);
        // Folded spans: one "call" is one slot, or one jump.
        set("pps.slot_ns_per_slot", per_call("pps.slot"));
        set("pps.backlog_ns_per_slot", per_call("pps.backlog"));
        set(
            "pps.next_activity_ns_per_jump",
            per_call("pps.next_activity"),
        );
        set("pps.skip_idle_ns_per_jump", per_call("pps.skip_idle"));
        set("pps.slots_processed", facts.slots_processed as f64);
        set("pps.slots_skipped", facts.slots_skipped as f64);
        set("pps.skip_jumps", facts.skip_jumps as f64);
        set("pps.max_plane_queue", facts.max_plane_queue as f64);
        set("pps.max_output_held", facts.max_output_held as f64);
        set("pps.stalled_slots", facts.stalled_slots as f64);

        let (n, k) = (w.n, w.k);
        set("pps.fabric_new_us", per_call("pps.fabric_new") / 1e3);
        let probed = match w.kind {
            Kind::Lockstep => {
                let demux = RoundRobinDemux::new(n, k);
                pps_probes(w, demux, &trace, &mut tally)?
            }
            Kind::SparseSkip => {
                let demux = FaultAwareRoundRobinDemux::urt(n, k, w.r_prime as Slot);
                pps_probes(w, demux, &trace, &mut tally)?
            }
            _ => Vec::new(),
        };
        for (name, value) in probed {
            set(name, value);
        }
    }

    for (name, value) in telemetry_probes(ready, min_reps, &mut tally) {
        set(name, value);
    }

    Ok(Layered {
        values: v,
        recorder,
        traced_reps: traced.len(),
        attempted: tally.attempted,
        failures: tally.failures,
        ledger,
    })
}

/// `concentration_attack` at e12's largest point (N = 1024, K = 8).
fn attack_build_us() -> f64 {
    let (n, k) = (1024usize, 8usize);
    let cfg = PpsConfig::bufferless(n, k, 4);
    let inputs: Vec<u32> = (0..n as u32).collect();
    let demux = RoundRobinDemux::new(n, k);
    let runs: Vec<f64> = (0..PROBE_RUNS)
        .map(|_| {
            let (attack, ns) =
                time(|| pps_traffic::adversary::concentration_attack(&demux, &cfg, &inputs, 4 * k));
            std::hint::black_box(attack);
            ns / 1e3
        })
        .collect();
    median(&runs)
}

/// The first scaling pair recorded on more than one core: one `registry`
/// pass through the sweep executor at `set_jobs(2)`, as `ppslab --jobs 2`
/// runs it, against the `set_jobs(1)` median.
fn jobs2_speedup(w: &Workload, jobs1_s: f64) -> f64 {
    pps_core::workers::set_jobs(2);
    let plan = pps_core::sweep::SweepPlan::new("registry", w.experiments.clone());
    let (rendered, ns) = time(|| plan.run(|pt| (pt.params.run)().render()));
    pps_core::workers::set_jobs(1);
    std::hint::black_box(rendered);
    jobs1_s / (ns / 1e9)
}

/// `rounds` rounds of one rep per telemetry level — `Off`, `Counters`,
/// `Full` inside `telemetry::collect` — and the median over the rounds of
/// each level's time against the `Off` rep of its own round. The counters
/// reps also cross-check `engine_cells` against the `arrival` counter.
fn telemetry_probes(ready: &SetUp, rounds: usize, tally: &mut Tally) -> [(&'static str, f64); 2] {
    let w = &ready.workload;
    let (mut counters_pct, mut full_pct) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (out, off_ns) = time(|| w.rep(&mut NoTrace));
        tally.rep(ready, &out);

        telemetry::set_level(Level::Counters);
        let arrivals0 = arrivals_counted();
        let (out, ns) = time(|| w.rep(&mut NoTrace));
        let arrivals = arrivals_counted() - arrivals0;
        telemetry::set_level(Level::Off);
        counters_pct.push(100.0 * (ns / off_ns - 1.0));
        tally.rep(ready, &out);
        tally.attempted += 1;
        let expected = ready.engine_cells(&out);
        if arrivals != expected {
            tally.failures.push(format!(
                "telemetry arrival counter {arrivals}, engine_cells {expected}"
            ));
        }

        telemetry::set_level(Level::Full);
        let ((out, ns), log) = telemetry::collect("ppsbench", || time(|| w.rep(&mut NoTrace)));
        telemetry::set_level(Level::Off);
        drop(log);
        drop(telemetry::take_absorbed());
        full_pct.push(100.0 * (ns / off_ns - 1.0));
        tally.rep(ready, &out);
    }
    [
        ("telemetry.counters_overhead_pct", median(&counters_pct)),
        ("telemetry.full_overhead_pct", median(&full_pct)),
    ]
}

/// Probes of the bufferless PPS on `trace`: the whole `run()`, the two
/// hand loops held to it, and — for a fully-distributed `demux` — the
/// fabric-level layer times, the engine-glue share and the intra-run
/// scaling pair (`pps.fabric_new_us` then becomes `Fabric::new` +
/// `reserve_cells` on its own rather than the engine constructor).
fn pps_probes<D: Demultiplexor + Clone>(
    w: &Workload,
    demux: D,
    trace: &Trace,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let model = |e: ModelError| e.to_string();
    let cfg = w.bufferless_cfg();
    let cells = trace.cells(cfg.n);
    let ncells = cells.len() as f64;
    let mut values = Vec::new();
    let engine = |intra: usize| -> Result<(PpsRun, f64), String> {
        let mut pps = w.bufferless_engine(demux.clone()).map_err(model)?;
        pps.set_intra_jobs(intra);
        let (run, ns) = time(|| pps.run(trace));
        Ok((run.map_err(model)?, ns))
    };

    let mut run_ns = Vec::new();
    let mut reference = None;
    for _ in 0..PROBE_RUNS {
        let (run, ns) = engine(1)?;
        run_ns.push(ns);
        reference = Some(run);
    }
    let reference = reference.expect("PROBE_RUNS > 0");
    values.push(("pps.bufferless_run_ns_per_cell", median(&run_ns) / ncells));

    let mut pps = w.bufferless_engine(demux.clone()).map_err(model)?;
    let mut log = RunLog::with_cells(&cells);
    let counts = engine_loop(&mut pps, trace, &cells, &mut log, &mut NoLaps).map_err(model)?;
    let stats = pps.fabric().stats();
    tally.same(
        "engine-level loop",
        &log,
        stats,
        counts.end_slot,
        &reference,
    );

    let mut oq_log = RunLog::with_cells(&cells);
    let oq = oq_loop(&cells, cfg.n, &mut oq_log);
    tally.attempted += 1;
    if oq_log.records() != run_oq(trace, cfg.n).records() {
        tally
            .failures
            .push("shadow OQ hand loop differs from run_oq".into());
    }
    values.push(("reference.oq_max_occupancy", oq.max_occupancy() as f64));

    if demux.info_class() == InfoClass::FullyDistributed {
        use fabric_phase::*;
        let mut new_us = Vec::new();
        let mut overhead_pct = Vec::new();
        let mut phases = [const { Vec::new() }; 4];
        for _ in 0..PROBE_RUNS {
            // The engine-level loop, under the same stopwatch, moments
            // before the fabric-level loop it is compared with.
            let engine_ns = {
                let mut pps = w.bufferless_engine(demux.clone()).map_err(model)?;
                let mut log = RunLog::with_cells(&cells);
                let mut laps = SampledLaps::for_trace(trace);
                let (counts, ns) =
                    time(|| engine_loop(&mut pps, trace, &cells, &mut log, &mut laps));
                counts.map_err(model)?;
                ns
            };
            let (mut fabric, ns) = time(|| {
                let mut fabric = Fabric::new(cfg);
                fabric.reserve_cells(cells.len());
                fabric
            });
            new_us.push(ns / 1e3);
            let mut demux = demux.clone();
            let mut log = RunLog::with_cells(&cells);
            let mut laps = SampledLaps::for_trace(trace);
            let (counts, ns) = time(|| {
                fabric_loop(
                    &mut fabric,
                    &mut demux,
                    w.faults.as_ref(),
                    trace,
                    &cells,
                    &mut log,
                    &mut laps,
                )
            });
            let counts = counts.map_err(model)?;
            overhead_pct.push(100.0 * (engine_ns - ns) / engine_ns);
            let split = laps.split_ns(ns as u64);
            for (phase, samples) in phases.iter_mut().enumerate() {
                samples.push(split[phase] as f64 / ncells);
            }
            tally.same(
                "fabric-level loop",
                &log,
                fabric.stats(),
                counts.end_slot,
                &reference,
            );
        }
        values.push(("pps.fabric_new_us", median(&new_us)));
        values.push(("pps.demux_ns_per_cell", median(&phases[DEMUX])));
        values.push(("pps.dispatch_ns_per_cell", median(&phases[DISPATCH])));
        values.push(("pps.service_ns_per_cell", median(&phases[SERVICE])));
        values.push(("pps.emit_ns_per_cell", median(&phases[EMIT])));
        values.push(("pps.engine_overhead_pct", median(&overhead_pct)));

        // The intra-run scaling pair, on the 2 cores this box has.
        pps_core::workers::set_jobs(2);
        let mut sharded_ns = Vec::new();
        for _ in 0..PROBE_RUNS {
            let (run, ns) = engine(2)?;
            sharded_ns.push(ns);
            tally.same(
                "2-shard run",
                &run.log,
                run.stats.clone(),
                run.end_slot,
                &reference,
            );
        }
        pps_core::workers::set_jobs(1);
        values.push(("pps.intra2_speedup", median(&run_ns) / median(&sharded_ns)));
    }
    Ok(values)
}
