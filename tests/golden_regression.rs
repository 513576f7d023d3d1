//! Golden regression: exact, slot-level expected values for fixed
//! configurations and seeds. Everything here is deterministic; any change
//! to these numbers means the simulator's timing semantics moved, which
//! must be a deliberate, documented decision (recorded in EXPERIMENTS.md's
//! "Deviations" list), never drift.

use pps_analysis::metrics::{max_concentration, relative_delay};
use pps_analysis::{
    compare_buffered_in, compare_bufferless_faulted_in, compare_bufferless_in, fault_impact,
};
use pps_core::bounds;
use pps_core::prelude::*;
use pps_core::stepping::drive;
use pps_crossbar::{run_cioq_in, run_crossbar_in, CioqPolicy, IslipArbiter};
use pps_reference::oq::run_oq_in;
use pps_switch::demux::{
    ArbitratedCrossbarDemux, BufferedRoundRobinDemux, CpaDemux, DelayedCpaDemux,
    FaultAwareRoundRobinDemux, RoundRobinDemux, StaleLeastLoadedDemux,
};
use pps_switch::{BufferedPps, BufferlessPps};
use pps_traffic::adversary::{concentration_attack, urt_burst_attack};
use pps_traffic::gen::BernoulliGen;
use pps_traffic::min_burstiness;

#[test]
fn attack_builders_agree_with_the_bounds_module() {
    let cfg = PpsConfig::bufferless(32, 8, 4);
    let atk = concentration_attack(
        &RoundRobinDemux::new(32, 8),
        &cfg,
        &(0..32).collect::<Vec<_>>(),
        32,
    );
    assert_eq!(atk.predicted_bound, bounds::corollary7(&cfg));
    assert_eq!(atk.model_exact_bound, bounds::corollary7_exact(&cfg));

    let cfg10 = PpsConfig::bufferless(32, 8, 8);
    let urt = urt_burst_attack(&cfg10, 4);
    assert_eq!(urt.predicted_bound, bounds::theorem10(&cfg10, 4));
    assert_eq!(urt.model_exact_bound, bounds::theorem10_exact(&cfg10, 4));
    assert_eq!(
        urt.predicted_burstiness,
        bounds::theorem10_burstiness(&cfg10, 4)
    );
    assert_eq!(urt.m as u64, bounds::theorem10_m(&cfg10, 4));
}

#[test]
fn corollary7_exact_to_the_slot() {
    // The concentration attack on round robin is slot-exact: measured ==
    // (R/r - 1)(N - 1) at every geometry we pin here.
    for (n, k, r_prime) in [
        (8usize, 8usize, 4usize),
        (16, 8, 4),
        (32, 16, 2),
        (24, 12, 3),
    ] {
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        let demux = RoundRobinDemux::new(n, k);
        let atk = concentration_attack(&demux, &cfg, &(0..n as u32).collect::<Vec<_>>(), 4 * k);
        let cmp = compare_bufferless_in(cfg, demux, &atk.trace, &Sink::default()).unwrap();
        assert_eq!(
            cmp.relative_delay().max as u64,
            bounds::corollary7_exact(&cfg),
            "N={n} K={k} r'={r_prime}"
        );
        assert_eq!(
            cmp.relative_jitter() as u64,
            bounds::corollary7_exact(&cfg),
            "jitter at N={n} K={k} r'={r_prime}"
        );
        assert_eq!(
            max_concentration(&cmp.pps.log),
            n,
            "concentration must be the full burst: {n}"
        );
    }
}

#[test]
fn urt_jitter_exact_to_the_slot() {
    let cfg = PpsConfig::bufferless(32, 8, 8);
    for u in [1u64, 2, 4] {
        let atk = urt_burst_attack(&cfg, u);
        let cmp = compare_bufferless_in(
            cfg,
            StaleLeastLoadedDemux::new(32, 8, u),
            &atk.trace,
            &Sink::default(),
        )
        .unwrap();
        assert_eq!(
            cmp.relative_jitter() as u64,
            bounds::theorem10_exact(&cfg, u),
            "u = {u}"
        );
    }
}

#[test]
fn fixed_seed_bernoulli_run_is_stable() {
    // A pinned stochastic run: trace shape and headline metrics must never
    // change for seed 20260705. (Numbers are pinned against the vendored
    // xoshiro256++ StdRng — see vendor/README.md and EXPERIMENTS.md
    // "Deviations".)
    let (n, k, r_prime) = (8, 8, 2);
    let trace = BernoulliGen::uniform(0.8, 20_260_705).trace(n, 1_000);
    assert_eq!(trace.len(), 6358, "generator output drifted");
    assert_eq!(min_burstiness(&trace, n), 13);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let cmp =
        compare_bufferless_in(cfg, RoundRobinDemux::new(n, k), &trace, &Sink::default()).unwrap();
    let rd = cmp.relative_delay();
    assert_eq!(rd.pps_undelivered, 0);
    assert!(
        (0..=6).contains(&rd.max),
        "typical-case relative delay moved: {}",
        rd.max
    );
}

#[test]
fn a1_fail_recover_loss_and_recovery_pinned() {
    // The extended A1 fail→recover ablation, slot-exact for one pinned
    // geometry and seed: plane 0 down during [200, 800), watchdog 16.
    // A fault-blind round robin loses outage_fraction × 1/K of the trace
    // (600/1200 × 1/4 ≈ 12.5%) spread evenly over the inputs, and settles
    // back to the pre-fault delay level 44 slots after PlaneUp; the
    // centralized fault-aware round robin reroutes in the failure slot and
    // loses nothing.
    let (n, k, r_prime) = (8, 4, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime).with_watchdog(16);
    let trace = BernoulliGen::uniform(0.6, 11).trace(n, 1_200);
    assert_eq!(trace.len(), 5808, "generator output drifted");
    let window = (200, 800);
    let plan = FaultPlan::new()
        .plane_down(0, window.0)
        .plane_up(0, window.1);

    let cmp = compare_bufferless_faulted_in(
        cfg,
        RoundRobinDemux::new(n, k),
        &trace,
        &plan,
        &Sink::default(),
    )
    .unwrap();
    let fd = fault_impact(&cmp.pps.log, &cmp.oq, n, window);
    assert_eq!(fd.lost, 732, "fault-blind loss count drifted");
    assert!((fd.loss_fraction - 732.0 / 5808.0).abs() < 1e-12);
    assert_eq!(fd.recovery_time(), Some(44), "recovery time drifted");
    assert!(
        fd.loss_concentration < 1.5,
        "unpartitioned loss must stay spread out: {}",
        fd.loss_concentration
    );

    let cmp = compare_bufferless_faulted_in(
        cfg,
        FaultAwareRoundRobinDemux::centralized(n, k),
        &trace,
        &plan,
        &Sink::default(),
    )
    .unwrap();
    let cent = fault_impact(&cmp.pps.log, &cmp.oq, n, window);
    assert_eq!(
        cent.lost, 0,
        "a centralized demux must dodge the dead plane"
    );
    assert_eq!(cent.recovery_time(), Some(0));
}

#[test]
fn cpa_and_delayed_cpa_exactness_pinned() {
    let (n, k, r_prime) = (8, 8, 4);
    let trace = BernoulliGen::uniform(1.0, 7).trace(n, 500);
    let cpa_cfg =
        PpsConfig::bufferless(n, k, r_prime).with_discipline(OutputDiscipline::GlobalFcfs);
    let cmp = compare_bufferless_in(
        cpa_cfg,
        CpaDemux::new(n, k, r_prime),
        &trace,
        &Sink::default(),
    )
    .unwrap();
    assert_eq!(cmp.relative_delay().max, 0, "CPA exactness regressed");

    let u = 3u64;
    let buf_cfg = PpsConfig::buffered(n, k, r_prime, u as usize)
        .with_discipline(OutputDiscipline::GlobalFcfs);
    let cmp = compare_buffered_in(
        buf_cfg,
        DelayedCpaDemux::new(n, k, r_prime, u),
        &trace,
        &Sink::default(),
    )
    .unwrap();
    assert_eq!(
        cmp.relative_delay().max,
        bounds::theorem12_upper(u) as i64,
        "delayed CPA should sit exactly at u under saturation"
    );
}

/// What one buffered run is pinned by: max and total relative delay, an
/// FNV-1a fold of every cell's `(departure, plane)`, and the fabric
/// statistics that are not the same in all four runs below.
#[derive(Debug, PartialEq)]
struct BufferedPin {
    max: i64,
    total: i64,
    digest: u64,
    plane_carried: [u64; 4],
    max_plane_queue: usize,
    max_output_held: usize,
    stalled_slots: u64,
}

fn buffered_pin<D: BufferedDemultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    plan: Option<&FaultPlan>,
) -> BufferedPin {
    let mut pps = BufferedPps::new(cfg, demux).unwrap();
    if let Some(plan) = plan {
        pps.set_fault_plan(plan).unwrap();
    }
    let run = pps.run(trace).unwrap();
    let rd = relative_delay(&run.log, &run_oq_in(trace, cfg.n, &Sink::default()));
    assert_eq!(rd.pps_undelivered, 0);
    let digest = run.log.records().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let word = r.departure().unwrap() << 8 | r.plane().unwrap().0 as u64;
        (h ^ word).wrapping_mul(0x0100_0000_01b3)
    });
    let stats = run.stats;
    let cells = trace.len() as u64;
    assert_eq!(
        (stats.input_line_uses, stats.output_line_uses),
        (cells, cells)
    );
    assert_eq!(
        (stats.dropped, stats.skipped, stats.late_dropped),
        (0, 0, 0)
    );
    BufferedPin {
        max: rd.max,
        total: (rd.mean * rd.compared as f64).round() as i64,
        digest,
        plane_carried: stats.plane_carried.try_into().unwrap(),
        max_plane_queue: stats.max_plane_queue,
        max_output_held: stats.max_output_held,
        stalled_slots: stats.stalled_slots,
    }
}

#[test]
fn hold_then_dispatch_demuxes_pinned_fault_free_and_late_release() {
    // The arbiter and delayed CPA, slot-exact, on one Bernoulli trace —
    // fault-free, and under a plan that blacks out every line of input 0
    // over [100, 130) (and of input 5 over [300, 306)), then leaves input 0
    // a single line until 190: heads that ripen inside a window are
    // released late, and the backlog drains through one plane, missing CPA
    // deadlines. Delayed CPA must book such a head at `arrival + u`, not at
    // the slot it finally leaves the buffer — which deadline a late head
    // misses, and so every later reservation, depends on it (booking at
    // the release slot moves the last digest below).
    let (n, k, r_prime, u) = (8, 4, 2, 3u64);
    let trace = BernoulliGen::uniform(0.7, 20_261_004).trace(n, 600);
    assert_eq!(trace.len(), 3312, "generator output drifted");
    let mut plan = FaultPlan::new();
    for p in 0..k as u32 {
        let until = if p + 1 < k as u32 { 190 } else { 130 };
        plan = plan
            .link_degraded(0, p, 100, until)
            .link_degraded(5, p, 300, 306);
    }
    let cfg = PpsConfig::buffered(n, k, r_prime, 64);
    let fcfs = cfg.with_discipline(OutputDiscipline::GlobalFcfs);

    let arb = |plan| buffered_pin(cfg, ArbitratedCrossbarDemux::new(k, u), &trace, plan);
    assert_eq!(
        arb(None),
        BufferedPin {
            max: 4,
            total: 9_944,
            digest: 2_898_792_441_924_745_679,
            plane_carried: [1192, 983, 716, 421],
            max_plane_queue: 2,
            max_output_held: 8,
            stalled_slots: 1,
        }
    );
    assert_eq!(
        arb(Some(&plan)),
        BufferedPin {
            max: 49,
            total: 13_840,
            digest: 1_992_176_032_127_538_833,
            plane_carried: [1179, 978, 705, 450],
            max_plane_queue: 2,
            max_output_held: 8,
            stalled_slots: 1,
        }
    );

    let dcpa = |plan| buffered_pin(fcfs, DelayedCpaDemux::new(n, k, r_prime, u), &trace, plan);
    assert_eq!(
        dcpa(None),
        BufferedPin {
            max: bounds::theorem12_upper(u) as i64,
            total: 3 * 3_312,
            digest: 10_630_103_895_134_710_532,
            plane_carried: [830, 833, 825, 824],
            max_plane_queue: 2,
            max_output_held: 8,
            stalled_slots: 0,
        }
    );
    assert_eq!(
        dcpa(Some(&plan)),
        BufferedPin {
            max: 49,
            total: 38_896,
            digest: 2_168_361_489_938_051_125,
            plane_carried: [820, 831, 816, 845],
            max_plane_queue: 2,
            max_output_held: 36,
            stalled_slots: 526,
        }
    );
}

/// Every decoded record of each log, pinned through `RunLog::digest`.
#[test]
fn run_logs_pinned_record_by_record() {
    let n = 8;
    let trace = BernoulliGen::uniform(0.9, 20_261_015).trace(n, 400);
    assert_eq!(trace.len(), 2_880, "generator output drifted");

    // A bufferless run the cap cuts short: S = K/r' = 1 at load 0.9, so
    // cells are still queued at the cap and the tail of the trace never
    // enters; both must be in the log, undelivered.
    let cfg = PpsConfig::bufferless(n, 4, 4);
    let mut pps = BufferlessPps::new(cfg, RoundRobinDemux::new(n, 4)).unwrap();
    let (log, end) = drive(&mut pps, &trace, n, 250, Stepping::SkipAhead).unwrap();
    assert_eq!((log.len(), log.undelivered(), end), (2_880, 1_186, 251));
    assert_eq!(log.digest(), 1_091_812_291_846_684_596);

    // The same trace parked 40 slots short of the end of time.
    let late = Slot::MAX - 40;
    let short = BernoulliGen::uniform(0.7, 7).trace(4, 6);
    let parked = Trace::build(
        short
            .arrivals()
            .map(|a| Arrival {
                slot: a.slot + late,
                ..a
            })
            .collect(),
        4,
    )
    .unwrap();
    let run = BufferlessPps::new(PpsConfig::bufferless(4, 4, 2), RoundRobinDemux::new(4, 4))
        .unwrap()
        .run(&parked)
        .unwrap();
    assert_eq!((run.log.len(), run.log.undelivered()), (17, 0));
    assert_eq!(run.log.digest(), 821_019_722_547_188_102);

    // Every line of input 0 degraded over [100, 160), plane 1 of input 3
    // until 300: the PPS log and its shadow.
    let mut plan = FaultPlan::new().link_degraded(3, 1, 50, 300);
    for p in 0..4 {
        plan = plan.link_degraded(0, p, 100, 160);
    }
    let cfg = PpsConfig::bufferless(n, 8, 4);
    let cmp = compare_bufferless_faulted_in(
        cfg,
        RoundRobinDemux::new(n, 8),
        &trace,
        &plan,
        &Sink::default(),
    )
    .unwrap();
    assert_eq!(cmp.pps.log.undelivered(), 0);
    assert_eq!(
        (cmp.pps.log.digest(), cmp.oq.digest()),
        (11_638_941_279_935_590_786, 3_514_907_558_018_720_795)
    );

    // One iSLIP and one CIOQ log.
    let islip = run_crossbar_in(&trace, IslipArbiter::new(n, 2), &Sink::default()).0;
    let cioq = run_cioq_in(&trace, n, 2, CioqPolicy::MaximalRr, &Sink::default());
    assert_eq!(
        (islip.digest(), cioq.digest()),
        (2_118_753_898_183_900_666, 2_052_834_561_015_913_874)
    );
}

/// A buffered run whose first cell waits out a 2³³-slot outage of both of
/// its input's lines: a delay no 32-bit count holds, pinned exactly.
#[test]
fn a_delay_past_32_bits_is_logged_exactly() {
    let (n, k) = (2, 2);
    let trace = Trace::build(
        vec![
            Arrival::new(0, 0, 0),
            Arrival::new(0, 1, 1),
            Arrival::new(3, 1, 0),
        ],
        n,
    )
    .unwrap();
    let mut plan = FaultPlan::new();
    for p in 0..k as u32 {
        plan = plan.link_degraded(0, p, 0, 1 << 33);
    }
    let cfg = PpsConfig::buffered(n, k, 2, 4);
    let mut pps = BufferedPps::new(cfg, BufferedRoundRobinDemux::new(n, k)).unwrap();
    pps.set_fault_plan(&plan).unwrap();
    let (log, _) = drive(&mut pps, &trace, n, Slot::MAX, Stepping::SkipAhead).unwrap();
    assert_eq!(log.get(CellId(0)).departure(), Some(8_589_934_592));
    assert_eq!(log.undelivered(), 0);
    assert_eq!(log.digest(), 1_796_082_664_204_833_447);
}
