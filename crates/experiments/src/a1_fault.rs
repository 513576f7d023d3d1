//! A1 — fault-tolerance ablation (the paper's §3 motivation for
//! unpartitioned algorithms): *"if a demultiplexor sends cells only
//! through d < K planes, a damage in one plane causes more cell dropping
//! than if all K planes are utilized"* (and footnote 4: with exactly `r'`
//! planes per input, one plane failure immediately drops cells).
//!
//! We fail plane 0 and offer the same admissible load to the unpartitioned
//! round robin, the minimal static partition, and FTD. All three lose
//! roughly `1/K` of the aggregate (none re-routes without global
//! knowledge), but the *distribution* differs: the partitioned switch
//! concentrates the loss on the inputs whose subset contained the dead
//! plane, destroying half of everything they send, while the unpartitioned
//! algorithms spread the loss thinly over every flow.
//!
//! The second half is the *fail→recover* ablation: plane 0 goes down
//! mid-run and comes back 1000 slots later (a scripted [`FaultPlan`]), the
//! resequencer watchdog unblocks flows that lost a cell, and we measure
//! loss and recovery per information class. A fully-distributed round
//! robin never learns and feeds the dead plane for the whole outage; a
//! `u`-RT fault-aware round robin keeps feeding it for `u` more slots; a
//! centralized one reroutes in the failure slot. Loss ordering
//! `centralized < u-RT < fully-distributed` is the information hierarchy
//! of the paper made visible through faults instead of delay.

use crate::ExperimentOutput;
use pps_analysis::{compare_bufferless_faulted_in, fault_impact, FaultImpact, Table};
use pps_core::prelude::*;
use pps_core::sweep::SweepPlan;
use pps_switch::demux::{
    FaultAwareRoundRobinDemux, FtdDemux, RoundRobinDemux, StaticPartitionDemux,
};
use pps_switch::engine::BufferlessPps;
use pps_traffic::gen::BernoulliGen;

/// Per-algorithm outcome: `(dropped fraction overall, worst per-input
/// dropped fraction)`.
fn point<D: Demultiplexor>(cfg: PpsConfig, demux: D, trace: &Trace, sink: &Sink) -> (f64, f64) {
    let mut pps = BufferlessPps::new_in(cfg, demux, sink).expect("engine");
    pps.fail_plane(0).expect("plane 0 exists");
    let run = pps.run(trace).expect("model-legal run");
    let total = run.log.len() as f64;
    let mut sent = vec![0u64; cfg.n];
    let mut lost = vec![0u64; cfg.n];
    for rec in run.log.records() {
        sent[rec.input.idx()] += 1;
        // A cell is *lost* when it was dispatched onto the failed plane.
        // (Later same-flow cells are then also stuck behind it in the
        // resequencer — collateral the loss metric does not double-count.)
        if rec.plane() == Some(PlaneId(0)) && rec.departure().is_none() {
            lost[rec.input.idx()] += 1;
        }
    }
    let dropped: u64 = lost.iter().sum();
    let worst = sent
        .iter()
        .zip(&lost)
        .filter(|&(&s, _)| s > 0)
        .map(|(&s, &l)| l as f64 / s as f64)
        .fold(0.0f64, f64::max);
    (dropped as f64 / total, worst)
}

/// Fail→recover outcome for one demultiplexor: run the scripted `plan`
/// against a fault-free shadow switch and condense the degradation.
pub fn recovery_point<D: Demultiplexor>(
    cfg: PpsConfig,
    demux: D,
    trace: &Trace,
    plan: &FaultPlan,
    window: (Slot, Slot),
    sink: &Sink,
) -> FaultImpact {
    let cmp =
        compare_bufferless_faulted_in(cfg, demux, trace, plan, sink).expect("model-legal run");
    fault_impact(&cmp.pps.log, &cmp.oq, cfg.n, window)
}

/// Run the ablation.
pub(crate) fn run(sink: &Sink) -> ExperimentOutput {
    let (n, k, r_prime) = (16, 8, 2);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let trace = BernoulliGen::uniform(0.7, 77).trace(n, 3_000);
    let mut table = Table::new(
        format!("Plane-0 failure at N={n}, K={k}, r'={r_prime}, Bernoulli load 0.7"),
        &["algorithm", "aggregate loss", "worst per-input loss"],
    );
    let static_plan = SweepPlan::new_in("a1-static", vec![0usize, 1, 2], sink);
    let static_results = static_plan.run(|pt| match pt.params {
        0 => point(cfg, RoundRobinDemux::new(n, k), &trace, pt.sink),
        1 => point(
            cfg,
            StaticPartitionDemux::minimal(n, k, r_prime),
            &trace,
            pt.sink,
        ),
        _ => point(cfg, FtdDemux::new(n, k, r_prime, 2), &trace, pt.sink),
    });
    let (rr, sp, ftd) = (static_results[0], static_results[1], static_results[2]);
    for (name, (agg, worst)) in [("round-robin", rr), ("static-partition", sp), ("ftd", ftd)] {
        table.row_display(&[
            name.to_string(),
            format!("{:.1}%", agg * 100.0),
            format!("{:.1}%", worst * 100.0),
        ]);
    }
    // The partitioned switch must hurt its victims far more than the
    // unpartitioned ones hurt anyone.
    let static_pass = sp.1 > 2.0 * rr.1 && sp.1 > 2.0 * ftd.1 && rr.0 > 0.0;

    // Fail→recover ablation across the information classes: plane 0 down
    // at slot 500, back at slot 1500, watchdog unblocking the resequencer.
    let window = (500, 1500);
    let plan = FaultPlan::new()
        .plane_down(0, window.0)
        .plane_up(0, window.1);
    let fcfg = cfg.with_watchdog(32);
    let u = 32;
    let recovery_plan = SweepPlan::new_in("a1-recover", vec![0usize, 1, 2], sink);
    let recovery_results = recovery_plan.run(|pt| match pt.params {
        0 => recovery_point(
            fcfg,
            RoundRobinDemux::new(n, k),
            &trace,
            &plan,
            window,
            pt.sink,
        ),
        1 => recovery_point(
            fcfg,
            FaultAwareRoundRobinDemux::urt(n, k, u),
            &trace,
            &plan,
            window,
            pt.sink,
        ),
        _ => recovery_point(
            fcfg,
            FaultAwareRoundRobinDemux::centralized(n, k),
            &trace,
            &plan,
            window,
            pt.sink,
        ),
    });
    let [fd, urt, cent]: [FaultImpact; 3] = recovery_results.try_into().expect("three classes");
    let mut recovery_table = Table::new(
        format!(
            "Fail→recover (plane 0 down @{}, up @{}, watchdog 32, u = {u})",
            window.0, window.1
        ),
        &["class", "lost cells", "loss", "recovery (slots)"],
    );
    for (name, fi) in [
        ("fully distributed RR", &fd),
        ("u-RT fault-aware RR", &urt),
        ("centralized fault-aware RR", &cent),
    ] {
        recovery_table.row_display(&[
            name.to_string(),
            fi.lost.to_string(),
            format!("{:.2}%", fi.loss_fraction * 100.0),
            fi.recovery_time().map_or("never".into(), |t| t.to_string()),
        ]);
    }
    // The information hierarchy must show as a loss hierarchy, and every
    // class must settle back to its pre-fault delay level after PlaneUp.
    let recover_pass = cent.lost < urt.lost
        && urt.lost < fd.lost
        && fd.recovery_time().is_some()
        && urt.recovery_time().is_some()
        && cent.recovery_time().is_some();

    ExperimentOutput {
        id: "a1",
        title: "Fault-tolerance ablation — why the paper insists on unpartitioned algorithms"
            .into(),
        tables: vec![table, recovery_table],
        notes: vec![
            "worst per-input loss ~50% under the minimal partition (its r'=2 subset \
             lost one of two planes) vs ~1/K under unpartitioned spreading"
                .into(),
            "fail→recover: loss shrinks with information quality (centralized < u-RT \
             < fully distributed); all classes return to pre-fault relative delay \
             after the plane comes back"
                .into(),
        ],
        pass: static_pass && recover_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_loss_is_concentrated() {
        let (n, k, r) = (8, 4, 2);
        let cfg = PpsConfig::bufferless(n, k, r);
        let trace = BernoulliGen::uniform(0.6, 5).trace(n, 1_000);
        let (agg_sp, worst_sp) = point(
            cfg,
            StaticPartitionDemux::minimal(n, k, r),
            &trace,
            &Sink::default(),
        );
        let (agg_rr, worst_rr) = point(cfg, RoundRobinDemux::new(n, k), &trace, &Sink::default());
        assert!(agg_sp > 0.0 && agg_rr > 0.0);
        assert!(
            worst_sp > worst_rr,
            "partitioned worst {worst_sp} should exceed unpartitioned {worst_rr}"
        );
        assert!(worst_sp > 0.3, "a group lost half its planes: {worst_sp}");
    }

    #[test]
    fn full_run_passes() {
        assert!(run(&Sink::default()).pass);
    }

    #[test]
    fn information_hierarchy_shows_in_loss() {
        let (n, k, r) = (8, 4, 2);
        let cfg = PpsConfig::bufferless(n, k, r).with_watchdog(16);
        let trace = BernoulliGen::uniform(0.6, 11).trace(n, 1_200);
        let window = (200, 800);
        let plan = FaultPlan::new()
            .plane_down(0, window.0)
            .plane_up(0, window.1);
        let fd = recovery_point(
            cfg,
            RoundRobinDemux::new(n, k),
            &trace,
            &plan,
            window,
            &Sink::default(),
        );
        let urt = recovery_point(
            cfg,
            FaultAwareRoundRobinDemux::urt(n, k, 16),
            &trace,
            &plan,
            window,
            &Sink::default(),
        );
        let cent = recovery_point(
            cfg,
            FaultAwareRoundRobinDemux::centralized(n, k),
            &trace,
            &plan,
            window,
            &Sink::default(),
        );
        assert!(
            cent.lost <= urt.lost && urt.lost < fd.lost,
            "loss must shrink with information: cent {} / urt {} / fd {}",
            cent.lost,
            urt.lost,
            fd.lost
        );
        assert!(fd.recovery_time().is_some(), "FD must settle after PlaneUp");
        assert!(cent.recovery_time().is_some());
    }
}
