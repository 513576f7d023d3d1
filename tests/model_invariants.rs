//! Cross-crate property tests of the formal model's obligations:
//! whatever the configuration, traffic and demultiplexing algorithm,
//!
//! * no cell is lost or duplicated (every cell departs exactly once);
//! * per-flow order is preserved end to end;
//! * the input and output line constraints are never violated (the engine
//!   hard-errors on violation, so `Ok` + full delivery certifies it);
//! * at most one cell departs per output per slot (structural in the
//!   engine; re-checked here from the log).

use proptest::prelude::*;

use pps_core::oracle::{check_flow_order, check_work_conserving};
use pps_core::prelude::*;
use pps_reference::oq::run_oq_in;
use pps_switch::demux::{
    BufferedRoundRobinDemux, CpaDemux, DelayedCpaDemux, FtdDemux, PerFlowRoundRobinDemux,
    RandomDemux, RoundRobinDemux, StaleLeastLoadedDemux, StaticPartitionDemux,
};
use pps_switch::engine::{BufferedPps, BufferlessPps, PpsRun};

/// Random geometry: (n, k, r') with K >= r' (bufferless-legal).
fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..=9, 1usize..=4)
        .prop_flat_map(|(n, r_prime)| (r_prime..=r_prime * 4).prop_map(move |k| (n, k, r_prime)))
}

/// Random trace for an n-port switch: up to `slots` slots, arrival
/// probability per (slot, input) controlled per case.
fn trace_strategy(n: usize, slots: u64) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        (0..slots, 0..n as u32, 0..n as u32, 0..=1u8),
        0..(slots as usize * n).min(400),
    )
    .prop_map(move |raw| {
        let mut seen = std::collections::BTreeSet::new();
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .filter(|&(_, _, _, keep)| keep == 1)
            .filter(|&(slot, input, _, _)| seen.insert((slot, input)))
            .map(|(slot, input, output, _)| Arrival::new(slot, input, output))
            .collect();
        Trace::build(arrivals, n).expect("deduped by (slot, input)")
    })
}

fn assert_run_obligations(run: &PpsRun, what: &str) {
    assert_eq!(
        run.log.undelivered(),
        0,
        "{what}: cells stuck in the switch"
    );
    assert_eq!(run.stats.dropped, 0, "{what}: cells dropped");
    let order = check_flow_order(&run.log);
    assert!(order.is_empty(), "{what}: flow order violated: {order:?}");
    // At most one departure per output per slot.
    let mut per_slot: std::collections::BTreeMap<(PortId, Slot), u32> = Default::default();
    for rec in run.log.records() {
        if let Some(dep) = rec.departure() {
            let c = per_slot.entry((rec.output, dep)).or_default();
            *c += 1;
            assert_eq!(
                *c, 1,
                "{what}: two departures from {:?} in slot {dep}",
                rec.output
            );
            assert!(dep >= rec.arrival, "{what}: departure before arrival");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bufferless_fully_distributed_obligations(
        (n, k, r_prime) in geometry(),
        seed in 0u64..1000,
    ) {
        // Use the generator crate for the trace (seeded): it covers the
        // full-load corner cases random sparse traces rarely hit.
        let trace = pps_traffic::gen::BernoulliGen::uniform(0.9, seed).trace(n, 60);
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        prop_assume!(cfg.validate().is_ok());
        let runs = vec![
            ("rr", BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).and_then(|mut pps| pps.run(&trace)).unwrap()),
            ("pfr", BufferlessPps::new(cfg, PerFlowRoundRobinDemux::new(n, k)).and_then(|mut pps| pps.run(&trace)).unwrap()),
            ("rand", BufferlessPps::new(cfg, RandomDemux::new(n, seed)).and_then(|mut pps| pps.run(&trace)).unwrap()),
            (
                "part",
                BufferlessPps::new(cfg, StaticPartitionDemux::minimal(n, k, r_prime)).and_then(|mut pps| pps.run(&trace))
                    .unwrap(),
            ),
        ];
        for (name, run) in &runs {
            assert_run_obligations(run, name);
        }
    }

    #[test]
    fn arbitrary_traces_satisfy_obligations(
        ((n, k, r_prime), trace) in geometry()
            .prop_flat_map(|g| trace_strategy(g.0, 40).prop_map(move |t| (g, t))),
    ) {
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        prop_assume!(cfg.validate().is_ok());
        let run = BufferlessPps::new(cfg, RoundRobinDemux::new(n, k)).and_then(|mut pps| pps.run(&trace)).unwrap();
        assert_run_obligations(&run, "rr/arbitrary");
    }

    #[test]
    fn ftd_obligations_and_block_distinctness(
        n in 2usize..=8,
        seed in 0u64..100,
    ) {
        let (k, r_prime, h) = (8usize, 2usize, 2usize);
        let trace = pps_traffic::gen::OnOffGen::uniform(6.0, 0.8, seed).trace(n, 80);
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        let mut pps = pps_switch::engine::BufferlessPps::new(
            cfg,
            FtdDemux::new(n, k, r_prime, h),
        ).unwrap();
        let run = pps.run(&trace).unwrap();
        assert_run_obligations(&run, "ftd");
        prop_assert_eq!(pps.demux().violations(), 0, "block distinctness broken");
        // Verify from the log: within each flow, any h*r' consecutive cells
        // ride distinct planes.
        let block = h * r_prime;
        let mut flows: std::collections::BTreeMap<FlowId, Vec<(u32, PlaneId)>> = Default::default();
        for rec in run.log.records() {
            flows.entry(rec.flow()).or_default().push((rec.seq, rec.plane().unwrap()));
        }
        for (flow, mut cells) in flows {
            cells.sort();
            for chunk_start in (0..cells.len()).step_by(block) {
                let chunk = &cells[chunk_start..(chunk_start + block).min(cells.len())];
                let planes: std::collections::BTreeSet<PlaneId> =
                    chunk.iter().map(|&(_, p)| p).collect();
                prop_assert_eq!(planes.len(), chunk.len(), "flow {:?} reused a plane in a block", flow);
            }
        }
    }

    #[test]
    fn urt_and_centralized_obligations(
        (n, k, r_prime) in geometry(),
        u in 1u64..6,
        seed in 0u64..100,
    ) {
        let cfg = PpsConfig::bufferless(n, k, r_prime);
        prop_assume!(cfg.validate().is_ok());
        let trace = pps_traffic::gen::BernoulliGen::uniform(0.7, seed).trace(n, 50);
        let urt = BufferlessPps::new(cfg, StaleLeastLoadedDemux::new(n, k, u)).and_then(|mut pps| pps.run(&trace)).unwrap();
        assert_run_obligations(&urt, "stale-least-loaded");
        let cpa_cfg = cfg.with_discipline(OutputDiscipline::GlobalFcfs);
        let cpa = BufferlessPps::new(cpa_cfg, CpaDemux::new(n, k, r_prime)).and_then(|mut pps| pps.run(&trace)).unwrap();
        assert_run_obligations(&cpa, "cpa");
    }

    #[test]
    fn buffered_engines_obligations(
        (n, k, r_prime) in geometry(),
        buffer in 1usize..32,
        seed in 0u64..100,
    ) {
        let cfg = PpsConfig::buffered(n, k, r_prime, buffer.max(8));
        let trace = pps_traffic::gen::BernoulliGen::uniform(0.8, seed).trace(n, 50);
        let run = BufferedPps::new(cfg, BufferedRoundRobinDemux::new(n, k)).and_then(|mut pps| pps.run(&trace)).unwrap();
        assert_run_obligations(&run, "buffered-rr");
        // Delayed CPA needs S >= 2 for its guarantee but must satisfy the
        // model obligations regardless; give it buffer >= u.
        let u = (buffer as u64 % 4) + 1;
        let cfg2 = PpsConfig::buffered(n, k, r_prime, u as usize + 1)
            .with_discipline(OutputDiscipline::GlobalFcfs);
        let run2 = BufferedPps::new(cfg2, DelayedCpaDemux::new(n, k, r_prime, u)).and_then(|mut pps| pps.run(&trace)).unwrap();
        assert_run_obligations(&run2, "delayed-cpa");
    }

    #[test]
    fn chaotic_but_legal_buffered_demux_obligations(
        (n, k, r_prime) in geometry(),
        seed in 0u64..200,
    ) {
        // A buffered demultiplexor making arbitrary *legal* choices: seeded
        // pseudo-random hold/release decisions onto free planes, never
        // overflowing. Whatever it does, the engine's obligations hold.
        #[derive(Clone)]
        struct Chaotic {
            state: u64,
            k: usize,
            cap: usize,
        }
        impl Chaotic {
            fn next(&mut self) -> u64 {
                self.state = self
                    .state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.state >> 33
            }
        }
        impl pps_core::demux::BufferedDemultiplexor for Chaotic {
            fn info_class(&self) -> InfoClass {
                InfoClass::FullyDistributed
            }
            fn slot_decision(
                &mut self,
                _input: PortId,
                arrival: Option<&Cell>,
                buffer: &[Cell],
                ctx: &DispatchCtx<'_>,
                out: &mut pps_core::demux::BufferedDecision,
            ) {
                let mut used = vec![false; self.k];
                let mut releases = Vec::new();
                // Randomly release a prefix of the buffer onto distinct
                // free planes.
                for idx in 0..buffer.len() {
                    if self.next().is_multiple_of(3) {
                        break; // hold the rest
                    }
                    let start = (self.next() as usize) % self.k;
                    let found = (0..self.k)
                        .map(|off| (start + off) % self.k)
                        .find(|&p| ctx.local.is_free(p) && !used[p]);
                    match found {
                        Some(p) => {
                            used[p] = true;
                            releases.push((idx, PlaneId(p as u32)));
                        }
                        None => break,
                    }
                }
                // Arrival: buffer if there is room after releases, else
                // dispatch (never drop).
                let arrival_action = arrival.map(|_| {
                    let room = buffer.len() - releases.len() < self.cap;
                    if room && self.next().is_multiple_of(2) {
                        pps_core::demux::ArrivalAction::Enqueue
                    } else {
                        let start = (self.next() as usize) % self.k;
                        match (0..self.k)
                            .map(|off| (start + off) % self.k)
                            .find(|&p| ctx.local.is_free(p) && !used[p])
                        {
                            Some(p) => pps_core::demux::ArrivalAction::Dispatch(PlaneId(p as u32)),
                            None => pps_core::demux::ArrivalAction::Enqueue,
                        }
                    }
                });
                out.releases.extend(releases);
                out.arrival = arrival_action;
            }
        }
        // Load well below capacity so "Enqueue with no room" cannot be
        // forced into an overflow by the adversarial RNG.
        let cap = 64usize;
        let cfg = PpsConfig::buffered(n, k, r_prime, cap);
        let trace = pps_traffic::gen::BernoulliGen::uniform(0.6, seed).trace(n, 50);
        let run = BufferedPps::new(cfg, Chaotic {
                state: seed.wrapping_add(1),
                k,
                cap,
            }).and_then(|mut pps| pps.run(&trace))
        .unwrap();
        assert_run_obligations(&run, "chaotic-buffered");
    }

    #[test]
    fn shadow_oq_is_work_conserving_and_matches_closed_form(
        n in 1usize..=8,
        seed in 0u64..200,
    ) {
        let trace = pps_traffic::gen::BernoulliGen::uniform(0.9, seed).trace(n, 80);
        let log = run_oq_in(&trace, n, &Sink::default());
        prop_assert_eq!(log.undelivered(), 0);
        for j in 0..n as u32 {
            prop_assert!(check_work_conserving(&log, PortId(j), None).is_empty());
        }
        prop_assert!(check_flow_order(&log).is_empty());
        let analytic: Vec<Slot> = pps_reference::oq::fcfs_departures(&trace, n).collect();
        for (id, rec) in log.iter() {
            prop_assert_eq!(rec.departure(), Some(analytic[id.idx()]));
        }
    }
}
