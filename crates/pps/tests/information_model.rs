//! The information classification, verified from the inside: spy
//! demultiplexors record exactly what view the engine hands them, and the
//! tests assert it matches the paper's definitions — fully-distributed
//! algorithms see nothing global (Definition 5), `u`-RT algorithms see
//! precisely the `u`-slot-old snapshot (Definition 9), centralized ones
//! the current state.

use pps_core::prelude::*;
use pps_switch::engine::BufferlessPps;
use std::sync::{Arc, Mutex};

/// Per-dispatch observation: `(slot, Some(snapshot taken_at) | None)`.
type Seen = Arc<Mutex<Vec<(Slot, Option<Slot>)>>>;

/// Records the global views it was offered; dispatches round-robin.
#[derive(Clone)]
struct SpyDemux {
    class: InfoClass,
    next: u32,
    k: u32,
    seen: Seen,
}

impl Demultiplexor for SpyDemux {
    fn info_class(&self) -> InfoClass {
        self.class
    }
    fn dispatch(&mut self, _cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
        self.seen
            .lock()
            .unwrap()
            .push((ctx.local.now, ctx.global.map(|g| g.taken_at)));
        let p = ctx.local.next_free_from(self.next as usize).unwrap();
        self.next = (p as u32 + 1) % self.k;
        PlaneId(p as u32)
    }
}

fn run_spy(class: InfoClass, slots: Slot) -> Vec<(Slot, Option<Slot>)> {
    let (n, k, r_prime) = (2usize, 4usize, 2usize);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let demux = SpyDemux {
        class,
        next: 0,
        k: k as u32,
        seen: seen.clone(),
    };
    let trace = Trace::build(
        (0..slots)
            .map(|s| Arrival::new(s, (s % 2) as u32, 0))
            .collect(),
        n,
    )
    .unwrap();
    let mut pps = BufferlessPps::new(cfg, demux).unwrap();
    pps.run(&trace).unwrap();
    let out = seen.lock().unwrap().clone();
    out
}

#[test]
fn fully_distributed_sees_no_global_view_ever() {
    let seen = run_spy(InfoClass::FullyDistributed, 20);
    assert_eq!(seen.len(), 20);
    assert!(
        seen.iter().all(|&(_, g)| g.is_none()),
        "Definition 5 violated: a fully-distributed demux was handed global state"
    );
}

#[test]
fn u_rt_sees_exactly_the_u_old_snapshot() {
    for u in [1u64, 3, 7] {
        let seen = run_spy(InfoClass::RealTimeDistributed { u }, 20);
        for &(now, taken_at) in &seen {
            match taken_at {
                Some(t) => assert_eq!(
                    t,
                    now - u,
                    "u = {u}: at slot {now} the view should be from slot {}",
                    now - u
                ),
                None => assert!(
                    now < u,
                    "u = {u}: missing view at slot {now} although u slots elapsed"
                ),
            }
        }
        // The view does appear once enough history exists.
        assert!(seen.iter().any(|&(_, g)| g.is_some()), "u = {u}");
    }
}

#[test]
fn centralized_sees_the_current_slot() {
    let seen = run_spy(InfoClass::Centralized, 20);
    assert!(
        seen.iter().all(|&(now, g)| g == Some(now)),
        "centralized demux must see the current state: {seen:?}"
    );
}

#[test]
fn u_rt_snapshot_contents_lag_reality() {
    // Verify the *contents* lag, not just the timestamp: a u-RT spy that
    // records the total plane backlog it can see.
    #[derive(Clone)]
    struct BacklogSpy {
        u: Slot,
        seen: Arc<Mutex<Vec<(Slot, u64)>>>,
    }
    impl Demultiplexor for BacklogSpy {
        fn info_class(&self) -> InfoClass {
            InfoClass::RealTimeDistributed { u: self.u }
        }
        fn dispatch(&mut self, cell: &Cell, ctx: &DispatchCtx<'_>) -> PlaneId {
            if let Some(g) = ctx.global {
                assert!(
                    g.input_buffer_len.is_empty(),
                    "a bufferless PPS has no input buffers to report: {:?}",
                    g.input_buffer_len
                );
                let total: u64 = g.plane_queue_len.iter().map(|&x| x as u64).sum();
                self.seen.lock().unwrap().push((ctx.local.now, total));
            }
            // Concentrate everything on plane 0 when free, to build backlog.
            let p = ctx.local.next_free_from(0).unwrap();
            let _ = cell;
            PlaneId(p as u32)
        }
    }
    let (n, k, r_prime) = (4usize, 4usize, 4usize);
    let cfg = PpsConfig::bufferless(n, k, r_prime);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let demux = BacklogSpy {
        u: 4,
        seen: seen.clone(),
    };
    // Heavy fan-in to one output so plane backlog builds quickly.
    let trace = Trace::build(
        (0..40)
            .flat_map(|s| (0..4u32).map(move |i| Arrival::new(s, i, 0)))
            .collect(),
        n,
    )
    .unwrap();
    BufferlessPps::new(cfg, demux).unwrap().run(&trace).unwrap();
    let seen = seen.lock().unwrap();
    // Early in the run the stale view still shows an (almost) empty switch
    // although cells have been pouring in for u slots.
    let first = seen.first().expect("some views recorded");
    assert!(
        first.1 <= 4,
        "the first stale view should predate most of the backlog: {first:?}"
    );
    // Later views do see substantial backlog — information flows, just late.
    let max_seen = seen.iter().map(|&(_, b)| b).max().unwrap();
    assert!(max_seen > 8, "stale views never caught up: {max_seen}");
}
