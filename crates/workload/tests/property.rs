//! Property tests over the whole generator family: every stream is
//! deterministic under its seed, skip-ahead materialization is exactly
//! the dense walk, the structural one-cell-per-(slot, input) limit holds,
//! a shaped stream's emitted trace satisfies the leaky-bucket contract it
//! is built with, and the slot-by-slot materializer builds exactly the
//! trace `Trace::build` makes of the collected emissions — across
//! randomized parameters, not just the hand-picked ones in the unit tests.

use proptest::prelude::*;

use pps_core::prelude::*;
use pps_traffic::{min_burstiness, LbContract};
use pps_workload::{
    materialize, materialize_dense, ArrivalStream, Shaped, UniformGen, WorkloadSpec,
};

const HORIZON: Slot = 1_200;

/// A random spec string for one of the five generator families (replay is
/// exercised separately in `replay.rs` unit tests — it needs a file).
fn spec_string(family: usize, n: usize, seed: u64, pct: u32) -> String {
    match family {
        0 => format!("uniform:n={n},seed={seed},load=0.{pct:02}"),
        1 => format!("zipf:n={n},seed={seed},load=0.{pct:02},s=1.15,flows=65536"),
        2 => format!("mmpp:n={n},seed={seed},calm=0.{pct:02},burst=0.9"),
        3 => format!("onoff:n={n},seed={seed},on=0.{pct:02},off=0.25"),
        _ => format!("shaped:n={n},seed={seed},load=0.{pct:02},num=2,den=3,burst=5"),
    }
}

/// Every arrival `stream` emits before `horizon`, collected in emission
/// order: the vector the streaming materializer never stages.
fn collected(stream: &mut dyn ArrivalStream, horizon: Slot) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut now = 0;
    while let Some(next) = stream.next_activity(now).filter(|&t| t < horizon) {
        stream.emit(next, &mut out);
        now = next + 1;
    }
    out
}

/// A spec of family `family` — the five generators, or a replay of a
/// saved uniform trace tiled twice — and the horizon its trace runs to.
fn any_family(family: usize, n: usize, seed: u64, pct: u32) -> (WorkloadSpec, Slot) {
    if family < 5 {
        let s = format!("{},horizon={HORIZON}", spec_string(family, n, seed, pct));
        return (WorkloadSpec::parse(&s).unwrap(), HORIZON);
    }
    let path = std::env::temp_dir().join(format!("pps_replay_{n}_{seed}_{pct}.csv"));
    let recorded = WorkloadSpec::parse(&spec_string(0, n, seed, pct)).unwrap();
    let recorded = materialize(recorded.stream().unwrap().as_mut(), HORIZON);
    pps_core::trace_io::save(&recorded, &path).unwrap();
    let spec = format!("replay:path={},n={n},repeat=2", path.display());
    (WorkloadSpec::parse(&spec).unwrap(), Slot::MAX)
}

/// One line per input, each slot's cells emitted from the highest input
/// down: a stream out of input order, which the appender sorts.
struct Descending {
    n: u32,
}

impl ArrivalStream for Descending {
    fn ports(&self) -> usize {
        self.n as usize
    }
    fn next_activity(&self, from: Slot) -> Option<Slot> {
        Some(from)
    }
    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        for i in (0..self.n)
            .rev()
            .filter(|&i| !(slot + u64::from(i)).is_multiple_of(3))
        {
            out.push(Arrival::new(slot, i, (i + slot as u32) % self.n));
        }
    }
}

/// One cell a slot on input 0, and a second on input 0 in slot `twice`:
/// a stream that breaks the one-cell-per-line contract.
struct Duplicate {
    twice: Slot,
}

impl ArrivalStream for Duplicate {
    fn ports(&self) -> usize {
        2
    }
    fn next_activity(&self, from: Slot) -> Option<Slot> {
        Some(from)
    }
    fn emit(&mut self, slot: Slot, out: &mut Vec<Arrival>) {
        out.push(Arrival::new(slot, 0, 1));
        if slot == self.twice {
            out.push(Arrival::new(slot, 0, 0));
        }
    }
}

#[test]
fn streaming_sorts_a_slot_and_refuses_a_duplicate_like_the_build() {
    let streamed = materialize(&mut Descending { n: 5 }, 40);
    let built = Trace::build(collected(&mut Descending { n: 5 }, 40), 5).unwrap();
    assert_eq!(streamed, built);
    assert!(streamed.len() > 100);

    let built = Trace::build(collected(&mut Duplicate { twice: 7 }, 20), 2);
    let built = built.unwrap_err().to_string();
    let streamed = std::panic::catch_unwind(|| materialize(&mut Duplicate { twice: 7 }, 20));
    let panic = streamed.unwrap_err();
    let streamed = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(built.contains("two arrivals on input"), "{built}");
    assert!(streamed.ends_with(&built), "{streamed} vs {built}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_materialize_builds_what_trace_build_builds(
        family in 0usize..6,
        n in 2usize..9,
        seed in 0u64..100_000,
        pct in 5u32..60,
    ) {
        let (spec, horizon) = any_family(family, n, seed, pct);
        let streamed = spec.trace().unwrap();
        let built = Trace::build(collected(spec.stream().unwrap().as_mut(), horizon), n);
        if let WorkloadSpec::Replay { path, .. } = &spec {
            let _ = std::fs::remove_file(path);
        }
        prop_assert_eq!(&streamed, &built.unwrap(), "{:?}", spec);
        prop_assert!(!streamed.is_empty());
    }

    #[test]
    fn skip_walk_is_exactly_the_dense_walk(
        family in 0usize..5,
        n in 2usize..9,
        seed in 0u64..100_000,
        pct in 5u32..60,
    ) {
        let spec = WorkloadSpec::parse(&spec_string(family, n, seed, pct)).unwrap();
        let skip = materialize(spec.stream().unwrap().as_mut(), HORIZON);
        let dense = materialize_dense(spec.stream().unwrap().as_mut(), HORIZON);
        prop_assert_eq!(&skip, &dense, "skip/dense diverge for {:?}", spec);
        // Two independently built streams from one spec: the same cells —
        // the seed is the whole story, construction order is not.
        let again = materialize(spec.stream().unwrap().as_mut(), HORIZON);
        prop_assert_eq!(&skip, &again);
    }

    #[test]
    fn streams_respect_the_structural_per_input_limit(
        family in 0usize..5,
        n in 2usize..9,
        seed in 0u64..100_000,
        pct in 30u32..95,
    ) {
        // At most one cell per (slot, input) — every input is a single
        // line at rate 1 — and outputs stay in range. `Trace::build`
        // asserts the former too, but through this trait-level walk the
        // raw emissions are what is being promised.
        let spec = WorkloadSpec::parse(&spec_string(family, n, seed, pct)).unwrap();
        let trace = materialize(spec.stream().unwrap().as_mut(), HORIZON);
        let mut seen = std::collections::HashSet::new();
        for a in trace.arrivals() {
            prop_assert!(a.slot < HORIZON);
            prop_assert!(a.input.idx() < n && a.output.idx() < n);
            prop_assert!(seen.insert((a.slot, a.input)), "two cells on one line");
        }
    }

    #[test]
    fn shaped_streams_admit_their_own_contract(
        n in 2usize..9,
        seed in 0u64..100_000,
        load_pct in 50u32..100,
        num in 1u64..4,
        extra_den in 0u64..3,
        burst in 1u64..8,
    ) {
        // Whatever (σ, ρ) bucket the policer enforces, the emitted trace
        // must pass the *independent* checker — rate below, at, and above
        // the offered load all occur in this range.
        let den = num + extra_den;
        let contract = LbContract::new(num, den, burst);
        let load = f64::from(load_pct.min(99)) / 100.0;
        let mut g = Shaped::new(UniformGen::new(seed, n, load), contract);
        let trace = materialize(&mut g, HORIZON);
        prop_assert!(
            contract.admits(&trace, n),
            "shaped trace breaches its bucket"
        );
    }

    #[test]
    fn leaky_bucket_validator_agrees_with_shaper(
        n in 2usize..=6,
        b in 0u64..6,
        seed in 0u64..100,
    ) {
        // Police over-demand to Definition 3's rate with burst B, then
        // verify the scanner certifies at most B. At B = 0 that is
        // `min_burstiness == 0` on a trace that carries cells: the
        // burst-free traffic of Theorems 6, 8 and 13.
        let mut g = Shaped::new(UniformGen::new(seed, n, 0.9), LbContract::new(1, 1, b));
        let shaped = materialize(&mut g, 40);
        let b_min = min_burstiness(&shaped, n);
        prop_assert!(!shaped.is_empty(), "the policer passed no cell");
        prop_assert!(b_min <= b, "policer output exceeds B = {}: B_min = {}", b, b_min);
    }

    #[test]
    fn spec_parse_round_trips_the_trace(
        family in 0usize..5,
        n in 2usize..6,
        seed in 0u64..1_000,
        pct in 10u32..50,
    ) {
        // The spec string is the unit of reproducibility: parsing the
        // same string twice yields byte-identical traces.
        let s = spec_string(family, n, seed, pct);
        let a = WorkloadSpec::parse(&s).unwrap();
        let b = WorkloadSpec::parse(&s).unwrap();
        prop_assert_eq!(
            materialize(a.stream().unwrap().as_mut(), HORIZON),
            materialize(b.stream().unwrap().as_mut(), HORIZON)
        );
    }
}
