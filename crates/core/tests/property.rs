//! Property tests for the model substrate.

use proptest::prelude::*;

use pps_core::link::{LinkBank, LinkSide};
use pps_core::prelude::*;
use pps_core::rate::Ratio;
use pps_core::snapshot::{GlobalSnapshot, SnapshotRing};

proptest! {
    #[test]
    fn ratio_reduction_preserves_value(num in 1u64..10_000, den in 1u64..10_000) {
        let r = Ratio::new(num, den);
        // Cross-multiplication equality with the unreduced pair.
        prop_assert_eq!(r.num() as u128 * den as u128, num as u128 * r.den() as u128);
        // to_f64 is consistent.
        prop_assert!((r.to_f64() - num as f64 / den as f64).abs() < 1e-9);
    }

    #[test]
    fn ratio_ordering_is_exact(a in 1u64..1000, b in 1u64..1000, c in 1u64..1000, d in 1u64..1000) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        prop_assert_eq!(x.ge(y), (a as f64 / b as f64) >= (c as f64 / d as f64) ||
            a as u128 * d as u128 == c as u128 * b as u128);
    }

    #[test]
    fn div_int_floor_matches_float(num in 1u64..100, den in 1u64..100, x in 0u64..10_000) {
        let r = Ratio::new(num, den);
        let exact = (x as u128 * den as u128 / num as u128) as u64;
        prop_assert_eq!(r.div_int_floor(x), exact);
    }

    #[test]
    fn link_bank_spacing_invariant(
        r_prime in 1usize..6,
        uses in proptest::collection::vec(0u64..200, 1..40),
    ) {
        // Acquire the same line at the given slots (sorted, deduped):
        // acquisition succeeds iff spacing >= r'.
        let mut slots = uses;
        slots.sort_unstable();
        slots.dedup();
        let mut bank = LinkBank::new(1, 1, r_prime, LinkSide::InputToPlane);
        let mut last: Option<u64> = None;
        for &t in &slots {
            let expect_ok = last.is_none_or(|l| t >= l + r_prime as u64);
            let got = bank.acquire(0, 0, t);
            prop_assert_eq!(got.is_ok(), expect_ok, "slot {} after {:?}", t, last);
            if expect_ok {
                last = Some(t);
            }
        }
    }

    #[test]
    fn snapshot_ring_serves_exactly_u_old(u in 1u64..16, horizon in 16u64..64) {
        let mut ring = SnapshotRing::new(u);
        for t in 0..horizon {
            ring.push(GlobalSnapshot::empty(2, 2, t));
            // After pushing slot t's snapshot, a decision at slot t+1 .. may
            // consult taken_at = (t+1) - u if it exists.
            let now = t + 1;
            match ring.view(now) {
                Some(s) => prop_assert_eq!(s.taken_at, now - u),
                None => prop_assert!(now < u + 1, "view missing at now={} u={}", now, u),
            }
        }
    }

    #[test]
    fn trace_cells_are_dense_and_ordered(
        raw in proptest::collection::vec((0u64..50, 0u32..6, 0u32..6), 0..60),
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .filter(|&(slot, input, _)| seen.insert((slot, input)))
            .map(|(slot, input, output)| Arrival::new(slot, input, output))
            .collect();
        let trace = Trace::build(arrivals, 6).unwrap();
        let cells = trace.cells(6);
        // Ids dense and in (slot, input) order; per-flow seqs dense from 0.
        let mut per_flow: std::collections::BTreeMap<FlowId, u32> = Default::default();
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(c.id, CellId(i as u64));
            if i > 0 {
                let prev = &cells[i - 1];
                prop_assert!((prev.arrival, prev.input) < (c.arrival, c.input));
            }
            let next = per_flow.entry(c.flow()).or_insert(0);
            prop_assert_eq!(c.seq, *next);
            *next += 1;
        }
    }

    #[test]
    fn trace_composition_preserves_cells(
        gap in 0u64..20,
        len_a in 0usize..20,
        len_b in 0usize..20,
    ) {
        let mk = |len: usize| {
            Trace::build((0..len).map(|s| Arrival::new(s as u64, 0, 0)).collect(), 1).unwrap()
        };
        let a = mk(len_a);
        let b = mk(len_b);
        let c = a.clone().then(&b, gap);
        prop_assert_eq!(c.len(), a.len() + b.len());
        if !a.is_empty() && !b.is_empty() {
            // The composed second part starts strictly after the first's
            // horizon plus the gap.
            let second_start = c.arrival(a.len()).slot;
            prop_assert_eq!(second_start, a.horizon() + 1 + gap);
        }
    }
}
