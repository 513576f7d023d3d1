//! Model-based property test for the fabric's timing-wheel agenda.
//!
//! [`Agenda`] — per-slot bitmap buckets walked with `trailing_zeros`
//! (DESIGN.md §12) — is checked against the structure it replaced: a
//! `BinaryHeap<Reverse<(Slot, u32, u32)>>` with a membership set. Both are
//! driven by one random script shaped like the fabric's use of the agenda:
//! pushes land in `[now, now + r']`, every service pass drains what is due
//! and re-arms some of the popped lines strictly later, time advances slot
//! by slot, by skip-ahead jumps to the next entry and by idle gaps, service
//! sometimes runs late (within what the wheel tolerates). The pop sequences
//! and the earliest pending slot must agree exactly after every step.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use pps_core::prelude::Slot;
use pps_switch::agenda::Agenda;

type Entry = (Slot, u32, u32);

/// The agenda as `Fabric` kept it before the wheel: a min-heap of
/// `(slot, plane, output)` plus one "has an entry" flag per line.
#[derive(Default)]
struct HeapAgenda {
    heap: BinaryHeap<Reverse<Entry>>,
    armed: BTreeSet<(u32, u32)>,
}

impl HeapAgenda {
    fn push(&mut self, at: Slot, plane: u32, output: u32) {
        if self.armed.insert((plane, output)) {
            self.heap.push(Reverse((at, plane, output)));
        }
    }

    fn peek(&self) -> Option<Slot> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    fn pop_due(&mut self, now: Slot) -> Option<Entry> {
        if self.peek()? > now {
            return None;
        }
        let Reverse(entry) = self.heap.pop()?;
        self.armed.remove(&(entry.1, entry.2));
        Some(entry)
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Whether — and for when — a service pass re-arms the line it just
/// popped: a pure function of the entry, so the heap and the wheel take
/// the same decision. Always `> now`, as a busy line's `free_at` and
/// `now + r'` are in the fabric.
fn rearm(seed: u64, (at, plane, output): Entry, now: Slot, r_prime: Slot) -> Option<Slot> {
    let mut h =
        seed ^ at.rotate_left(17) ^ now ^ (u64::from(plane) << 40) ^ (u64::from(output) << 20);
    let h = lcg(&mut h);
    match h % 4 {
        0 => None,
        1 | 2 => Some(now + r_prime),
        _ => Some(now + 1 + (h >> 8) % r_prime),
    }
}

const R_PRIMES: [usize; 5] = [1, 2, 4, 7, 16];
const PLANES: [usize; 3] = [3, 8, 16];
const STARTS: [Slot; 4] = [0, 5, (1 << 63) - 3, Slot::MAX - (1 << 24)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_matches_reference_heap(
        r_prime in (0usize..5).prop_map(|i| R_PRIMES[i]),
        n in 1usize..40,
        k in (0usize..3).prop_map(|i| PLANES[i]),
        start in (0usize..4).prop_map(|i| STARTS[i]),
        seed in 0u64..1_000_000,
        steps in 40usize..240,
    ) {
        let mut wheel = Agenda::new(n, k, r_prime);
        let mut heap = HeapAgenda::default();
        let rp = r_prime as Slot;
        // Slots service may lag by before distinct pending slots could
        // share a bucket: the wheel has `slack + r' + 1` buckets.
        let slack = (r_prime + 2).next_power_of_two() as Slot - 1 - rp;
        let mut rng = seed | 1;
        let mut now = start;

        for step in 0..steps {
            // Dispatches: a few lines, now and then most of the fabric at
            // once (full bitmap words), armed for `[now, now + r']`.
            let pushes = match lcg(&mut rng) % 8 {
                0 => 0,
                7 => k * n,
                d => d as usize,
            };
            for _ in 0..pushes {
                let at = now + lcg(&mut rng) % (rp + 1);
                let plane = (lcg(&mut rng) % k as u64) as u32;
                let output = (lcg(&mut rng) % n as u64) as u32;
                heap.push(at, plane, output);
                wheel.push(at, plane as usize, output as usize);
            }
            prop_assert_eq!(wheel.peek(), heap.peek(), "peek after dispatch, step {}", step);
            prop_assert_eq!(wheel.len(), heap.heap.len());

            // Service — unless this slot is skipped on purpose and the
            // oldest pending entry can still wait one more slot.
            let oldest = heap.peek().unwrap_or(now + 1);
            let run_late = lcg(&mut rng).is_multiple_of(6) && now + 1 - oldest.min(now + 1) <= slack;
            if !run_late {
                let mut expect = Vec::new();
                while let Some(e) = heap.pop_due(now) {
                    expect.push(e);
                    if let Some(at) = rearm(seed, e, now, rp) {
                        heap.push(at, e.1, e.2);
                    }
                }
                let mut got = Vec::new();
                while let Some(e) = wheel.pop_due(now) {
                    got.push(e);
                    if let Some(at) = rearm(seed, e, now, rp) {
                        wheel.push(at, e.1 as usize, e.2 as usize);
                    }
                }
                prop_assert_eq!(&got, &expect, "pop sequence, step {}", step);
                prop_assert_eq!(wheel.peek(), heap.peek(), "peek after service, step {}", step);
            }

            // Advance: next slot, a skip-ahead jump to the earliest entry,
            // or an idle gap while nothing is pending.
            now = match (heap.peek(), lcg(&mut rng) % 4) {
                (None, 0 | 1) => now + 1 + lcg(&mut rng) % 1000,
                (Some(at), 0) if !run_late => at.max(now + 1),
                _ => now + 1,
            };
        }

        // Drain: everything left comes out in heap order.
        let got: Vec<Entry> = std::iter::from_fn(|| wheel.pop_due(Slot::MAX)).collect();
        let expect: Vec<Entry> = std::iter::from_fn(|| heap.pop_due(Slot::MAX)).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(wheel.peek(), None);
    }
}
