//! Byte-identity pins for the deterministic traffic of the `cbr` and
//! `congestion` spec words: an FNV-1a digest of every arrival over a small
//! grid of ports, periods, sender counts and horizons (the empty horizon
//! and the one-slot horizon included). The digests were taken from the
//! `pps_traffic` generators these words replaced or replay.

use pps_core::prelude::*;
use pps_traffic::adversary::congestion_traffic;
use pps_workload::WorkloadSpec;

/// FNV-1a over the trace's length, then each arrival's slot, input and
/// output, in the trace's order.
fn digest(trace: &Trace) -> u64 {
    fn fold(h: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }
    trace
        .arrivals()
        .fold(fold(0xcbf2_9ce4_8422_2325, trace.len() as u64), |h, a| {
            [a.slot, a.input.0 as u64, a.output.0 as u64]
                .into_iter()
                .fold(h, fold)
        })
}

fn spec_trace(spec: &str) -> Trace {
    WorkloadSpec::parse(spec).unwrap().trace().unwrap()
}

const PORTS: [usize; 3] = [1, 8, 16];
const HORIZONS: [Slot; 3] = [0, 1, 50];

#[test]
fn cbr_digests_are_pinned() {
    let mut got = Vec::new();
    for n in PORTS {
        for period in [1, 2, 7] {
            for h in HORIZONS {
                let trace = spec_trace(&format!("cbr:n={n},period={period},horizon={h}"));
                got.push((n, period, h, trace.len(), digest(&trace)));
            }
        }
    }
    assert_eq!(got, CBR);
}

#[test]
fn congestion_digests_are_pinned() {
    let mut got = Vec::new();
    for n in PORTS {
        // Two senders, and every input: `2 ..= n` is the legal range.
        for senders in [2, n].into_iter().filter(|&s| (2..=n).contains(&s)) {
            for h in HORIZONS {
                let spec = format!("congestion:horizon={h},senders={senders},n={n}");
                let trace = spec_trace(&spec);
                assert_eq!(trace, congestion_traffic(n, 0, senders, h).trace, "{spec}");
                got.push((n, senders, h, trace.len(), digest(&trace)));
            }
        }
    }
    assert_eq!(got, CONGESTION);
}

/// `(n, period, horizon, cells, digest)`.
const CBR: &[(usize, Slot, Slot, usize, u64)] = &[
    (1, 1, 0, 0, 0xa8c7f832281a39c5),
    (1, 1, 1, 1, 0x07295d91aa94b524),
    (1, 1, 50, 50, 0xdd7fbc59ea475596),
    (1, 2, 0, 0, 0xa8c7f832281a39c5),
    (1, 2, 1, 1, 0x07295d91aa94b524),
    (1, 2, 50, 25, 0x992fd3a9d529a10c),
    (1, 7, 0, 0, 0xa8c7f832281a39c5),
    (1, 7, 1, 1, 0x07295d91aa94b524),
    (1, 7, 50, 8, 0xc4f9999e4dd8aeb5),
    (8, 1, 0, 0, 0xa8c7f832281a39c5),
    (8, 1, 1, 8, 0xd7d33e594b63c84d),
    (8, 1, 50, 400, 0x12756d1edc90a4fa),
    (8, 2, 0, 0, 0xa8c7f832281a39c5),
    (8, 2, 1, 4, 0x5de4a56c986d7c41),
    (8, 2, 50, 200, 0xfb8e13bdb8cc934d),
    (8, 7, 0, 0, 0xa8c7f832281a39c5),
    (8, 7, 1, 2, 0x6fba8804cf2ef867),
    (8, 7, 50, 58, 0xed4ab5d4ff582d46),
    (16, 1, 0, 0, 0xa8c7f832281a39c5),
    (16, 1, 1, 16, 0x160c9b81bb960ed5),
    (16, 1, 50, 800, 0x96496156d9263814),
    (16, 2, 0, 0, 0xa8c7f832281a39c5),
    (16, 2, 1, 8, 0xd28d604cb687fccd),
    (16, 2, 50, 400, 0x3dda4b314fccf4fa),
    (16, 7, 0, 0, 0xa8c7f832281a39c5),
    (16, 7, 1, 3, 0x14bfc9d09b937c46),
    (16, 7, 50, 115, 0x204e3ef8da23032c),
];

/// `(n, senders, horizon, cells, digest)`.
const CONGESTION: &[(usize, usize, Slot, usize, u64)] = &[
    (8, 2, 0, 0, 0xa8c7f832281a39c5),
    (8, 2, 1, 2, 0x70d39975f5228306),
    (8, 2, 50, 100, 0x52436a92043d3fc1),
    (8, 8, 0, 0, 0xa8c7f832281a39c5),
    (8, 8, 1, 8, 0x22f8af7ea186b6cd),
    (8, 8, 50, 400, 0x23a210a858a6ba7a),
    (16, 2, 0, 0, 0xa8c7f832281a39c5),
    (16, 2, 1, 2, 0x70d39975f5228306),
    (16, 2, 50, 100, 0x57202ff737e1d7c1),
    (16, 16, 0, 0, 0xa8c7f832281a39c5),
    (16, 16, 1, 16, 0xe391c42e86ef2fd5),
    (16, 16, 50, 800, 0x9d8cabd69c2b2714),
];
