//! Jitter regulators (paper §6, after Mansour & Patt-Shamir \[20\]).
//!
//! A jitter regulator sits behind a switch output and re-times cells: it
//! holds each cell in an internal buffer and releases it so that the
//! end-to-end delay is (as nearly as possible) a constant `D`. The paper
//! closes by noting that its lower bounds on relative queuing delay should
//! translate into lower bounds on the regulator's internal buffer — this
//! module makes that translation measurable:
//!
//! * a cell delayed `d ≤ D` by the switch waits `D − d` slots in the
//!   regulator, so the regulator's occupancy at any instant counts the
//!   cells the switch delivered *early* relative to the slowest cell;
//! * a switch with relative queuing delay `Δ` versus the reference forces
//!   `D ≥ max_delay`, and the cells that the reference would have
//!   delivered long before pile up — the required buffer grows with `Δ`
//!   (experiment E15 quantifies it on the attack runs).

use pps_core::prelude::*;
use std::collections::BTreeMap;

/// Outcome of regulating one switch run to constant delay `d_target`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegulationReport {
    /// The requested constant delay.
    pub d_target: Slot,
    /// Largest simultaneous occupancy of any per-output regulator buffer.
    pub buffer_required: usize,
    /// Residual jitter after regulation (0 unless release slots collide
    /// and serialization pushes some cells past `arrival + d_target`).
    pub residual_jitter: u64,
    /// Number of cells whose release had to slip past `arrival + d_target`
    /// because the output can emit only one cell per slot.
    pub slipped: usize,
}

/// Smallest constant delay a regulator can impose on `log` (the run's
/// maximum queuing delay: anything smaller would require time travel).
pub fn min_feasible_delay(log: &RunLog) -> Slot {
    log.max_delay().unwrap_or(0)
}

/// Regulate `log` to constant delay `d_target`, per output.
///
/// Release policy: cells of one output are released in switch-departure
/// order at `max(arrival + d_target, previous_release + 1, departure)` —
/// the earliest schedule consistent with the one-cell-per-slot output line
/// and with never releasing a cell before the switch delivered it.
///
/// # Panics
/// Panics if `d_target < min_feasible_delay(log)` — the regulator cannot
/// speed cells up.
pub fn regulate(log: &RunLog, d_target: Slot) -> RegulationReport {
    assert!(
        d_target >= min_feasible_delay(log),
        "target delay {d_target} below the run's max delay {}",
        min_feasible_delay(log)
    );
    // Group delivered cells per output, ordered by switch departure.
    let mut per_output: BTreeMap<PortId, Vec<(Slot, Slot)>> = BTreeMap::new(); // (departure, arrival)
    for rec in log.records() {
        if let Some(dep) = rec.departure() {
            per_output
                .entry(rec.output)
                .or_default()
                .push((dep, rec.arrival));
        }
    }
    let mut buffer_required = 0usize;
    let mut residual_jitter = 0u64;
    let mut slipped = 0usize;
    for (_output, mut cells) in per_output {
        cells.sort_unstable();
        // Release times under the policy, plus occupancy intervals
        // [departure, release) for the sweep.
        let mut last_release: Option<Slot> = None;
        let mut events: Vec<(Slot, i32)> = Vec::with_capacity(cells.len() * 2);
        let mut max_delay = 0u64;
        let mut min_delay = u64::MAX;
        for &(dep, arr) in &cells {
            let ideal = arr + d_target;
            let release = match last_release {
                Some(prev) => ideal.max(prev + 1).max(dep),
                None => ideal.max(dep),
            };
            last_release = Some(release);
            if release > ideal {
                slipped += 1;
            }
            let end_to_end = release - arr;
            max_delay = max_delay.max(end_to_end);
            min_delay = min_delay.min(end_to_end);
            if release > dep {
                events.push((dep, 1));
                events.push((release, -1));
            }
        }
        if min_delay != u64::MAX {
            residual_jitter = residual_jitter.max(max_delay - min_delay);
        }
        // Sweep occupancy (departures count before releases at equal slots,
        // which is the conservative reading: the cell is in the buffer
        // during the release slot's start).
        events.sort_unstable_by_key(|&(slot, delta)| (slot, std::cmp::Reverse(delta)));
        let mut occ = 0i32;
        for &(_, delta) in &events {
            occ += delta;
            buffer_required = buffer_required.max(occ as usize);
        }
    }
    RegulationReport {
        d_target,
        buffer_required,
        residual_jitter,
        slipped,
    }
}

/// Outcome of the *online* bounded-buffer regulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnlineRegulation {
    /// The buffer cap the regulator ran with.
    pub buffer_cap: usize,
    /// Achieved worst per-output jitter (max − min end-to-end delay).
    pub achieved_jitter: u64,
    /// Releases forced by a full buffer (each a potential jitter hit).
    pub forced_releases: usize,
}

/// Online jitter regulation with a bounded buffer and a *declared* target
/// delay, per output.
///
/// Mansour & Patt-Shamir \[20\] study exactly this competitive setting: a
/// causal regulator with an internal buffer of at most `buffer_cap` cells
/// aiming at a constant end-to-end delay `d_target`. The policy: hold each
/// delivered cell until age `d_target`, but release the head immediately
/// whenever the buffer is full (the forced releases are the jitter hits a
/// too-small buffer cannot avoid). With `buffer_cap` at least the offline
/// [`regulate`] requirement the achieved jitter matches the offline
/// residual; below it, jitter reappears — experiment E18 traces the
/// trade-off curve, the buffer-flavoured face of the paper's delay lower
/// bounds.
pub fn regulate_online(log: &RunLog, d_target: Slot, buffer_cap: usize) -> OnlineRegulation {
    assert!(
        buffer_cap >= 1,
        "the regulator needs at least one slot of buffer"
    );
    let mut per_output: BTreeMap<PortId, Vec<(Slot, Slot)>> = BTreeMap::new(); // (departure, arrival)
    let mut horizon: Slot = 0;
    for rec in log.records() {
        if let Some(dep) = rec.departure() {
            per_output
                .entry(rec.output)
                .or_default()
                .push((dep, rec.arrival));
            horizon = horizon.max(dep);
        }
    }
    let mut achieved_jitter = 0u64;
    let mut forced_releases = 0usize;
    for (_output, mut cells) in per_output {
        cells.sort_unstable();
        let mut next_cell = 0usize;
        // Buffered cells as (arrival, switch-departure), FIFO by delivery.
        let mut held: std::collections::VecDeque<(Slot, Slot)> = Default::default();
        let mut min_delay = u64::MAX;
        let mut max_delay = 0u64;
        let mut t: Slot = 0;
        let end = horizon + d_target + 2;
        while t <= end {
            while next_cell < cells.len() && cells[next_cell].0 == t {
                let (dep, arr) = cells[next_cell];
                next_cell += 1;
                held.push_back((arr, dep));
            }
            // One release per slot (the output line). Forced when over
            // the cap, scheduled when the head reaches its target age.
            let mut release_head = false;
            if held.len() > buffer_cap {
                release_head = true;
                forced_releases += held.len() - buffer_cap; // count the pressure
            } else if let Some(&(arr, _)) = held.front() {
                if arr + d_target <= t {
                    release_head = true;
                }
            }
            if release_head {
                let (arr, _dep) = held.pop_front().unwrap();
                let d = t - arr;
                min_delay = min_delay.min(d);
                max_delay = max_delay.max(d);
            }
            if next_cell >= cells.len() && held.is_empty() {
                break;
            }
            t += 1;
        }
        if min_delay != u64::MAX {
            achieved_jitter = achieved_jitter.max(max_delay - min_delay);
        }
    }
    OnlineRegulation {
        buffer_cap,
        achieved_jitter,
        forced_releases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (id, input, output, arrival, departure)
    fn log_of(rows: &[(u64, u32, u32, Slot, Slot)]) -> RunLog {
        let cells: Vec<Cell> = rows
            .iter()
            .map(|&(id, input, output, arrival, _)| Cell {
                id: CellId(id),
                input: PortId(input),
                output: PortId(output),
                seq: 0,
                arrival,
            })
            .collect();
        let mut log = RunLog::with_cells(&cells);
        for &(id, _, _, _, dep) in rows {
            log.set_departure(CellId(id), dep);
        }
        log
    }

    #[test]
    fn constant_delay_run_needs_no_buffer() {
        // Every cell already delayed exactly 2: a D = 2 regulator is a
        // no-op.
        let log = log_of(&[(0, 0, 0, 0, 2), (1, 1, 0, 5, 7)]);
        let rep = regulate(&log, 2);
        assert_eq!(rep.buffer_required, 0);
        assert_eq!(rep.residual_jitter, 0);
        assert_eq!(rep.slipped, 0);
    }

    #[test]
    fn jittery_run_buffers_early_cells() {
        // Cell 0 delayed 0, cell 1 delayed 6 (arrivals far apart so no
        // serialization): regulating to D = 6 holds cell 0 for 6 slots.
        let log = log_of(&[(0, 0, 0, 0, 0), (1, 1, 0, 50, 56)]);
        let rep = regulate(&log, 6);
        assert_eq!(rep.buffer_required, 1);
        assert_eq!(rep.residual_jitter, 0);
    }

    #[test]
    fn target_below_max_delay_panics() {
        let log = log_of(&[(0, 0, 0, 0, 9)]);
        let result = std::panic::catch_unwind(|| regulate(&log, 3));
        assert!(result.is_err());
    }

    #[test]
    fn concentration_shape_costs_linear_buffer() {
        // The Lemma 4 shape: d cells arriving back-to-back, delivered one
        // per r' slots. Regulating to the worst delay makes the early
        // cells wait — buffer grows with d.
        let r_prime = 4u64;
        let d = 8u64;
        let rows: Vec<(u64, u32, u32, Slot, Slot)> =
            (0..d).map(|i| (i, i as u32, 0, i, i * r_prime)).collect();
        let log = log_of(&rows);
        let worst = min_feasible_delay(&log); // (d-1)(r'-1)
        assert_eq!(worst, (d - 1) * (r_prime - 1));
        let rep = regulate(&log, worst);
        // Early cells (delay ~0) wait ~worst slots while later cells trickle
        // out of the plane: a large fraction of d sits in the regulator.
        assert!(
            rep.buffer_required as u64 >= d / 2,
            "buffer {} too small for d = {d}",
            rep.buffer_required
        );
    }

    #[test]
    fn online_with_room_hits_the_target_exactly() {
        // Constant-delay input: online regulation at the true delay is a
        // no-op.
        let log = log_of(&[(0, 0, 0, 0, 2), (1, 1, 0, 10, 12), (2, 0, 0, 20, 22)]);
        let rep = regulate_online(&log, 2, 8);
        assert_eq!(rep.achieved_jitter, 0);
        assert_eq!(rep.forced_releases, 0);
    }

    #[test]
    fn online_tiny_buffer_forces_jitter() {
        // The concentration shape: with a 1-cell buffer the early cells
        // cannot wait for the late ones — jitter survives.
        let r_prime = 4u64;
        let d = 8u64;
        let rows: Vec<(u64, u32, u32, Slot, Slot)> =
            (0..d).map(|i| (i, i as u32, 0, i, i * r_prime)).collect();
        let log = log_of(&rows);
        let target = min_feasible_delay(&log);
        let small = regulate_online(&log, target, 1);
        let large = regulate_online(&log, target, d as usize);
        assert!(
            small.achieved_jitter > large.achieved_jitter,
            "small {small:?} vs large {large:?}"
        );
        assert_eq!(large.achieved_jitter, 0, "enough buffer flattens the run");
    }

    #[test]
    fn online_buffer_sweep_is_monotone() {
        let rows: Vec<(u64, u32, u32, Slot, Slot)> = (0..12u64)
            .map(|i| (i, (i % 4) as u32, 0, i, i * 3))
            .collect();
        let log = log_of(&rows);
        let target = min_feasible_delay(&log);
        let mut prev = u64::MAX;
        for cap in [1usize, 2, 4, 8, 16] {
            let j = regulate_online(&log, target, cap).achieved_jitter;
            assert!(j <= prev, "more buffer must not hurt: cap {cap} gives {j}");
            prev = j;
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn online_zero_buffer_is_rejected() {
        let log = log_of(&[(0, 0, 0, 0, 0)]);
        let _ = regulate_online(&log, 1, 0);
    }

    #[test]
    fn output_serialization_is_accounted() {
        // Two cells of one output with identical ideal release slots: one
        // slips by one slot and residual jitter is 1.
        let log = log_of(&[(0, 0, 0, 10, 10), (1, 1, 0, 10, 11)]);
        // min feasible = 1; regulate at 1: ideals are 11 and 11.
        let rep = regulate(&log, 1);
        assert_eq!(rep.slipped, 1);
        assert_eq!(rep.residual_jitter, 1);
    }
}
