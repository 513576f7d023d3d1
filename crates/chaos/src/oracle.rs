//! Invariant oracles folded over the telemetry event stream.
//!
//! The [`pps_core::oracle`] layer checks what the [`RunLog`] can see:
//! conservation, per-flow order, causality over *recorded* departures.
//! This module checks what only the event stream can see — that the
//! stream itself is consistent with the model:
//!
//! * **phantom departures** — a `Depart` for a cell with no `Arrival`;
//! * **causality over events** — no departure before arrival, no double
//!   departure, at most one departure per output per slot (the paper's
//!   output constraint);
//! * **per-flow order** — departures of one flow in arrival order, per
//!   engine, reconstructed purely from events;
//! * **down-plane dispatch** — a demultiplexor choosing a plane its
//!   information class *knew* was down while a believed-up plane with a
//!   free input line existed, reconstructed from `FaultApplied` +
//!   `DemuxDecision` events and the fault plan's degradation windows;
//! * **watchdog accounting** — `WatchdogDrop` totals reconciled against
//!   the fabric's `skipped` counter.
//!
//! All checks are engine-aware: one stream carrying a PPS, shadow-OQ,
//! crossbar, and CIOQ run of the same trace (the chaos harness's lockstep
//! layout) is checked per engine independently.
//!
//! [`RunLog`]: pps_core::RunLog

use pps_core::fault::{FaultEvent, FaultPlan};
use pps_core::oracle::{OracleKind, OracleViolation};
use pps_core::telemetry::{Engine, Event, EventKind, FaultKind};
use pps_core::Slot;
use std::collections::HashMap;

/// Context the stream oracles need about the run they are checking.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StreamOracleConfig<'a> {
    /// Switch ports.
    pub(crate) n: usize,
    /// Planes.
    pub(crate) k: usize,
    /// Internal line slowdown `r'`.
    pub(crate) r_prime: usize,
    /// The demultiplexor's information delay: `Some(0)` for centralized,
    /// `Some(u)` for `u`-RT, `None` for fully distributed (which is
    /// entitled to no fault knowledge, so the down-plane check is
    /// vacuous).
    pub(crate) info_delay: Option<Slot>,
    /// The scripted fault plan, for link-degradation windows.
    pub(crate) plan: Option<&'a FaultPlan>,
    /// Whether the demultiplexor under test promises to avoid known-down
    /// planes (the fault-aware algorithms). Fault-blind algorithms may
    /// legally dispatch into a failure, so the check is opt-in.
    pub(crate) check_down_dispatch: bool,
    /// The fabric's final `skipped` counter, reconciled against the
    /// `WatchdogDrop` events (`None` skips the reconciliation).
    pub(crate) expected_skipped: Option<u64>,
}

/// Per-engine fold state.
#[derive(Default)]
struct EngineState {
    /// Arrival slot and flow of every seen cell.
    arrived: HashMap<u64, (Slot, u32, u32)>,
    /// Departure slot of every departed cell.
    departed: HashMap<u64, Slot>,
    /// Last departed (cell, slot) per flow.
    last_flow_dep: HashMap<(u32, u32), (u64, Slot)>,
    /// Last emission slot per output (output constraint).
    last_emit: HashMap<u32, Slot>,
}

fn engine_idx(e: Engine) -> usize {
    match e {
        Engine::Pps => 0,
        Engine::ShadowOq => 1,
        Engine::Crossbar => 2,
        Engine::Cioq => 3,
    }
}

/// Fold the invariant oracles over `events`. Violations come back sorted
/// by [`OracleViolation::sort_key`] — earliest slot first — so "first
/// violation" is deterministic whatever produced the stream.
pub(crate) fn check_stream(events: &[Event], cfg: &StreamOracleConfig<'_>) -> Vec<OracleViolation> {
    let mut violations = Vec::new();
    let mut engines: [EngineState; 4] = Default::default();

    // PPS-side reconstruction for the down-plane check.
    let mut mask_events: Vec<(Slot, u32, bool)> = Vec::new(); // (slot, plane, up)
    let mut busy_until: Vec<Slot> = vec![0; cfg.n * cfg.k];
    let mut degradations: Vec<(Slot, usize, usize, Slot)> = cfg
        .plan
        .map(|p| {
            p.events()
                .iter()
                .filter_map(|ev| match *ev {
                    FaultEvent::LinkDegraded {
                        input,
                        plane,
                        until,
                        ..
                    } => Some((ev.activates_at(), input.idx(), plane.idx(), until)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    degradations.sort_unstable();
    let mut next_degrade = 0usize;
    let mut wd_total: u64 = 0;
    let mut wd_last_slot: Slot = 0;

    for ev in events {
        let st = &mut engines[engine_idx(ev.engine)];
        match ev.kind {
            EventKind::Arrival {
                cell,
                input,
                output,
            } => {
                st.arrived.insert(cell.0, (ev.slot, input.0, output.0));
            }
            EventKind::Depart { cell, output } => {
                let Some(&(arr_slot, input, out)) = st.arrived.get(&cell.0) else {
                    violations.push(OracleViolation {
                        kind: OracleKind::PhantomDeparture,
                        slot: ev.slot,
                        detail: format!(
                            "{}: cell {} departed without arriving",
                            ev.engine.name(),
                            cell.0
                        ),
                    });
                    continue;
                };
                if let Some(&prev) = st.departed.get(&cell.0) {
                    violations.push(OracleViolation {
                        kind: OracleKind::Causality,
                        slot: ev.slot,
                        detail: format!(
                            "{}: cell {} departed twice (slots {prev} and {})",
                            ev.engine.name(),
                            cell.0,
                            ev.slot
                        ),
                    });
                    continue;
                }
                st.departed.insert(cell.0, ev.slot);
                if ev.slot < arr_slot {
                    violations.push(OracleViolation {
                        kind: OracleKind::Causality,
                        slot: ev.slot,
                        detail: format!(
                            "{}: cell {} departed at {} before arriving at {arr_slot}",
                            ev.engine.name(),
                            cell.0,
                            ev.slot
                        ),
                    });
                }
                if let Some(&last) = st.last_emit.get(&output.0) {
                    if last == ev.slot {
                        violations.push(OracleViolation {
                            kind: OracleKind::Causality,
                            slot: ev.slot,
                            detail: format!(
                                "{}: output {} emitted twice in slot {}",
                                ev.engine.name(),
                                output.0,
                                ev.slot
                            ),
                        });
                    }
                }
                st.last_emit.insert(output.0, ev.slot);
                let flow = (input, out);
                if let Some(&(prev_cell, prev_slot)) = st.last_flow_dep.get(&flow) {
                    // Ids are assigned in arrival order, so a departing
                    // cell with a smaller id than an already-departed
                    // flow-mate is an inversion (gaps from lost cells are
                    // fine — they never depart).
                    if cell.0 < prev_cell {
                        violations.push(OracleViolation {
                            kind: OracleKind::FlowOrder,
                            slot: ev.slot.max(prev_slot),
                            detail: format!(
                                "{}: flow {}->{}: cell {} departed after flow-mate {}",
                                ev.engine.name(),
                                input,
                                out,
                                cell.0,
                                prev_cell
                            ),
                        });
                    } else {
                        st.last_flow_dep.insert(flow, (cell.0, ev.slot));
                    }
                } else {
                    st.last_flow_dep.insert(flow, (cell.0, ev.slot));
                }
            }
            EventKind::FaultApplied { plane, kind } if ev.engine == Engine::Pps => match kind {
                FaultKind::PlaneDown => mask_events.push((ev.slot, plane.0, false)),
                FaultKind::PlaneUp => mask_events.push((ev.slot, plane.0, true)),
                FaultKind::LinkDegraded => {}
            },
            EventKind::DemuxDecision { cell, input, plane } if ev.engine == Engine::Pps => {
                // Degradation windows activate at the start of their slot,
                // before any decision of that slot.
                while next_degrade < degradations.len() && degradations[next_degrade].0 <= ev.slot {
                    let (_, i, p, until) = degradations[next_degrade];
                    let b = &mut busy_until[i * cfg.k + p];
                    *b = (*b).max(until);
                    next_degrade += 1;
                }
                if cfg.check_down_dispatch {
                    if let Some(v) =
                        check_decision(ev.slot, input.0, plane.0, cfg, &mask_events, &busy_until)
                    {
                        violations.push(OracleViolation {
                            kind: OracleKind::DownPlaneDispatch,
                            slot: ev.slot,
                            detail: format!("cell {}: {v}", cell.0),
                        });
                    }
                }
                // The dispatch occupies the input line for r' slots.
                busy_until[input.0 as usize * cfg.k + plane.0 as usize] =
                    ev.slot + cfg.r_prime as Slot;
            }
            EventKind::WatchdogDrop { cells, .. } if ev.engine == Engine::Pps => {
                wd_total += u64::from(cells);
                wd_last_slot = wd_last_slot.max(ev.slot);
            }
            _ => {}
        }
    }

    if let Some(expected) = cfg.expected_skipped {
        if wd_total != expected {
            violations.push(OracleViolation {
                kind: OracleKind::WatchdogAccounting,
                slot: wd_last_slot,
                detail: format!(
                    "WatchdogDrop events account for {wd_total} cells, \
                     fabric counted {expected} skipped"
                ),
            });
        }
    }

    violations.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    violations
}

/// The down-plane predicate for one decision: returns the violation
/// detail if `plane` was believed down while some believed-up plane had a
/// free line at `input`.
fn check_decision(
    slot: Slot,
    input: u32,
    plane: u32,
    cfg: &StreamOracleConfig<'_>,
    mask_events: &[(Slot, u32, bool)],
    busy_until: &[Slot],
) -> Option<String> {
    let d = cfg.info_delay?;
    // u-RT sees nothing before slot u (the snapshot ring is still
    // filling) — the demultiplexor is legally fault-blind there.
    if d > 0 && slot < d {
        return None;
    }
    let visible_through = slot - d;
    let visible_up = |p: u32| -> bool {
        let mut up = true;
        for &(s, pe, pe_up) in mask_events {
            if s > visible_through {
                break;
            }
            if pe == p {
                up = pe_up;
            }
        }
        up
    };
    if visible_up(plane) {
        return None;
    }
    let alternative = (0..cfg.k as u32)
        .find(|&q| visible_up(q) && busy_until[input as usize * cfg.k + q as usize] <= slot);
    alternative.map(|q| {
        format!(
            "dispatched to plane {plane} (known down since <= slot {visible_through}) \
             while plane {q} was believed up with a free line"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::ids::{CellId, PlaneId, PortId};

    fn ev(engine: Engine, slot: Slot, kind: EventKind) -> Event {
        Event { slot, engine, kind }
    }

    fn arrival(engine: Engine, slot: Slot, cell: u64, input: u32, output: u32) -> Event {
        ev(
            engine,
            slot,
            EventKind::Arrival {
                cell: CellId(cell),
                input: PortId(input),
                output: PortId(output),
            },
        )
    }

    fn depart(engine: Engine, slot: Slot, cell: u64, output: u32) -> Event {
        ev(
            engine,
            slot,
            EventKind::Depart {
                cell: CellId(cell),
                output: PortId(output),
            },
        )
    }

    fn base_cfg() -> StreamOracleConfig<'static> {
        StreamOracleConfig {
            n: 2,
            k: 2,
            r_prime: 2,
            info_delay: None,
            plan: None,
            check_down_dispatch: false,
            expected_skipped: None,
        }
    }

    #[test]
    fn clean_stream_passes() {
        let events = vec![
            arrival(Engine::Pps, 0, 0, 0, 0),
            arrival(Engine::Pps, 1, 1, 0, 0),
            depart(Engine::Pps, 2, 0, 0),
            depart(Engine::Pps, 3, 1, 0),
        ];
        assert!(check_stream(&events, &base_cfg()).is_empty());
    }

    #[test]
    fn phantom_and_double_departures_are_flagged() {
        let events = vec![
            arrival(Engine::Pps, 0, 0, 0, 0),
            depart(Engine::Pps, 1, 0, 0),
            depart(Engine::Pps, 2, 0, 0),  // double
            depart(Engine::Pps, 3, 99, 0), // phantom
        ];
        let vs = check_stream(&events, &base_cfg());
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].kind, OracleKind::Causality);
        assert_eq!(vs[1].kind, OracleKind::PhantomDeparture);
    }

    #[test]
    fn flow_inversion_is_flagged_but_gaps_pass() {
        let events = vec![
            arrival(Engine::Pps, 0, 0, 0, 1),
            arrival(Engine::Pps, 1, 1, 0, 1),
            arrival(Engine::Pps, 2, 2, 0, 1),
            // Cell 1 lost; 0 then 2 is a legal gap.
            depart(Engine::Pps, 3, 0, 1),
            depart(Engine::Pps, 4, 2, 1),
            // Cell 1 then "found" departing after 2: inversion.
            depart(Engine::Pps, 5, 1, 1),
        ];
        let vs = check_stream(&events, &base_cfg());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, OracleKind::FlowOrder);
    }

    #[test]
    fn output_constraint_double_emit() {
        let events = vec![
            arrival(Engine::Cioq, 0, 0, 0, 0),
            arrival(Engine::Cioq, 0, 1, 1, 0),
            depart(Engine::Cioq, 1, 0, 0),
            depart(Engine::Cioq, 1, 1, 0),
        ];
        let vs = check_stream(&events, &base_cfg());
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("emitted twice"));
    }

    #[test]
    fn engines_are_checked_independently() {
        // The same cell id departing once per engine is fine.
        let events = vec![
            arrival(Engine::Pps, 0, 0, 0, 0),
            arrival(Engine::ShadowOq, 0, 0, 0, 0),
            depart(Engine::Pps, 1, 0, 0),
            depart(Engine::ShadowOq, 1, 0, 0),
        ];
        assert!(check_stream(&events, &base_cfg()).is_empty());
    }

    #[test]
    fn down_plane_dispatch_with_free_alternative_is_flagged() {
        let mut cfg = base_cfg();
        cfg.check_down_dispatch = true;
        cfg.info_delay = Some(0); // centralized: sees this slot's faults
        let events = vec![
            ev(
                Engine::Pps,
                5,
                EventKind::FaultApplied {
                    plane: PlaneId(1),
                    kind: FaultKind::PlaneDown,
                },
            ),
            arrival(Engine::Pps, 5, 0, 0, 0),
            ev(
                Engine::Pps,
                5,
                EventKind::DemuxDecision {
                    cell: CellId(0),
                    input: PortId(0),
                    plane: PlaneId(1),
                },
            ),
        ];
        let vs = check_stream(&events, &cfg);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, OracleKind::DownPlaneDispatch);

        // A u-RT observer with u = 2 cannot know yet: no violation.
        cfg.info_delay = Some(2);
        assert!(check_stream(&events, &cfg).is_empty());
    }

    #[test]
    fn down_plane_dispatch_without_alternative_passes() {
        let mut cfg = base_cfg();
        cfg.check_down_dispatch = true;
        cfg.info_delay = Some(0);
        let events = vec![
            ev(
                Engine::Pps,
                0,
                EventKind::FaultApplied {
                    plane: PlaneId(1),
                    kind: FaultKind::PlaneDown,
                },
            ),
            arrival(Engine::Pps, 0, 0, 0, 0),
            // Plane 0 line is occupied by this dispatch for r' = 2 slots…
            ev(
                Engine::Pps,
                0,
                EventKind::DemuxDecision {
                    cell: CellId(0),
                    input: PortId(0),
                    plane: PlaneId(0),
                },
            ),
            arrival(Engine::Pps, 1, 1, 0, 0),
            // …so at slot 1 the only free line leads to the down plane:
            // forced, not a violation.
            ev(
                Engine::Pps,
                1,
                EventKind::DemuxDecision {
                    cell: CellId(1),
                    input: PortId(0),
                    plane: PlaneId(1),
                },
            ),
        ];
        assert!(check_stream(&events, &cfg).is_empty());
    }

    #[test]
    fn watchdog_totals_reconcile() {
        let mut cfg = base_cfg();
        cfg.expected_skipped = Some(3);
        let events = vec![ev(
            Engine::Pps,
            7,
            EventKind::WatchdogDrop {
                output: PortId(0),
                cells: 2,
            },
        )];
        let vs = check_stream(&events, &cfg);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, OracleKind::WatchdogAccounting);
        cfg.expected_skipped = Some(2);
        assert!(check_stream(&events, &cfg).is_empty());
    }
}
