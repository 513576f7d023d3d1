//! Scripted fault injection.
//!
//! The paper motivates unpartitioned demultiplexors by fault tolerance
//! (§3: "a damage in one plane causes more cell dropping than if all K
//! planes are utilized"), which only becomes observable when failure and
//! *recovery* happen mid-run and each information class learns about them
//! with its own lag. A [`FaultPlan`] is a deterministic, slot-ordered
//! script of such events, serializable alongside traces so a faulted run
//! is as replayable as a fault-free one.
//!
//! Event semantics (all take effect at the *start* of their slot, before
//! any dispatch decision of that slot):
//!
//! * [`FaultEvent::PlaneDown`] — the plane black-holes every cell handed
//!   to it from `at` on, and every cell already queued inside it is lost
//!   (the fabric flushes and counts them as dropped).
//! * [`FaultEvent::PlaneUp`] — the plane accepts cells again from `at`.
//! * [`FaultEvent::LinkDegraded`] — the input→plane line is unusable
//!   during `[from, until)`; the demultiplexor sees it as busy through
//!   its ordinary local view.
//!
//! Visibility is class-correct by construction: the engine folds the
//! up/down state into the [`GlobalSnapshot`](crate::snapshot::GlobalSnapshot)
//! as a [`PlaneMask`], so a centralized demultiplexor sees the current
//! mask, a `u`-RT one sees it `u` slots stale, and a fully-distributed
//! one sees nothing at all.

use crate::config::PpsConfig;
use crate::error::ModelError;
use crate::ids::{PlaneId, PortId};
use crate::time::Slot;
use crate::trace_io::csv_field;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};

/// Which planes an observer believes are up.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaneMask {
    up: Box<[bool]>,
}

impl PlaneMask {
    /// A mask with all `k` planes up.
    pub fn all_up(k: usize) -> Self {
        PlaneMask {
            up: vec![true; k].into_boxed_slice(),
        }
    }

    /// Number of planes covered by the mask.
    pub fn k(&self) -> usize {
        self.up.len()
    }

    /// Whether `plane` is believed up.
    #[inline]
    pub fn is_up(&self, plane: usize) -> bool {
        self.up[plane]
    }

    /// Record `plane` as up or down.
    pub fn set_up(&mut self, plane: usize, up: bool) {
        self.up[plane] = up;
    }

    /// Whether any plane is down.
    pub fn any_down(&self) -> bool {
        self.up.iter().any(|&u| !u)
    }
}

/// One scripted fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Plane `plane` fails at the start of slot `at`; its queued cells are
    /// flushed (lost) and subsequent dispatches to it are black-holed.
    PlaneDown {
        /// The failing plane.
        plane: PlaneId,
        /// First slot of the outage.
        at: Slot,
    },
    /// Plane `plane` recovers at the start of slot `at`.
    PlaneUp {
        /// The recovering plane.
        plane: PlaneId,
        /// First slot after the outage.
        at: Slot,
    },
    /// The `input → plane` line is unusable during `[from, until)`.
    LinkDegraded {
        /// The input-port side of the degraded line.
        input: PortId,
        /// The plane side of the degraded line.
        plane: PlaneId,
        /// First degraded slot.
        from: Slot,
        /// First slot at which the line works again (exclusive end).
        until: Slot,
    },
}

impl FaultEvent {
    /// The slot at whose start the event takes effect.
    pub fn activates_at(&self) -> Slot {
        match *self {
            FaultEvent::PlaneDown { at, .. } | FaultEvent::PlaneUp { at, .. } => at,
            FaultEvent::LinkDegraded { from, .. } => from,
        }
    }

    /// The plane the event concerns.
    fn plane(&self) -> PlaneId {
        match *self {
            FaultEvent::PlaneDown { plane, .. }
            | FaultEvent::PlaneUp { plane, .. }
            | FaultEvent::LinkDegraded { plane, .. } => plane,
        }
    }
}

/// A slot-ordered script of fault events.
///
/// Built with the chainable constructors; events are kept sorted by
/// activation slot (stable for same-slot events, so a `PlaneUp` scripted
/// before a `PlaneDown` of the same slot applies first).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn push(mut self, ev: FaultEvent) -> Self {
        // Stable insertion: after every event with activation <= this one's.
        let at = ev.activates_at();
        let idx = self.events.partition_point(|e| e.activates_at() <= at);
        self.events.insert(idx, ev);
        self
    }

    /// Script plane `plane` failing at the start of slot `at`.
    pub fn plane_down(self, plane: u32, at: Slot) -> Self {
        self.push(FaultEvent::PlaneDown {
            plane: PlaneId(plane),
            at,
        })
    }

    /// Script plane `plane` recovering at the start of slot `at`.
    pub fn plane_up(self, plane: u32, at: Slot) -> Self {
        self.push(FaultEvent::PlaneUp {
            plane: PlaneId(plane),
            at,
        })
    }

    /// Script the `input → plane` line being unusable during `[from, until)`.
    pub fn link_degraded(self, input: u32, plane: u32, from: Slot, until: Slot) -> Self {
        self.push(FaultEvent::LinkDegraded {
            input: PortId(input),
            plane: PlaneId(plane),
            from,
            until,
        })
    }

    /// The scripted events in activation order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Activation slot of the last event (0 for an empty plan).
    pub fn horizon(&self) -> Slot {
        self.events.last().map_or(0, |e| e.activates_at())
    }

    /// Check every event against a switch geometry: plane and input
    /// indices in range, degradation windows non-empty.
    pub fn validate(&self, cfg: &PpsConfig) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        for ev in &self.events {
            let p = ev.plane().idx();
            if p >= cfg.k {
                return fail(format!(
                    "fault plan names plane {p} but the switch has K = {} planes",
                    cfg.k
                ));
            }
            if let FaultEvent::LinkDegraded {
                input, from, until, ..
            } = *ev
            {
                if input.idx() >= cfg.n {
                    return fail(format!(
                        "fault plan names input {} but the switch has N = {} ports",
                        input.idx(),
                        cfg.n
                    ));
                }
                if until <= from {
                    return fail(format!(
                        "link degradation window [{from}, {until}) is empty"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Serialize a fault plan as CSV (`kind,plane,input,at,until`; `input`
/// and `until` are empty for plane events).
pub(crate) fn write_csv<W: Write>(plan: &FaultPlan, mut w: W) -> std::io::Result<()> {
    writeln!(w, "kind,plane,input,at,until")?;
    for ev in plan.events() {
        match *ev {
            FaultEvent::PlaneDown { plane, at } => writeln!(w, "down,{},,{at},", plane.0)?,
            FaultEvent::PlaneUp { plane, at } => writeln!(w, "up,{},,{at},", plane.0)?,
            FaultEvent::LinkDegraded {
                input,
                plane,
                from,
                until,
            } => writeln!(w, "degrade,{},{},{from},{until}", plane.0, input.0)?,
        }
    }
    Ok(())
}

/// Parse a CSV fault plan (format of [`write_csv`]).
pub(crate) fn read_csv<R: Read>(r: R) -> Result<FaultPlan, ModelError> {
    let reader = BufReader::new(r);
    let mut plan = FaultPlan::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| ModelError::MalformedTrace {
            reason: format!("I/O error at line {}: {e}", lineno + 1),
        })?;
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.starts_with("kind")) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let header = ["kind", "plane", "input", "at", "until"];
        let slot = |i| csv_field::<Slot, 5>(&fields, i, header, lineno);
        let port = |i| csv_field::<u32, 5>(&fields, i, header, lineno);
        let plane = port(1)?;
        plan = match fields[0].trim() {
            "down" => plan.plane_down(plane, slot(3)?),
            "up" => plan.plane_up(plane, slot(3)?),
            "degrade" => plan.link_degraded(port(2)?, plane, slot(3)?, slot(4)?),
            kind => {
                return Err(ModelError::MalformedTrace {
                    reason: format!("line {}: unknown fault kind {kind:?}", lineno + 1),
                })
            }
        };
    }
    Ok(plan)
}

/// Round-trip convenience: write `plan` to `path`.
pub fn save(plan: &FaultPlan, path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(plan, std::io::BufWriter::new(file))
}

/// Round-trip convenience: load a plan from `path`.
pub fn load(path: &std::path::Path) -> Result<FaultPlan, ModelError> {
    let file = std::fs::File::open(path).map_err(|e| ModelError::MalformedTrace {
        reason: format!("cannot open {}: {e}", path.display()),
    })?;
    read_csv(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> FaultPlan {
        FaultPlan::new()
            .plane_up(0, 1500)
            .plane_down(0, 500)
            .link_degraded(3, 2, 100, 200)
    }

    #[test]
    fn events_are_slot_ordered_and_stable() {
        let plan = demo();
        let slots: Vec<Slot> = plan.events().iter().map(|e| e.activates_at()).collect();
        assert_eq!(slots, vec![100, 500, 1500]);
        assert_eq!(plan.horizon(), 1500);
        // Same-slot events keep script order.
        let plan = FaultPlan::new().plane_up(1, 7).plane_down(2, 7);
        assert!(matches!(plan.events()[0], FaultEvent::PlaneUp { .. }));
        assert!(matches!(plan.events()[1], FaultEvent::PlaneDown { .. }));
    }

    #[test]
    fn validate_checks_geometry() {
        let cfg = PpsConfig::bufferless(4, 2, 2);
        assert!(demo().validate(&cfg).is_err()); // plane 2 out of range (K=2)
        let ok = FaultPlan::new().plane_down(1, 5).link_degraded(3, 0, 2, 4);
        assert!(ok.validate(&cfg).is_ok());
        let empty_window = FaultPlan::new().link_degraded(0, 0, 9, 9);
        assert!(empty_window.validate(&cfg).is_err());
        let bad_input = FaultPlan::new().link_degraded(4, 0, 1, 2);
        assert!(bad_input.validate(&cfg).is_err());
    }

    #[test]
    fn csv_round_trip() {
        let plan = demo();
        let mut buf = Vec::new();
        write_csv(&plan, &mut buf).unwrap();
        let parsed = read_csv(&buf[..]).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn csv_rejects_garbage_with_line_numbers() {
        let err = read_csv("kind,plane,input,at,until\nexplode,0,,5,\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = read_csv("down,zero,,5,\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("plane"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pps_fault_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.csv");
        save(&demo(), &path).unwrap();
        assert_eq!(load(&path).unwrap(), demo());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn csv_round_trips_empty_plan() {
        let plan = FaultPlan::new();
        let mut buf = Vec::new();
        write_csv(&plan, &mut buf).unwrap();
        let parsed = read_csv(&buf[..]).unwrap();
        assert_eq!(parsed, plan);
        assert!(parsed.is_empty());
        assert_eq!(parsed.horizon(), 0);
        // Header-only and fully blank inputs also parse to the empty plan.
        assert_eq!(
            read_csv("kind,plane,input,at,until\n".as_bytes()).unwrap(),
            plan
        );
        assert_eq!(read_csv("".as_bytes()).unwrap(), plan);
        assert_eq!(read_csv("\n\n".as_bytes()).unwrap(), plan);
    }

    #[test]
    fn csv_round_trips_duplicate_slot_entries() {
        // Two downs of the same plane at the same slot, plus an up of
        // another plane in between: duplicates are legal script (the
        // engine treats a re-down as a no-op) and must survive the trip
        // verbatim, including their relative order.
        let plan = FaultPlan::new()
            .plane_down(1, 50)
            .plane_up(0, 50)
            .plane_down(1, 50)
            .link_degraded(2, 1, 50, 60)
            .link_degraded(2, 1, 50, 60);
        let mut buf = Vec::new();
        write_csv(&plan, &mut buf).unwrap();
        let parsed = read_csv(&buf[..]).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.len(), 5);
        assert!(parsed.events().iter().all(|e| e.activates_at() == 50));
    }

    #[test]
    fn csv_round_trips_out_of_order_events() {
        // The CSV may list events in any order; parsing rebuilds the plan
        // through the builders, which sort stably by activation slot — so
        // a scrambled file loads equal to the sorted plan.
        let scrambled = "kind,plane,input,at,until\n\
                         up,0,,900,\n\
                         degrade,1,3,10,20\n\
                         down,0,,300,\n";
        let parsed = read_csv(scrambled.as_bytes()).unwrap();
        let expect = FaultPlan::new()
            .link_degraded(3, 1, 10, 20)
            .plane_down(0, 300)
            .plane_up(0, 900);
        assert_eq!(parsed, expect);
        let slots: Vec<Slot> = parsed.events().iter().map(|e| e.activates_at()).collect();
        assert_eq!(slots, vec![10, 300, 900]);
        // And the round trip of the re-sorted plan is stable.
        let mut buf = Vec::new();
        write_csv(&parsed, &mut buf).unwrap();
        assert_eq!(read_csv(&buf[..]).unwrap(), parsed);
    }

    #[test]
    fn csv_round_trips_events_past_the_run_horizon() {
        // Events scheduled far past any realistic run horizon are kept:
        // the plan does not know the run length, the engine simply never
        // reaches them. validate() accepts them too — geometry is its
        // business, time is not.
        let plan = FaultPlan::new()
            .plane_down(0, 10)
            .plane_up(0, u64::MAX - 1)
            .link_degraded(0, 1, 1 << 40, (1 << 40) + 5);
        let mut buf = Vec::new();
        write_csv(&plan, &mut buf).unwrap();
        let parsed = read_csv(&buf[..]).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.horizon(), u64::MAX - 1);
        let cfg = PpsConfig::bufferless(4, 2, 2);
        assert!(parsed.validate(&cfg).is_ok());
    }

    #[test]
    fn plane_mask_bookkeeping() {
        let mut m = PlaneMask::all_up(4);
        assert!(!m.any_down());
        m.set_up(2, false);
        assert!(m.any_down());
        assert!(!m.is_up(2));
        assert!(m.is_up(3));
        assert_eq!(m.k(), 4);
    }

    #[test]
    fn planes_and_inputs_above_u32_max_are_refused_not_truncated() {
        // 2^32 once failed plane 0.
        let err = read_csv("down,4294967296,,5,\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1: bad plane"), "{err}");
        let err = read_csv("degrade,0,4294967297,1,2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1: bad input"), "{err}");
        let err = read_csv("kind,plane,input,at,until\nup,0,,5,,\n".as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("line 2: more than the 5 fields"),
            "{err}"
        );
        // A plane event may leave off its trailing empty `until`.
        assert_eq!(
            read_csv("down,1,,5\n".as_bytes()).unwrap(),
            FaultPlan::new().plane_down(1, 5)
        );
    }
}
