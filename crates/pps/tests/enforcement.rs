//! The engines enforce the formal model against *misbehaving*
//! demultiplexors: violating the input constraint, naming out-of-range
//! planes, referencing bad buffer slots, double-releasing, or overflowing
//! a finite buffer must all surface as hard [`ModelError`]s — never as a
//! silent mis-simulation.

use pps_core::prelude::*;
use pps_switch::engine::{BufferedPps, BufferlessPps};

fn trace(n: usize, arrivals: Vec<Arrival>) -> Trace {
    Trace::build(arrivals, n).unwrap()
}

/// Always dispatches to plane 0, even when the line is busy.
#[derive(Clone)]
struct BusyLineAbuser;
impl Demultiplexor for BusyLineAbuser {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }
    fn dispatch(&mut self, _c: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
        PlaneId(0)
    }
}

#[test]
fn input_constraint_violation_is_fatal() {
    // r' = 2: two consecutive cells on one input cannot both use plane 0.
    let cfg = PpsConfig::bufferless(2, 2, 2);
    let t = trace(2, vec![Arrival::new(0, 0, 0), Arrival::new(1, 0, 1)]);
    let err = BufferlessPps::new(cfg, BusyLineAbuser)
        .unwrap()
        .run(&t)
        .unwrap_err();
    assert!(
        matches!(err, ModelError::InputConstraintViolation { .. }),
        "{err}"
    );
}

/// Names a plane that does not exist.
#[derive(Clone)]
struct OutOfRange;
impl Demultiplexor for OutOfRange {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }
    fn dispatch(&mut self, _c: &Cell, _ctx: &DispatchCtx<'_>) -> PlaneId {
        PlaneId(99)
    }
}

#[test]
fn plane_out_of_range_is_fatal() {
    let cfg = PpsConfig::bufferless(2, 2, 2);
    let t = trace(2, vec![Arrival::new(0, 0, 0)]);
    let err = BufferlessPps::new(cfg, OutOfRange)
        .unwrap()
        .run(&t)
        .unwrap_err();
    assert!(
        matches!(err, ModelError::PlaneOutOfRange { k: 2, .. }),
        "{err}"
    );
}

/// Buffered demux that releases a non-existent buffer slot.
#[derive(Clone)]
struct BadIndexReleaser;
impl BufferedDemultiplexor for BadIndexReleaser {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }
    fn slot_decision(
        &mut self,
        _input: PortId,
        arrival: Option<&Cell>,
        _buffer: &[Cell],
        _ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        out.releases.push((7, PlaneId(0)));
        out.arrival = arrival.map(|_| ArrivalAction::Enqueue);
    }
}

#[test]
fn bad_buffer_index_is_fatal() {
    let cfg = PpsConfig::buffered(2, 2, 2, 4);
    let t = trace(2, vec![Arrival::new(0, 0, 0)]);
    let err = BufferedPps::new(cfg, BadIndexReleaser)
        .unwrap()
        .run(&t)
        .unwrap_err();
    assert!(
        matches!(err, ModelError::BadBufferIndex { index: 7, .. }),
        "{err}"
    );
}

/// Buffered demux that releases the same slot twice in one decision.
#[derive(Clone)]
struct DoubleReleaser;
impl BufferedDemultiplexor for DoubleReleaser {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }
    fn slot_decision(
        &mut self,
        _input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        _ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        if buffer.is_empty() {
            *out = BufferedDecision::hold(arrival.is_some());
        } else {
            out.releases.push((0, PlaneId(0)));
            out.releases.push((0, PlaneId(1)));
            out.arrival = arrival.map(|_| ArrivalAction::Enqueue);
        }
    }
}

#[test]
fn duplicate_release_indices_are_fatal() {
    let cfg = PpsConfig::buffered(2, 2, 2, 4);
    let t = trace(2, vec![Arrival::new(0, 0, 0), Arrival::new(1, 0, 0)]);
    let err = BufferedPps::new(cfg, DoubleReleaser)
        .unwrap()
        .run(&t)
        .unwrap_err();
    assert!(
        matches!(err, ModelError::BadBufferIndex { index: 0, .. }),
        "{err}"
    );
}

/// Buffered demux that hoards everything.
#[derive(Clone)]
struct Hoarder;
impl BufferedDemultiplexor for Hoarder {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }
    fn slot_decision(
        &mut self,
        _input: PortId,
        arrival: Option<&Cell>,
        _buffer: &[Cell],
        _ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        *out = BufferedDecision::hold(arrival.is_some());
    }
}

#[test]
fn buffer_overflow_is_fatal_not_a_drop() {
    // Capacity 2, three arrivals on one input: the model forbids dropping,
    // so the engine must error instead.
    let cfg = PpsConfig::buffered(1, 2, 2, 2);
    let t = trace(1, (0..3).map(|s| Arrival::new(s, 0, 0)).collect());
    let err = BufferedPps::new(cfg, Hoarder).unwrap().run(&t).unwrap_err();
    assert!(
        matches!(err, ModelError::BufferOverflow { capacity: 2, .. }),
        "{err}"
    );
}

/// A buffered demux that releases two cells onto the *same* plane in one
/// slot (one line, two cells: input-constraint violation).
#[derive(Clone)]
struct SameLineDouble;
impl BufferedDemultiplexor for SameLineDouble {
    fn info_class(&self) -> InfoClass {
        InfoClass::FullyDistributed
    }
    fn slot_decision(
        &mut self,
        _input: PortId,
        arrival: Option<&Cell>,
        buffer: &[Cell],
        _ctx: &DispatchCtx<'_>,
        out: &mut BufferedDecision,
    ) {
        if buffer.len() >= 2 {
            out.releases.push((0, PlaneId(0)));
            out.releases.push((1, PlaneId(0)));
            out.arrival = arrival.map(|_| ArrivalAction::Enqueue);
        } else {
            *out = BufferedDecision::hold(arrival.is_some());
        }
    }
}

#[test]
fn two_releases_on_one_line_violate_the_input_constraint() {
    let cfg = PpsConfig::buffered(1, 2, 2, 4);
    let t = trace(1, (0..2).map(|s| Arrival::new(s, 0, 0)).collect());
    let err = BufferedPps::new(cfg, SameLineDouble)
        .unwrap()
        .run(&t)
        .unwrap_err();
    assert!(
        matches!(err, ModelError::InputConstraintViolation { .. }),
        "{err}"
    );
}

#[test]
fn engine_rejects_mismatched_buffer_spec() {
    let buffered_cfg = PpsConfig::buffered(2, 2, 2, 4);
    assert!(matches!(
        BufferlessPps::new(buffered_cfg, BusyLineAbuser),
        Err(ModelError::InvalidConfig { .. })
    ));
    let bufferless_cfg = PpsConfig::bufferless(2, 2, 2);
    assert!(matches!(
        BufferedPps::new(bufferless_cfg, Hoarder),
        Err(ModelError::InvalidConfig { .. })
    ));
}
