//! Flat export sinks: JSONL and CSV.
//!
//! Both sinks emit one row per event, walking the [`EventLog`] tree
//! depth-first in its deterministic declared order and prefixing every row
//! with the scope path, so a full `ppslab --telemetry full` bundle dumps
//! to a single file that slices cleanly by experiment or sweep point in
//! any dataframe tool.

use pps_core::telemetry::{Event, EventKind, EventLog};
use std::io::Write;

/// The per-kind payload of an event, flattened to the optional
/// `(cell, input, output, plane, count)` columns. One row shape serves
/// both sinks.
type Payload = (
    Option<u64>,
    Option<u32>,
    Option<u32>,
    Option<u32>,
    Option<u32>,
);

fn payload(kind: EventKind) -> Payload {
    match kind {
        EventKind::Arrival {
            cell,
            input,
            output,
        } => (Some(cell.0), Some(input.0), Some(output.0), None, None),
        EventKind::DemuxDecision { cell, input, plane } => {
            (Some(cell.0), Some(input.0), None, Some(plane.0), None)
        }
        EventKind::PlaneEnqueue {
            cell,
            plane,
            output,
        }
        | EventKind::PlaneDeliver {
            cell,
            plane,
            output,
        } => (Some(cell.0), None, Some(output.0), Some(plane.0), None),
        EventKind::ReseqHold { cell, output } | EventKind::ReseqRelease { cell, output } => {
            (Some(cell.0), None, Some(output.0), None, None)
        }
        EventKind::Depart { cell, output } => (Some(cell.0), None, Some(output.0), None, None),
        EventKind::FaultApplied { plane, .. } => (None, None, None, Some(plane.0), None),
        EventKind::WatchdogDrop { output, cells } => {
            (None, None, Some(output.0), None, Some(cells))
        }
    }
}

/// Extra kind-specific detail not covered by the flat columns.
fn detail(kind: EventKind) -> Option<&'static str> {
    match kind {
        EventKind::FaultApplied { kind, .. } => Some(kind.name()),
        _ => None,
    }
}

fn write_row_json<W: Write>(w: &mut W, scope: &str, ev: &Event) -> std::io::Result<()> {
    let (cell, input, output, plane, count) = payload(ev.kind);
    write!(
        w,
        "{{\"scope\":\"{}\",\"slot\":{},\"engine\":\"{}\",\"kind\":\"{}\"",
        escape_json(scope),
        ev.slot,
        ev.engine.name(),
        ev.kind.name()
    )?;
    if let Some(v) = cell {
        write!(w, ",\"cell\":{v}")?;
    }
    if let Some(v) = input {
        write!(w, ",\"input\":{v}")?;
    }
    if let Some(v) = output {
        write!(w, ",\"output\":{v}")?;
    }
    if let Some(v) = plane {
        write!(w, ",\"plane\":{v}")?;
    }
    if let Some(v) = count {
        write!(w, ",\"count\":{v}")?;
    }
    if let Some(d) = detail(ev.kind) {
        write!(w, ",\"detail\":\"{d}\"")?;
    }
    writeln!(w, "}}")
}

/// Escape a string for embedding in a JSON literal. Scope labels are
/// plan ids and indices, but a custom label could contain anything.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write an [`EventLog`] tree as JSON Lines: one event object per line,
/// depth-first in declared order.
pub(crate) fn write_jsonl<W: Write>(log: &EventLog, w: &mut W) -> std::io::Result<()> {
    for (scope, events) in log.flatten() {
        for ev in events {
            write_row_json(w, &scope, ev)?;
        }
    }
    Ok(())
}

/// Write an [`EventLog`] tree as CSV with a fixed header. Empty cells mark
/// columns a kind does not carry.
pub(crate) fn write_csv<W: Write>(log: &EventLog, w: &mut W) -> std::io::Result<()> {
    writeln!(
        w,
        "scope,slot,engine,kind,cell,input,output,plane,count,detail"
    )?;
    let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
    for (scope, events) in log.flatten() {
        for ev in events {
            let (cell, input, output, plane, count) = payload(ev.kind);
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{}",
                scope,
                ev.slot,
                ev.engine.name(),
                ev.kind.name(),
                opt(cell),
                opt(input.map(u64::from)),
                opt(output.map(u64::from)),
                opt(plane.map(u64::from)),
                opt(count.map(u64::from)),
                detail(ev.kind).unwrap_or(""),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::telemetry::Engine;
    use pps_core::{CellId, PortId};

    fn demo_log() -> EventLog {
        EventLog {
            label: "root".into(),
            events: vec![Event {
                slot: 3,
                engine: Engine::Pps,
                kind: EventKind::Depart {
                    cell: CellId(7),
                    output: PortId(1),
                },
            }],
            overflowed: 0,
            children: vec![EventLog {
                label: "child".into(),
                events: vec![Event {
                    slot: 0,
                    engine: Engine::ShadowOq,
                    kind: EventKind::Arrival {
                        cell: CellId(0),
                        input: PortId(2),
                        output: PortId(1),
                    },
                }],
                overflowed: 0,
                children: vec![],
            }],
        }
    }

    #[test]
    fn jsonl_rows_cover_the_tree_in_order() {
        let mut buf = Vec::new();
        write_jsonl(&demo_log(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"scope\":\"root\""), "{}", lines[0]);
        assert!(lines[0].contains("\"kind\":\"depart\""));
        assert!(lines[1].contains("\"scope\":\"root/child\""));
        assert!(lines[1].contains("\"engine\":\"shadow-oq\""));
    }

    #[test]
    fn csv_has_header_and_blank_optionals() {
        let mut buf = Vec::new();
        write_csv(&demo_log(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "scope,slot,engine,kind,cell,input,output,plane,count,detail"
        );
        // Depart carries no input/plane/count: those columns are empty.
        assert_eq!(lines[1], "root,3,pps,depart,7,,1,,,");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
