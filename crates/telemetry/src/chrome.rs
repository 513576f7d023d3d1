//! Chrome trace-event JSON export, loadable in Perfetto.
//!
//! The sink maps the event stream onto the [trace-event format]: every
//! `(scope, engine)` pair becomes a *process* (so a lockstep PPS-vs-shadow
//! run shows up as paired track groups), and within a process the arrivals
//! line, each plane, and each output get their own named *thread* track.
//! Cell journeys are flow events (`ph: "s"/"t"/"f"` stitched through the
//! per-track slices they bind to), queue levels are counter events
//! (`ph: "C"`), and faults/watchdog firings are instants. One simulated
//! slot maps to one microsecond of trace time.
//!
//! Because this workspace is offline and has no `serde_json`, the module
//! also carries a [`lint`] pass — a small hand-rolled JSON reader plus
//! structural checks of the trace-event schema — used by the acceptance
//! tests to prove emitted traces are loadable, and available to users as a
//! sanity check before shipping a trace to a browser.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::sink::escape_json;
use pps_core::telemetry::{Engine, Event, EventKind, EventLog};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;

/// Thread-track ids inside one process. Planes and outputs get disjoint
/// dense ranges; the arrivals line sits at 1 so it sorts first.
const TID_ARRIVALS: u64 = 1;
const TID_PLANE_BASE: u64 = 10;
const TID_OUTPUT_BASE: u64 = 10_000;

struct TraceWriter<'w, W: Write> {
    w: &'w mut W,
    first: bool,
}

impl<'w, W: Write> TraceWriter<'w, W> {
    fn event(&mut self, body: &str) -> std::io::Result<()> {
        if self.first {
            self.first = false;
            write!(self.w, "\n  {body}")
        } else {
            write!(self.w, ",\n  {body}")
        }
    }

    fn meta(&mut self, pid: u64, tid: Option<u64>, which: &str, name: &str) -> std::io::Result<()> {
        let tid_part = tid.map_or(String::new(), |t| format!("\"tid\":{t},"));
        self.event(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},{tid_part}\"name\":\"{which}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ))
    }

    fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        ts: u64,
        name: &str,
        args: &str,
    ) -> std::io::Result<()> {
        self.event(&format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":1,\
             \"name\":\"{}\",\"cat\":\"cell\",\"args\":{{{args}}}}}",
            escape_json(name)
        ))
    }

    fn flow(&mut self, ph: char, pid: u64, tid: u64, ts: u64, id: u64) -> std::io::Result<()> {
        // Flow end binds to the *enclosing* slice, so it needs bp: "e".
        let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
        self.event(&format!(
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"id\":{id},\"name\":\"cell\",\"cat\":\"cell\"{bp}}}"
        ))
    }

    fn counter(&mut self, pid: u64, ts: u64, name: &str, value: u64) -> std::io::Result<()> {
        self.event(&format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"name\":\"{}\",\
             \"args\":{{\"cells\":{value}}}}}",
            escape_json(name)
        ))
    }

    fn instant(&mut self, pid: u64, tid: u64, ts: u64, name: &str) -> std::io::Result<()> {
        self.event(&format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"p\",\
             \"name\":\"{}\",\"cat\":\"fault\"}}",
            escape_json(name)
        ))
    }
}

/// Emit one `(scope, engine)` process: metadata, slices, flows, counters.
fn write_process<W: Write>(
    tw: &mut TraceWriter<'_, W>,
    pid: u64,
    scope: &str,
    engine: Engine,
    events: &[Event],
) -> std::io::Result<()> {
    tw.meta(
        pid,
        None,
        "process_name",
        &format!("{scope} [{}]", engine.name()),
    )?;
    tw.meta(pid, Some(TID_ARRIVALS), "thread_name", "arrivals")?;
    // The PPS has an explicit plane→resequencer handoff, so its output
    // counter tracks cells *held at the mux* (PlaneDeliver..Depart). The
    // reference engines have no planes; their output counter tracks cells
    // in the switch destined to that output (Arrival..Depart).
    let held = matches!(engine, Engine::Pps);
    let out_counter = |o: u64| {
        if held {
            format!("output {o} held")
        } else {
            format!("output {o} queued")
        }
    };
    let mut named_planes: BTreeSet<u64> = BTreeSet::new();
    let mut named_outputs: BTreeSet<u64> = BTreeSet::new();
    let mut plane_level: BTreeMap<u64, u64> = BTreeMap::new();
    let mut output_level: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        let ts = ev.slot;
        match ev.kind {
            EventKind::Arrival {
                cell,
                input,
                output,
            } => {
                tw.complete(
                    pid,
                    TID_ARRIVALS,
                    ts,
                    &format!("arrive c{} {}->{}", cell.0, input.0, output.0),
                    &format!(
                        "\"cell\":{},\"input\":{},\"output\":{}",
                        cell.0, input.0, output.0
                    ),
                )?;
                tw.flow('s', pid, TID_ARRIVALS, ts, cell.0)?;
                if !held {
                    let o = u64::from(output.0);
                    let level = output_level.entry(o).or_insert(0);
                    *level += 1;
                    tw.counter(pid, ts, &out_counter(o), *level)?;
                }
            }
            EventKind::DemuxDecision { cell, input, plane } => {
                tw.complete(
                    pid,
                    TID_ARRIVALS,
                    ts,
                    &format!("demux c{} @{} -> k{}", cell.0, input.0, plane.0),
                    &format!("\"cell\":{},\"plane\":{}", cell.0, plane.0),
                )?;
            }
            EventKind::PlaneEnqueue { plane, .. } => {
                let p = u64::from(plane.0);
                if named_planes.insert(p) {
                    tw.meta(
                        pid,
                        Some(TID_PLANE_BASE + p),
                        "thread_name",
                        &format!("plane {p}"),
                    )?;
                }
                let level = plane_level.entry(p).or_insert(0);
                *level += 1;
                tw.counter(pid, ts, &format!("plane {p} occupancy"), *level)?;
            }
            EventKind::PlaneDeliver {
                cell,
                plane,
                output,
            } => {
                let p = u64::from(plane.0);
                if named_planes.insert(p) {
                    tw.meta(
                        pid,
                        Some(TID_PLANE_BASE + p),
                        "thread_name",
                        &format!("plane {p}"),
                    )?;
                }
                tw.complete(
                    pid,
                    TID_PLANE_BASE + p,
                    ts,
                    &format!("deliver c{} -> out {}", cell.0, output.0),
                    &format!("\"cell\":{},\"output\":{}", cell.0, output.0),
                )?;
                tw.flow('t', pid, TID_PLANE_BASE + p, ts, cell.0)?;
                let level = plane_level.entry(p).or_insert(0);
                *level = level.saturating_sub(1);
                tw.counter(pid, ts, &format!("plane {p} occupancy"), *level)?;
                let o = u64::from(output.0);
                let level = output_level.entry(o).or_insert(0);
                *level += 1;
                tw.counter(pid, ts, &out_counter(o), *level)?;
            }
            EventKind::ReseqHold { cell, output } => {
                let o = u64::from(output.0);
                if named_outputs.insert(o) {
                    tw.meta(
                        pid,
                        Some(TID_OUTPUT_BASE + o),
                        "thread_name",
                        &format!("output {o}"),
                    )?;
                }
                tw.instant(pid, TID_OUTPUT_BASE + o, ts, &format!("hold c{}", cell.0))?;
            }
            EventKind::ReseqRelease { cell, output } => {
                let o = u64::from(output.0);
                if named_outputs.insert(o) {
                    tw.meta(
                        pid,
                        Some(TID_OUTPUT_BASE + o),
                        "thread_name",
                        &format!("output {o}"),
                    )?;
                }
                tw.instant(
                    pid,
                    TID_OUTPUT_BASE + o,
                    ts,
                    &format!("release c{}", cell.0),
                )?;
            }
            EventKind::Depart { cell, output } => {
                let o = u64::from(output.0);
                if named_outputs.insert(o) {
                    tw.meta(
                        pid,
                        Some(TID_OUTPUT_BASE + o),
                        "thread_name",
                        &format!("output {o}"),
                    )?;
                }
                tw.complete(
                    pid,
                    TID_OUTPUT_BASE + o,
                    ts,
                    &format!("depart c{}", cell.0),
                    &format!("\"cell\":{}", cell.0),
                )?;
                tw.flow('f', pid, TID_OUTPUT_BASE + o, ts, cell.0)?;
                let level = output_level.entry(o).or_insert(0);
                *level = level.saturating_sub(1);
                tw.counter(pid, ts, &out_counter(o), *level)?;
            }
            EventKind::FaultApplied { plane, kind } => {
                let p = u64::from(plane.0);
                if named_planes.insert(p) {
                    tw.meta(
                        pid,
                        Some(TID_PLANE_BASE + p),
                        "thread_name",
                        &format!("plane {p}"),
                    )?;
                }
                tw.instant(pid, TID_PLANE_BASE + p, ts, kind.name())?;
            }
            EventKind::WatchdogDrop { output, cells } => {
                let o = u64::from(output.0);
                if named_outputs.insert(o) {
                    tw.meta(
                        pid,
                        Some(TID_OUTPUT_BASE + o),
                        "thread_name",
                        &format!("output {o}"),
                    )?;
                }
                tw.instant(
                    pid,
                    TID_OUTPUT_BASE + o,
                    ts,
                    &format!("watchdog drop x{cells}"),
                )?;
            }
        }
    }
    Ok(())
}

/// Write an [`EventLog`] tree as a Chrome trace-event JSON document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Scope × engine pairs
/// become processes in declared order, so the document — like the tables —
/// is byte-identical at any job count.
pub fn write_chrome<W: Write>(log: &EventLog, w: &mut W) -> std::io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut tw = TraceWriter { w, first: true };
    let mut pid = 0u64;
    for (scope, events) in log.flatten() {
        // Engines in first-appearance order within the scope (stable).
        let mut engines: Vec<Engine> = Vec::new();
        for ev in events {
            if !engines.contains(&ev.engine) {
                engines.push(ev.engine);
            }
        }
        for engine in engines {
            pid += 1;
            let slice: Vec<Event> = events
                .iter()
                .filter(|e| e.engine == engine)
                .copied()
                .collect();
            write_process(&mut tw, pid, &scope, engine, &slice)?;
        }
    }
    writeln!(w, "\n]}}")
}

// ---------------------------------------------------------------------------
// Schema lint: minimal JSON reader + structural checks
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough for linting; numbers as f64).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number
    Num(f64),
    /// A string
    Str(String),
    /// An array
    Arr(Vec<Json>),
    /// An object, fields in document order
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of plain bytes in one step —
                    // validating per character would make parsing quadratic
                    // in the document size, which a multi-megabyte trace
                    // turns into an effective hang.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (used by the lint; public because the CI bench
/// comparator reuses it).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// What the structural lint found in a trace-event document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Distinct process ids.
    pub processes: usize,
    /// Counter events (`ph: "C"`).
    pub counter_events: usize,
    /// Distinct plane counter tracks (`"plane N occupancy"`), per process.
    pub plane_counter_tracks: usize,
    /// Distinct output counter tracks (`"output N held"`), per process.
    pub output_counter_tracks: usize,
    /// Flow starts / steps / ends.
    pub flow_starts: usize,
    /// Flow step events (`ph: "t"`).
    pub flow_steps: usize,
    /// Flow end events (`ph: "f"`).
    pub flow_ends: usize,
    /// Process display names, in pid order.
    pub process_names: Vec<String>,
    /// Schema violations; empty means the document validates.
    pub errors: Vec<String>,
}

impl LintReport {
    /// Does the document validate against the trace-event schema?
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validate a Chrome trace-event JSON document: syntax, required keys per
/// event (`ph`/`pid`/`name`, `ts` on non-metadata events), flow pairing
/// (every end has a start with the same id), and tally counters/flows per
/// track so callers can assert coverage.
pub fn lint(text: &str) -> LintReport {
    let mut r = LintReport::default();
    let doc = match parse_json(text) {
        Ok(doc) => doc,
        Err(e) => {
            r.errors.push(e);
            return r;
        }
    };
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        r.errors
            .push("top-level \"traceEvents\" array missing".into());
        return r;
    };
    r.events = events.len();
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    let mut plane_counters: BTreeSet<(u64, String)> = BTreeSet::new();
    let mut output_counters: BTreeSet<(u64, String)> = BTreeSet::new();
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut flow_started: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let loc = || format!("traceEvents[{i}]");
        let Some(ph) = ev.get("ph").and_then(Json::as_str) else {
            r.errors.push(format!("{}: missing \"ph\"", loc()));
            continue;
        };
        let Some(pid) = ev.get("pid").and_then(Json::as_num) else {
            r.errors.push(format!("{}: missing \"pid\"", loc()));
            continue;
        };
        let pid = pid as u64;
        pids.insert(pid);
        let Some(name) = ev.get("name").and_then(Json::as_str) else {
            r.errors.push(format!("{}: missing \"name\"", loc()));
            continue;
        };
        if ph != "M" && ev.get("ts").and_then(Json::as_num).is_none() {
            r.errors
                .push(format!("{}: ph {ph:?} missing numeric \"ts\"", loc()));
            continue;
        }
        match ph {
            "C" => {
                r.counter_events += 1;
                if name.starts_with("plane ") {
                    plane_counters.insert((pid, name.to_string()));
                } else if name.starts_with("output ") {
                    output_counters.insert((pid, name.to_string()));
                }
            }
            "s" | "t" | "f" => {
                let Some(id) = ev.get("id").and_then(Json::as_num) else {
                    r.errors
                        .push(format!("{}: flow event missing \"id\"", loc()));
                    continue;
                };
                let key = (pid, id as u64);
                match ph {
                    "s" => {
                        r.flow_starts += 1;
                        flow_started.insert(key);
                    }
                    "t" => r.flow_steps += 1,
                    _ => {
                        r.flow_ends += 1;
                        if !flow_started.contains(&key) {
                            r.errors.push(format!(
                                "{}: flow end id {} without a start",
                                loc(),
                                id as u64
                            ));
                        }
                    }
                }
            }
            "M" => {
                if name == "process_name" {
                    if let Some(n) = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                    {
                        names.insert(pid, n.to_string());
                    }
                }
            }
            "X" => {
                if ev.get("dur").and_then(Json::as_num).is_none() {
                    r.errors
                        .push(format!("{}: complete event missing \"dur\"", loc()));
                }
            }
            "i" | "B" | "E" => {}
            other => r.errors.push(format!("{}: unknown ph {other:?}", loc())),
        }
    }
    r.processes = pids.len();
    r.plane_counter_tracks = plane_counters.len();
    r.output_counter_tracks = output_counters.len();
    r.process_names = names.into_values().collect();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_core::{CellId, PlaneId, PortId};

    fn mk(slot: u64, engine: Engine, kind: EventKind) -> Event {
        Event { slot, engine, kind }
    }

    /// One cell's full journey through a 1-plane, 1-output PPS.
    fn journey() -> EventLog {
        let c = CellId(0);
        EventLog {
            label: "demo".into(),
            events: vec![
                mk(
                    0,
                    Engine::Pps,
                    EventKind::Arrival {
                        cell: c,
                        input: PortId(0),
                        output: PortId(0),
                    },
                ),
                mk(
                    0,
                    Engine::Pps,
                    EventKind::DemuxDecision {
                        cell: c,
                        input: PortId(0),
                        plane: PlaneId(0),
                    },
                ),
                mk(
                    0,
                    Engine::Pps,
                    EventKind::PlaneEnqueue {
                        cell: c,
                        plane: PlaneId(0),
                        output: PortId(0),
                    },
                ),
                mk(
                    4,
                    Engine::Pps,
                    EventKind::PlaneDeliver {
                        cell: c,
                        plane: PlaneId(0),
                        output: PortId(0),
                    },
                ),
                mk(
                    5,
                    Engine::Pps,
                    EventKind::Depart {
                        cell: c,
                        output: PortId(0),
                    },
                ),
                // Shadow engine interleaved: becomes a second process.
                mk(
                    0,
                    Engine::ShadowOq,
                    EventKind::Arrival {
                        cell: c,
                        input: PortId(0),
                        output: PortId(0),
                    },
                ),
                mk(
                    1,
                    Engine::ShadowOq,
                    EventKind::Depart {
                        cell: c,
                        output: PortId(0),
                    },
                ),
            ],
            overflowed: 0,
            children: vec![],
        }
    }

    #[test]
    fn chrome_trace_validates_and_pairs_tracks() {
        let mut buf = Vec::new();
        write_chrome(&journey(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let report = lint(&text);
        assert!(report.ok(), "lint errors: {:?}", report.errors);
        assert_eq!(report.processes, 2, "pps + shadow are paired processes");
        assert!(report.counter_events >= 5, "plane and output counters");
        assert_eq!(report.plane_counter_tracks, 1);
        assert_eq!(
            report.output_counter_tracks, 2,
            "held track in pps + queued track in shadow"
        );
        assert_eq!(report.flow_starts, 2);
        assert_eq!(report.flow_ends, 2);
        assert!(report.process_names[0].contains("pps"));
        assert!(report.process_names[1].contains("shadow-oq"));
    }

    #[test]
    fn json_parser_round_trips_basics() {
        let doc = parse_json(r#"{"a": [1, 2.5, -3], "b": "x\"y", "c": null, "d": true}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(doc.get("c"), Some(&Json::Null));
        match doc.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[2].as_num(), Some(-3.0));
            }
            other => panic!("bad array: {other:?}"),
        }
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn lint_flags_schema_violations() {
        let bad = r#"{"traceEvents":[{"ph":"C","name":"x","ts":0}]}"#;
        let r = lint(bad);
        assert!(!r.ok());
        assert!(r.errors[0].contains("pid"), "{:?}", r.errors);
        let orphan = r#"{"traceEvents":[
            {"ph":"f","pid":1,"tid":1,"ts":0,"id":9,"name":"cell"}
        ]}"#;
        let r = lint(orphan);
        assert!(
            r.errors.iter().any(|e| e.contains("without a start")),
            "{:?}",
            r.errors
        );
    }
}
