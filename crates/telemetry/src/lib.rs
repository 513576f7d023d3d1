//! # pps-telemetry — delay attribution and export sinks for the PPS event stream
//!
//! The recording substrate lives in [`pps_core::telemetry`] (so the
//! engines can emit events without depending on this crate); everything
//! *derived* from the stream lives here:
//!
//! * `attribution` — where each cell's relative delay came from: one fold
//!   per engine run over its own events, against an FCFS output-queued
//!   reference streamed from its arrivals, splitting the delay into input
//!   wait, line + plane wait and output hold;
//! * `sink` — flat JSONL and CSV dumps, one row per event;
//! * [`chrome`] — Chrome trace-event JSON loadable in Perfetto (planes
//!   and outputs as tracks, cells as flow events, queue levels as
//!   counters), plus a schema lint built on a hand-rolled JSON reader
//!   (this workspace is offline and carries no `serde_json`).
//!
//! `ppslab --telemetry <off|counters|full> --trace-out <path>` is the
//! driver-facing face of all of this: [`dump`] picks the sink from the
//! path extension (`.json` → Chrome, `.csv` → CSV, anything else →
//! JSONL), and [`summarize`] renders the attribution that goes to stderr.

mod attribution;
pub mod chrome;
mod sink;

use chrome::write_chrome;
use pps_core::telemetry::EventLog;
use sink::{write_csv, write_jsonl};
use std::io::Write;
use std::path::Path;

/// The sink formats [`dump`] can write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    /// One JSON object per event per line.
    Jsonl,
    /// Flat CSV with a fixed header.
    Csv,
    /// Chrome trace-event JSON (open in Perfetto / `chrome://tracing`).
    Chrome,
}

impl Format {
    /// Pick a format from a file path: `.json` → Chrome trace, `.csv` →
    /// CSV, everything else (`.jsonl`, no extension, …) → JSONL.
    fn from_path(path: &Path) -> Format {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Format::Chrome,
            Some("csv") => Format::Csv,
            _ => Format::Jsonl,
        }
    }
}

/// Write `log` to `w` in the given format.
fn write(log: &EventLog, format: Format, w: &mut impl Write) -> std::io::Result<()> {
    match format {
        Format::Jsonl => write_jsonl(log, w),
        Format::Csv => write_csv(log, w),
        Format::Chrome => write_chrome(log, w),
    }
}

/// Write `log` to `path`, picking the format from the extension.
pub fn dump(log: &EventLog, path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write(log, Format::from_path(path), &mut w)
}

/// Events the rings of `log` and its children overwrote.
fn overflowed(log: &EventLog) -> u64 {
    log.overflowed + log.children.iter().map(overflowed).sum::<u64>()
}

/// The delay attribution of a whole log tree, for stderr reporting: each
/// scope with events gives its event count and a block per engine run
/// (module `attribution`). A scope that lost events to ring overflow gives
/// its loss instead, since each output's OQ reference needs every arrival;
/// a tree that lost any ends with a `warning:` line saying how many.
pub fn summarize(log: &EventLog) -> String {
    let mut out = String::new();
    summarize_scope(log, "", &mut out);
    let dropped = overflowed(log);
    if dropped > 0 {
        out.push_str(&format!(
            "warning: {dropped} events dropped by ring overflow (a scope outgrew its \
             event ring; the oldest were overwritten) -- the trace and the figures \
             above cover the survivors only\n"
        ));
    }
    out
}

/// [`summarize`] `log` and its children, depth first, under `prefix`.
fn summarize_scope(log: &EventLog, prefix: &str, out: &mut String) {
    let path = match prefix {
        "" => log.label.clone(),
        _ => format!("{prefix}/{}", log.label),
    };
    if !log.events.is_empty() {
        out.push_str(&format!("[{path}] {} events", log.events.len()));
        if log.overflowed > 0 {
            out.push_str(&format!(
                ", {} lost to ring overflow: no OQ-relative figures\n",
                log.overflowed
            ));
        } else {
            out.push('\n');
            attribution::render(&log.events, out);
        }
    }
    for child in &log.children {
        summarize_scope(child, &path, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_warns_about_ring_overflow_and_only_then() {
        let scope = |label: &str, overflowed| EventLog {
            label: label.into(),
            events: Vec::new(),
            overflowed,
            children: Vec::new(),
        };
        assert_eq!(summarize(&scope("clean", 0)), "");
        let lossy = summarize(&scope("lossy", 3));
        assert!(lossy.starts_with("warning: 3 events dropped"), "{lossy}");
        // The loss is summed over the tree: `ppslab`'s root holds none itself.
        let mut root = scope("ppslab", 0);
        root.children = vec![scope("e1", 2), scope("e2", 5)];
        assert!(summarize(&root).starts_with("warning: 7 events dropped"));
    }

    #[test]
    fn a_scope_that_lost_events_prints_its_loss_not_its_figures() {
        use pps_core::telemetry::{Engine, Event, EventKind};
        use pps_core::{CellId, PortId};
        let kinds = [
            EventKind::Arrival {
                cell: CellId(7),
                input: PortId(0),
                output: PortId(0),
            },
            EventKind::Depart {
                cell: CellId(7),
                output: PortId(0),
            },
        ];
        let events = kinds
            .into_iter()
            .map(|kind| Event {
                slot: 3,
                engine: Engine::Pps,
                kind,
            })
            .collect();
        let mut scope = EventLog {
            label: "run".into(),
            events,
            overflowed: 0,
            children: Vec::new(),
        };
        assert!(summarize(&scope).starts_with("[run] 2 events\n  run 1 (pps): cells=1 "));
        scope.overflowed = 5;
        let lossy = summarize(&scope);
        let head = "[run] 2 events, 5 lost to ring overflow: no OQ-relative figures\n";
        assert!(lossy.starts_with(head), "{lossy}");
        assert!(!lossy.contains("run 1"), "{lossy}");
        assert!(lossy.ends_with("cover the survivors only\n"), "{lossy}");
    }

    #[test]
    fn format_follows_extension() {
        assert_eq!(Format::from_path(Path::new("t.json")), Format::Chrome);
        assert_eq!(Format::from_path(Path::new("t.csv")), Format::Csv);
        assert_eq!(Format::from_path(Path::new("t.jsonl")), Format::Jsonl);
        assert_eq!(Format::from_path(Path::new("trace")), Format::Jsonl);
    }
}
