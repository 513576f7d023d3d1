//! Trace persistence: a plain CSV interchange format.
//!
//! Traces are the experimental record — the adversarial constructions in
//! particular are worth archiving and replaying across machines and
//! versions. The format is a three-column CSV (`slot,input,output`), one
//! cell per line, understood by every plotting tool:
//!
//! ```text
//! slot,input,output
//! 0,3,0
//! 1,4,0
//! ```

use crate::error::ModelError;
use crate::trace::{Arrival, Trace};
use std::io::{BufRead, BufReader, Read, Write};

/// Serialize a trace as CSV.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    writeln!(w, "slot,input,output")?;
    for a in trace.arrivals() {
        writeln!(w, "{},{},{}", a.slot, a.input.0, a.output.0)?;
    }
    Ok(())
}

/// Parse a CSV trace for an `n`-port switch (validates like
/// [`Trace::build`]).
pub fn read_csv<R: Read>(r: R, n: usize) -> Result<Trace, ModelError> {
    let reader = BufReader::new(r);
    let mut arrivals = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| ModelError::MalformedTrace {
            reason: format!("I/O error at line {}: {e}", lineno + 1),
        })?;
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.starts_with("slot")) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let header = ["slot", "input", "output"];
        let slot = csv_field(&fields, 0, header, lineno)?;
        let (input, output) = (
            csv_field(&fields, 1, header, lineno)?,
            csv_field(&fields, 2, header, lineno)?,
        );
        arrivals.push(Arrival::new(slot, input, output));
    }
    Trace::build(arrivals, n)
}

/// Field `i` of the CSV row `fields` on line `lineno + 1`, whose header is
/// `header`, parsed as a `T`: a missing or out-of-range field, or a row
/// longer than its header, is a [`ModelError::MalformedTrace`].
pub(crate) fn csv_field<T: std::str::FromStr<Err = std::num::ParseIntError>, const W: usize>(
    fields: &[&str],
    i: usize,
    header: [&str; W],
    lineno: usize,
) -> Result<T, ModelError> {
    let fail = |reason: String| ModelError::MalformedTrace {
        reason: format!("line {}: {reason}", lineno + 1),
    };
    if fields.len() > W {
        return Err(fail(format!(
            "more than the {W} fields of {}",
            header.join(",")
        )));
    }
    let name = header[i];
    let field = fields.get(i).map(|f| f.trim()).filter(|f| !f.is_empty());
    let field = field.ok_or_else(|| fail(format!("missing {name}")))?;
    field.parse().map_err(|e| fail(format!("bad {name}: {e}")))
}

/// Round-trip convenience: write `trace` to `path`.
pub fn save(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(trace, std::io::BufWriter::new(file))
}

/// Round-trip convenience: load a trace from `path`.
pub fn load(path: &std::path::Path, n: usize) -> Result<Trace, ModelError> {
    let file = std::fs::File::open(path).map_err(|e| ModelError::MalformedTrace {
        reason: format!("cannot open {}: {e}", path.display()),
    })?;
    read_csv(file, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Trace {
        Trace::build(
            vec![
                Arrival::new(0, 3, 0),
                Arrival::new(1, 4, 0),
                Arrival::new(7, 0, 2),
            ],
            5,
        )
        .unwrap()
    }

    #[test]
    fn csv_round_trip() {
        let t = demo();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let parsed = read_csv(&buf[..], 5).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn header_and_blank_lines_are_tolerated() {
        let csv = "slot,input,output\n\n0,1,2\n\n3,0,1\n";
        let t = read_csv(csv.as_bytes(), 3).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        let csv = "slot,input,output\n0,1,hello\n";
        let err = read_csv(csv.as_bytes(), 3).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn out_of_range_ports_are_rejected() {
        let csv = "0,9,0\n";
        assert!(read_csv(csv.as_bytes(), 3).is_err());
        // Output side and the n boundary itself (ports are 0..n).
        assert!(read_csv("0,0,9\n".as_bytes(), 3).is_err());
        assert!(read_csv("0,3,0\n".as_bytes(), 3).is_err());
        assert!(read_csv("0,2,2\n".as_bytes(), 3).is_ok());
    }

    #[test]
    fn trailing_newlines_and_crlf_are_tolerated() {
        // Editors love appending newlines; Windows tools write CRLF. Both
        // parse to the same trace as the canonical form.
        let canonical = read_csv("0,1,2\n3,0,1\n".as_bytes(), 3).unwrap();
        let trailing = read_csv("0,1,2\n3,0,1\n\n\n".as_bytes(), 3).unwrap();
        let no_final = read_csv("0,1,2\n3,0,1".as_bytes(), 3).unwrap();
        let crlf = read_csv("slot,input,output\r\n0,1,2\r\n3,0,1\r\n".as_bytes(), 3).unwrap();
        assert_eq!(trailing, canonical);
        assert_eq!(no_final, canonical);
        assert_eq!(crlf, canonical);
    }

    #[test]
    fn header_only_file_is_an_empty_trace() {
        let t = read_csv("slot,input,output\n".as_bytes(), 4).unwrap();
        assert_eq!(t.len(), 0);
        // ... and so is a completely empty file.
        let t = read_csv("".as_bytes(), 4).unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn header_after_first_line_is_data_and_rejected() {
        // The header is only recognized on line 1; a stray one later is a
        // parse error with the right line number.
        let err = read_csv("0,1,2\nslot,input,output\n".as_bytes(), 3).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pps_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let t = demo();
        save(&t, &path).unwrap();
        let loaded = load(&path, 5).unwrap();
        assert_eq!(loaded, t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ports_above_u32_max_are_refused_not_truncated() {
        // 2^32 + 3 once replayed as port 3.
        let err = read_csv("0,4294967299,1\n".as_bytes(), 8).unwrap_err();
        assert!(err.to_string().contains("line 1: bad input"), "{err}");
        let err = read_csv("0,1,4294967296\n".as_bytes(), 8).unwrap_err();
        assert!(err.to_string().contains("line 1: bad output"), "{err}");
        let err = read_csv("slot,input,output\n0,1,2,3\n".as_bytes(), 8).unwrap_err();
        assert!(
            err.to_string().contains("line 2: more than the 3 fields"),
            "{err}"
        );
    }

    /// `csv` with one to four seeded edits: a byte inserted, deleted or
    /// replaced, or a number spliced in that overflows some field type.
    fn mutate(csv: &[u8], rng: &mut crate::rng::SplitMix64) -> Vec<u8> {
        const BYTES: &[u8] = b"0123456789,\n -x";
        const NUMBERS: [&str; 4] = ["4294967296", "65536", "18446744073709551616", "-1"];
        let mut out = csv.to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(out.len() as u64 + 1) as usize;
            let byte = BYTES[rng.below(BYTES.len() as u64) as usize];
            match rng.below(4) {
                0 => out.insert(at, byte),
                1 if at < out.len() => drop(out.remove(at)),
                2 if at < out.len() => out[at] = byte,
                _ => {
                    let number = NUMBERS[rng.below(NUMBERS.len() as u64) as usize];
                    out.splice(at..at, number.bytes());
                }
            }
        }
        out
    }

    #[test]
    fn mutated_traces_parse_or_are_refused_and_never_panic() {
        let mut csv = Vec::new();
        write_csv(&demo(), &mut csv).unwrap();
        let mut rng = crate::rng::SplitMix64::new(0x7ace);
        let (mut ok, mut refused) = (0, 0);
        for _ in 0..4000 {
            match read_csv(&mutate(&csv, &mut rng)[..], 5) {
                Ok(t) => {
                    assert!(t
                        .arrivals()
                        .all(|a| a.input.idx() < 5 && a.output.idx() < 5));
                    ok += 1;
                }
                Err(ModelError::MalformedTrace { .. }) => refused += 1,
                Err(e) => panic!("not a malformed-trace error: {e}"),
            }
        }
        assert!(ok > 0 && refused > 0, "ok {ok}, refused {refused}");
    }

    #[test]
    fn mutated_fault_plans_parse_or_are_refused_and_never_panic() {
        use crate::fault::{read_csv, write_csv, FaultPlan};
        let plan = FaultPlan::new().plane_down(0, 500).plane_up(0, 1500);
        let mut csv = Vec::new();
        write_csv(&plan.link_degraded(3, 2, 100, 200), &mut csv).unwrap();
        let mut rng = crate::rng::SplitMix64::new(0xfa17);
        let (mut ok, mut refused) = (0, 0);
        for _ in 0..4000 {
            match read_csv(&mutate(&csv, &mut rng)[..]) {
                Ok(_) => ok += 1,
                Err(ModelError::MalformedTrace { .. }) => refused += 1,
                Err(e) => panic!("not a malformed-plan error: {e}"),
            }
        }
        assert!(ok > 0 && refused > 0, "ok {ok}, refused {refused}");
    }
}
