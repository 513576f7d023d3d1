//! Golden simulated outputs: `golden/<workload>.json`, written by
//! `ppsbench bless`, loaded by every run. A run refuses to time a workload
//! whose warm-up rep disagrees with its golden.
//!
//! The goldens pin the *default seed*; on any other seed a rep is held to
//! the first warm-up rep of its own process instead (same inputs must give
//! the same outputs). `registry` ignores the seed, so its golden always
//! applies.

use crate::workloads::Op;
use pps_telemetry::chrome::{parse_json, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The golden directory committed beside this crate's manifest; `--quick`
/// runs keep their own set (the horizons differ).
pub fn default_dir(quick: bool) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    if quick {
        dir.join("quick")
    } else {
        dir
    }
}

fn path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.json"))
}

/// Write `ops` as the golden of `workload` into `dir`.
pub fn save(dir: &Path, workload: &str, seed: u64, ops: &[Op]) -> Result<(), String> {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"ops\": [\n");
    for (i, op) in ops.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"id\": \"{}\", \"digest\": \"{:016x}\", \"engine_cells\": {}, \
             \"slots\": {}, \"slots_skipped\": {}}}",
            op.id, op.digest, op.engine_cells, op.slots, op.slots_skipped
        );
        out.push_str(if i + 1 < ops.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let p = path(dir, workload);
    std::fs::write(&p, out).map_err(|e| format!("{}: {e}", p.display()))
}

/// Load the golden ops of `workload` from `dir`.
pub fn load(dir: &Path, workload: &str) -> Result<Vec<Op>, String> {
    let p = path(dir, workload);
    let text = std::fs::read_to_string(&p)
        .map_err(|e| format!("golden {}: {e} (run `ppsbench bless`)", p.display()))?;
    let bad = |what: &str| format!("golden {}: {what}", p.display());
    let root = parse_json(&text).map_err(|e| bad(&e))?;
    let Some(Json::Arr(ops)) = root.get("ops") else {
        return Err(bad("no \"ops\" array"));
    };
    ops.iter()
        .map(|op| {
            let num = |key: &str| {
                op.get(key)
                    .and_then(Json::as_num)
                    .map(|v| v as u64)
                    .ok_or_else(|| bad(&format!("op without numeric {key:?}")))
            };
            let text = |key: &str| {
                op.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad(&format!("op without string {key:?}")))
            };
            Ok(Op {
                id: text("id")?.to_string(),
                digest: u64::from_str_radix(text("digest")?, 16)
                    .map_err(|e| bad(&format!("digest: {e}")))?,
                engine_cells: num("engine_cells")?,
                slots: num("slots")?,
                slots_skipped: num("slots_skipped")?,
                fault: None,
            })
        })
        .collect()
}

/// Why `op` fails against `reference` (the golden, or this process's first
/// rep), or `None` if it passes. `engine_cells` is compared only where the
/// op counts it itself (`registry` takes it from the golden).
pub fn disagreement(op: &Op, reference: &[Op]) -> Option<String> {
    if let Some(fault) = &op.fault {
        return Some(format!("{}: {fault}", op.id));
    }
    let Some(want) = reference.iter().find(|r| r.id == op.id) else {
        return Some(format!("{}: not in the reference", op.id));
    };
    let mut diffs = Vec::new();
    if op.digest != want.digest {
        diffs.push(format!(
            "digest {:016x}, expected {:016x}",
            op.digest, want.digest
        ));
    }
    // An op that could not count its own cells reads 0 (see `Op`).
    let counted_cells = (op.engine_cells != 0).then_some(op.engine_cells);
    for (what, got, exp) in [
        ("slots", Some(op.slots), want.slots),
        ("slots_skipped", Some(op.slots_skipped), want.slots_skipped),
        ("engine_cells", counted_cells, want.engine_cells),
    ] {
        if let Some(got) = got.filter(|&got| got != exp) {
            diffs.push(format!("{what} {got}, expected {exp}"));
        }
    }
    (!diffs.is_empty()).then(|| format!("{}: {}", op.id, diffs.join(", ")))
}
