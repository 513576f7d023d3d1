//! Smoke tests of the `ppsbench` binary in `--quick` mode (horizons ÷ 20,
//! 3 reps, `registry` restricted to e1–e4 + e9), and the check that
//! `BENCHMARK.json` and the harness name the same metrics and workloads.

use pps_telemetry::chrome::{parse_json, Json};
use ppsbench::metrics::{end_to_end, per_layer, MetricDef};
use ppsbench::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ppsbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppsbench"))
        .args(args)
        .output()
        .expect("spawn ppsbench")
}

fn tmp(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// The `simulated` object of every record in a `run --out` file.
fn simulated(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("out file")
        .lines()
        .map(|l| format!("{:?}", parse_json(l).expect("record").get("simulated")))
        .collect()
}

#[test]
fn quick_run_emits_every_workload_and_metric_and_repeats_exactly() {
    let outs = [tmp("quick-a.jsonl"), tmp("quick-b.jsonl")];
    for out in &outs {
        let run = ppsbench(&[
            "run",
            "--quick",
            "--seconds",
            "0.05",
            "--out",
            out.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{stdout}\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        for name in NAMES {
            assert!(
                stdout.contains(&format!("workload {name} ")),
                "{name} missing:\n{stdout}"
            );
        }
        let results: Vec<Json> = stdout
            .lines()
            .filter(|l| l.starts_with("{\"correct\""))
            .map(|l| parse_json(l).expect("result line"))
            .collect();
        assert_eq!(results.len(), NAMES.len());
        for r in &results {
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(r.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(r.get("attempted").and_then(Json::as_num).unwrap() >= 3.0);
            for d in end_to_end() {
                let value = r
                    .get("metrics")
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"));
                assert!(
                    value.and_then(Json::as_num).unwrap() > 0.0,
                    "{} must be > 0",
                    d.name
                );
            }
        }
        assert_eq!(stdout.matches("failed_share 0/").count(), NAMES.len());
    }
    let (a, b) = (simulated(&outs[0]), simulated(&outs[1]));
    assert_eq!(a.len(), NAMES.len());
    assert_eq!(a, b, "digests and counts must repeat exactly");
}

#[test]
fn a_wrong_golden_is_refused() {
    let dir = tmp("wrong-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let committed = ppsbench::golden::default_dir(true);
    for name in NAMES {
        let text = std::fs::read_to_string(committed.join(format!("{name}.json"))).unwrap();
        // One flipped digit in dense_lockstep's slot count.
        let text = match name {
            "dense_lockstep" => text.replace("\"slots\": 4", "\"slots\": 5"),
            _ => text,
        };
        std::fs::write(dir.join(format!("{name}.json")), text).unwrap();
    }
    let dir = dir.to_str().unwrap();
    let one = ppsbench(&[
        "--workload",
        "dense_lockstep",
        "--quick",
        "--seconds",
        "0.05",
        "--golden-dir",
        dir,
    ]);
    assert_eq!(
        one.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&one.stderr)
    );
    assert!(String::from_utf8_lossy(&one.stderr).contains("expected 5"));
    assert!(
        one.stdout.is_empty(),
        "no result for a workload that was not timed"
    );
    let ok = ppsbench(&[
        "--workload",
        "crossbar_zoo",
        "--quick",
        "--seconds",
        "0.05",
        "--golden-dir",
        dir,
    ]);
    assert!(ok.status.success());
    let all = ppsbench(&["run", "--quick", "--seconds", "0.05", "--golden-dir", dir]);
    assert_eq!(all.status.code(), Some(1));
}

#[test]
fn traced_quick_run_prints_every_per_layer_metric() {
    for name in ["dense_lockstep", "sparse_skip", "registry"] {
        let spans = tmp(&format!("trace-{name}.json"));
        let run = ppsbench(&[
            "--workload",
            name,
            "--quick",
            "--seconds",
            "0.05",
            "--trace",
            "1",
            "--trace-out",
            spans.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{stdout}\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let result = parse_json(stdout.lines().last().unwrap()).expect("result line");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let coverage = result
            .get("metrics")
            .unwrap()
            .get("trace.coverage_pct")
            .unwrap();
        let coverage = coverage.get("value").and_then(Json::as_num).unwrap();
        assert!((80.0..=105.0).contains(&coverage), "coverage {coverage}");
        let doc = parse_json(&std::fs::read_to_string(&spans).unwrap()).expect("span file");
        let Some(Json::Arr(recorded)) = doc.get("spans") else {
            panic!("no spans")
        };
        assert!(recorded
            .iter()
            .any(|s| s.get("parent") == Some(&Json::Null)));
    }
}

#[test]
fn compare_resolves_identical_sets_and_flags_a_slower_one() {
    let record = |wall: f64, failed: u32| {
        format!(
            "{{\"workload\": \"w\", \"seed\": 1, \"quick\": false, \"trace\": false, \
             \"simulated\": {{\"digest\": \"00\"}}, \"result\": {{\"correct\": true, \
             \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\
             \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
             \"cells_per_s\": {{\"value\": {}, \"unit\": \"engine-cells/s\"}}, \
             \"slots_per_s\": {{\"value\": {}, \"unit\": \"slots/s\"}}, \
             \"peak_rss_mb\": {{\"value\": 100.0, \"unit\": \"MiB\"}}, \
             \"setup_s\": {{\"value\": 0.01, \"unit\": \"s\"}}}}}}}}\n",
            1e6 / wall,
            1e5 / wall
        )
    };
    let write = |name: &str, walls: [f64; 3], failed: u32| {
        let path = tmp(name);
        std::fs::write(&path, walls.map(|w| record(w, failed)).concat()).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write("set-base.jsonl", [1.00, 1.01, 0.99], 0);
    let same = write("set-same.jsonl", [1.02, 1.00, 1.01], 0);
    let slow = write("set-slow.jsonl", [1.40, 1.41, 1.39], 0);
    let noisy = write("set-noisy.jsonl", [0.80, 1.00, 1.30], 0);
    let failing = write("set-failing.jsonl", [1.00, 1.01, 0.99], 1);

    let ok = ppsbench(&["compare", &base, &same]);
    let table = String::from_utf8_lossy(&ok.stdout).to_string();
    assert!(ok.status.success(), "{table}");
    assert_eq!(table.matches("unchanged").count(), 6, "{table}");
    for (set, verdict) in [
        (&slow, "regressed"),
        (&noisy, "unresolved"),
        (&failing, "regressed"),
    ] {
        let out = ppsbench(&["compare", &base, set]);
        let table = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(out.status.code(), Some(1), "{table}");
        assert!(table.contains(verdict), "{verdict} expected:\n{table}");
    }
    // Faster on every run beats any spread.
    let fast = ppsbench(&[
        "compare",
        &noisy,
        &write("set-fast.jsonl", [0.5, 0.6, 0.7], 0),
    ]);
    assert!(String::from_utf8_lossy(&fast.stdout).contains("improved"));
}

fn defs_of(doc: &Json, key: &str) -> Vec<MetricDef> {
    let Some(Json::Arr(entries)) = doc.get(key) else {
        panic!("BENCHMARK.json: no {key}")
    };
    entries
        .iter()
        .map(|e| {
            let text = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key}: no {k}"))
            };
            MetricDef {
                name: text("name").to_string(),
                unit: Box::leak(text("unit").to_string().into_boxed_str()),
                better: Box::leak(text("better").to_string().into_boxed_str()),
                bound: e.get("bound").and_then(Json::as_num),
            }
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_harness_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    assert_eq!(defs_of(&doc, "end_to_end"), end_to_end());
    assert_eq!(defs_of(&doc, "per_layer"), per_layer());
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, NAMES);
}
