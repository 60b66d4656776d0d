//! Byte-level oracle for the workspace's one JSON codec (the vendored
//! serde_json over `serde::Value`): every committed result document must
//! parse and re-print to its exact bytes, every committed `OBS_*.json`
//! must survive the typed manifest + snapshot round trip byte for byte,
//! and the typed readers must agree on the edge cases they share.

use serde_json::Value;
use std::path::{Path, PathBuf};
use wym_obs::{Manifest, ModelSketch, Snapshot, Windowed};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn result_files(pred: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .expect("results/ is committed")
        .map(|e| e.unwrap().path())
        .filter(|p| pred(p.file_name().unwrap().to_str().unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn committed_results_reprint_to_their_exact_bytes() {
    let files = result_files(|name| name.ends_with(".json"));
    assert!(!files.is_empty(), "no results/*.json files found");
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let value: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut again = serde_json::to_string_pretty(&value).unwrap();
        if text.ends_with('\n') {
            again.push('\n');
        }
        assert_eq!(again, text, "{} does not re-print to its bytes", path.display());
    }
    let ledger = std::fs::read_to_string(results_dir().join("BENCH_history.jsonl")).unwrap();
    for (i, line) in ledger.lines().enumerate() {
        let value: Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("ledger line {}: {e}", i + 1));
        assert_eq!(serde_json::to_string(&value).unwrap(), line, "ledger line {}", i + 1);
    }
}

#[test]
fn committed_obs_snapshots_survive_the_typed_round_trip() {
    let files = result_files(|name| name.starts_with("OBS_") && name.ends_with(".json"));
    assert!(!files.is_empty(), "no results/OBS_*.json files found");
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let snap: Snapshot = serde_json::from_str(&text).unwrap();
        let manifest = Manifest::from_file_json(&value);
        let again = wym_obs::sink::file_json(&snap, manifest.as_ref());
        assert_eq!(again, text, "{} changed", path.display());
    }
}

#[test]
fn empty_histograms_read_back_with_empty_sentinels() {
    let rec = wym_obs::Recorder::new_enabled();
    rec.hist_observe("h", Some(&[1.0, 2.0]), 0.5);
    let mut snap = rec.snapshot();
    snap.histograms.push(("zz_empty".into(), wym_obs::Histogram::new(&[1.0])));
    let text = serde_json::to_string_pretty(&snap).unwrap();
    assert!(text.contains("\"min\": null") && text.contains("\"max\": null"), "{text}");
    let back: Snapshot = serde_json::from_str(&text).unwrap();
    let empty = back.histogram("zz_empty").unwrap();
    assert_eq!((empty.count(), empty.sum()), (0, 0.0));
    assert_eq!((empty.min(), empty.max()), (f64::INFINITY, f64::NEG_INFINITY));
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);

    let sketch = ModelSketch::new();
    let back: ModelSketch =
        serde_json::from_str(&serde_json::to_string(&sketch).unwrap()).unwrap();
    assert_eq!(back, sketch);
    assert_eq!((back.scores().min(), back.scores().max()), (f64::INFINITY, f64::NEG_INFINITY));

    // A window frame whose histogram is empty and has no `sum` at all.
    let ring: Windowed = serde_json::from_str(
        r#"{"capacity": 1, "advances": 0, "frames": [{"epoch": 0, "counters": {},
            "histograms": {"h": {"bounds": [1.0], "counts": [0, 0], "min": null, "max": null}}}]}"#,
    )
    .unwrap();
    let h = ring.frames().next().unwrap().hists.get("h").unwrap();
    assert_eq!((h.count(), h.sum()), (0, 0.0));
    assert_eq!((h.min(), h.max()), (f64::INFINITY, f64::NEG_INFINITY));
}

#[test]
fn fractional_integers_are_rejected_by_every_reader() {
    let rec = wym_obs::Recorder::new_enabled();
    rec.record_span("fit", 5);
    rec.enable_windows(2);
    rec.counter_add("c", 1);
    let text = serde_json::to_string(&rec.snapshot()).unwrap();
    // A span `count`, a counter, and a window epoch.
    let cases = [
        ("\"count\":1,", "\"count\":2.7,"),
        ("\"c\":1}", "\"c\":2.7}"),
        ("\"epoch\":0", "\"epoch\":2.7"),
    ];
    for (from, to) in cases {
        assert!(text.contains(from), "{from} not in {text}");
        let bad = text.replacen(from, to, 1);
        assert!(serde_json::from_str::<Snapshot>(&bad).is_err(), "accepted {to}");
    }
    let sketch = serde_json::to_string(&ModelSketch::new()).unwrap();
    let bad = sketch.replacen("\"n\":0", "\"n\":2.7", 1);
    assert!(serde_json::from_str::<ModelSketch>(&bad).is_err());

    // The trace summarizer is lenient by design, but it must not truncate
    // a fractional integer field into a plausible value.
    let trace = r#"{"traceEvents": [{"name": "thread_name", "ph": "M", "tid": 2.7,
        "args": {"name": "lane"}}], "metadata": {"captured_unix_ms": 2.7,
        "threads": [{"tid": 0, "dropped": 2.7, "open": []}]}}"#;
    let summary = wym_obs::chrome::summarize(&serde_json::from_str(trace).unwrap()).unwrap();
    assert!(!summary.contains("unix 2 ms"), "{summary}");
    assert!(!summary.contains("dropped:  2 "), "{summary}");
}
