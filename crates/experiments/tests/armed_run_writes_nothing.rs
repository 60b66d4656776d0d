//! A fault-injected run (`--inject-panic` / `--inject-stall`) must leave
//! committed results alone: every results writer checks the injection
//! latch. Its own test binary, because it changes the working directory
//! and the process-wide latch.

use serde::Value;
use wym_obs::ring::{clear_injection, set_injection, Injection};

#[test]
fn armed_run_writes_no_results() {
    let dir = std::env::temp_dir().join(format!("wym_armed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();
    let row = Value::Array(vec![Value::object([("fit_s", Value::F64(2.15))])]);

    set_injection(Injection::Stall("no_such_span".into(), 1));
    wym_experiments::save_json("BENCH_timing", &row);
    wym_experiments::save_json("timing", &[1, 2, 3]);
    wym_experiments::append_bench_history("timing", std::slice::from_ref(&row));
    assert!(!dir.join("results").exists(), "an armed run wrote under results/");

    clear_injection();
    wym_experiments::save_json("BENCH_timing", &row);
    wym_experiments::save_json("timing", &[1, 2, 3]);
    assert!(dir.join("results/BENCH_timing.json").exists());
    assert!(dir.join("results/timing.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
