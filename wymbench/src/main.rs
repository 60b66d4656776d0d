//! The WYM benchmark: four workloads measured from outside through the
//! workspace's public APIs.
//!
//! ```text
//! cargo run --release --manifest-path wymbench/Cargo.toml -- \
//!     --workload <train-tab|serve-tab|batch-swa|dedup-synth> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints its end-to-end
//! metrics; `--trace 1` measures it the same way, then replays it through
//! each layer's public functions under the benchmark's own spans and prints
//! the per-layer metrics. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Files go only under
//! `wymbench/out/`. README.md maps every metric to its layer and workload.

mod batch;
mod dedup;
mod replay;
mod serve;
mod trace;
mod train;
mod util;

use std::path::PathBuf;
use util::{Metric, Report};

const WORKLOADS: &[&str] = &["train-tab", "serve-tab", "batch-swa", "dedup-synth"];

/// Every per-layer metric with its unit, in print order. A workload that
/// does not reach a layer reports 0 for it.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("tokenize.us_per_pair", "us"),
    ("embed.us_per_pair", "us"),
    ("embed.fit_s", "s"),
    ("pair.us_per_pair", "us"),
    ("pair.discover_s", "s"),
    ("pair.units_per_pair", "count"),
    ("pair.sim_entries_per_pair", "count"),
    ("pair.i8_screen_share", "ratio"),
    ("score.us_per_pair", "us"),
    ("score.batch_us_per_pair", "us"),
    ("score.fit_s", "s"),
    ("score.train_rows", "count"),
    ("nn.fit_s", "s"),
    ("nn.train_gflops", "GFLOP/s"),
    ("nn.rows_per_forward", "count"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("classify.us_per_pair", "us"),
    ("classify.pool_fit_s", "s"),
    ("explain.us_per_pair", "us"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("par.efficiency", "ratio"),
    ("block.index_s", "s"),
    ("block.lexical_s", "s"),
    ("block.ann_index_s", "s"),
    ("block.ann_s", "s"),
    ("block.lexical_pairs", "count"),
    ("block.ann_pairs", "count"),
    ("block.candidate_pairs", "count"),
    ("block.pair_precision", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.span_gap_pct", "%"),
    ("tokenize.self_ms", "ms"),
    ("embed.self_ms", "ms"),
    ("pair.self_ms", "ms"),
    ("score.self_ms", "ms"),
    ("nn.self_ms", "ms"),
    ("classify.self_ms", "ms"),
    ("explain.self_ms", "ms"),
    ("artifact.self_ms", "ms"),
    ("par.self_ms", "ms"),
    ("block.self_ms", "ms"),
    ("op.self_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wymbench: {e}");
        eprintln!(
            "usage: wymbench --workload <{}> --seed N --seconds S --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        util::fail(&format!("cannot create {}: {e}", out.display()));
    }
    // The flight recorder users run with; its panic and stall dumps land in
    // the benchmark's own output directory.
    wym_obs::flight_install(wym_obs::FlightOptions {
        dump_dir: out.display().to_string(),
        stem: "wymbench".to_string(),
        ..wym_obs::FlightOptions::default()
    });
    let kernel = wym_linalg::kernels::active_name();
    let threads = wym_par::resolve_threads(0);
    println!(
        "# wymbench workload={} seed={} seconds={} trace={} kernel={kernel} (WYM_KERNEL={}) \
         threads={threads} flight={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("WYM_KERNEL").unwrap_or_else(|_| "auto".to_string()),
        if std::env::var("WYM_FLIGHT").is_ok_and(|v| v == "off" || v == "0") {
            "off"
        } else {
            "on"
        },
    );

    let (s, trace) = (args.seconds, args.trace);
    let mut r: Report = match args.workload.as_str() {
        "train-tab" => train::run(args.seed, s, trace, &out),
        "serve-tab" => serve::run(args.seed, s, trace, &out),
        "batch-swa" => batch::run(args.seed, s, trace, &out),
        _ => dedup::run(args.seed, s, trace),
    };
    let peak_rss_mb = util::peak_rss_mb();
    // The metrics BENCHMARK.json gates. Tail latency is printed below but
    // not gated: on a shared host its run-to-run spread exceeds any bound
    // the gate allows.
    let end_to_end = vec![
        Metric {
            name: "setup_s".into(),
            value: r.setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "throughput_per_s".into(),
            value: r.throughput_per_s,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms".into(),
            value: 1e3 * util::quantile(&r.best_s, 0.5),
            unit: "ms",
        },
        Metric {
            name: "quality".into(),
            value: r.quality,
            unit: "ratio",
        },
    ];
    let (tail_pct, tail_s) = util::tail(&r.best_s);
    r.named("setup_s", r.setup_s, "s");
    r.named("peak_rss_mb", peak_rss_mb, "MB");
    r.named(
        "error_rate",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    r.named(&format!("latency_p{tail_pct}_ms"), 1e3 * tail_s, "ms");

    for note in &r.notes {
        println!("# {note}");
    }
    for (name, ok) in &r.checks {
        println!("# check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "# {} ops over {} distinct inputs; latencies are each input's best time, the tail is \
         the highest of p99/p90 with ten samples beyond it",
        r.ops,
        r.best_s.len()
    );
    print_table(&format!("{} metrics", args.workload), &r.named);
    print_table("end-to-end (gated, generic names)", &end_to_end);

    let metrics = if trace {
        let layers: Vec<Metric> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: r
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
                unit,
            })
            .collect();
        print_table("per-layer (traced replay)", &layers);
        let path = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace::Trace::new(std::mem::take(&mut r.spans)).write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("wymbench: cannot write {}: {e}", path.display()),
        }
        layers
    } else {
        end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0 && r.checks.iter().all(|c| c.1),
        r.attempted.max(1),
        r.failed,
        json_metrics(&metrics)
    );
}
