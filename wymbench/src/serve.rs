//! `serve-tab`: one closed-loop client calling `WymModel::explain` per pair
//! on unseen T-AB pairs, against a model loaded from a memory-mapped WYMA
//! artifact. One thread.

use crate::replay::{self, PairStats};
use crate::trace;
use crate::util::{self, Report};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wym_artifact::LoadMode;
use wym_core::pipeline::EmPredictor;
use wym_core::{Explanation, WymModel};
use wym_data::RecordPair;

/// Distinct unseen pairs the client cycles through.
const POOL_PAIRS: usize = 3000;
const SETUPS: usize = 3;
/// Passes over the pool at least, so each pair's best time has repeats.
const MIN_ROUNDS: usize = 3;

/// A model saved as WYMA and loaded back: the set-up of both serving
/// workloads.
pub struct Served {
    pub model: WymModel,
    pub artifact_bytes: u64,
}

/// Fits `name`'s capped slice on `threads` threads, saves the model to
/// `path` and memory-maps it back.
pub fn fit_save_load(name: &str, seed: u64, threads: usize, path: &Path) -> Result<Served, String> {
    let (data, split) = util::labeled_slice(name, seed);
    let model = WymModel::fit(&data, &split, util::recipe(seed, threads));
    let manifest = wym_obs::Manifest::new("wymbench")
        .with_seed(seed)
        .with_threads(threads);
    wym_artifact::save_model_with_sketch(path, &model, &manifest, None)
        .map_err(|e| e.to_string())?;
    let loaded = wym_artifact::load_model(path, LoadMode::Mmap).map_err(|e| e.to_string())?;
    Ok(Served {
        model: loaded.model,
        artifact_bytes: loaded.file_bytes,
    })
}

/// Saves and reloads `model` three times under `artifact.save` /
/// `artifact.load` spans and reports their mean cost and the file size.
pub fn trace_artifact(r: &mut Report, model: &WymModel, path: &Path, bytes: u64) {
    const REPS: u32 = 3;
    let manifest = wym_obs::Manifest::new("wymbench");
    trace::set_enabled(true);
    for req in 1..=REPS {
        let _root = trace::root("roundtrip", u64::from(req));
        let saved = {
            let _s = trace::span("artifact.save");
            wym_artifact::save_model_with_sketch(path, model, &manifest, None)
        };
        let loaded = {
            let _s = trace::span("artifact.load");
            saved.and_then(|_| wym_artifact::load_model(path, LoadMode::Mmap))
        };
        r.check("WYMA save and mmap load succeed", loaded.is_ok());
    }
    trace::set_enabled(false);
    let t = trace::Trace::new(trace::take());
    r.layer(
        "artifact.save_ms",
        1e3 * t.total_s("artifact.save") / f64::from(REPS),
        "ms",
    );
    r.layer(
        "artifact.load_ms",
        1e3 * t.total_s("artifact.load") / f64::from(REPS),
        "ms",
    );
    r.layer("artifact.bytes", bytes as f64, "bytes");
    let by_layer = t.self_by_layer();
    r.layer(
        "artifact.self_ms",
        1e3 * by_layer.get("artifact").copied().unwrap_or(0.0) / f64::from(REPS),
        "ms",
    );
    r.spans.extend(t.spans);
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &Path) -> Report {
    let mut r = Report::default();
    let path: PathBuf = out.join(format!("serve-tab-{seed}.wyma"));
    let ((served, pool), setup_s) = util::repeat_setup(SETUPS, || {
        let served = fit_save_load("T-AB", seed, 1, &path)?;
        Ok((served, util::unseen_pairs("T-AB", seed, POOL_PAIRS)))
    });
    r.setup_s = setup_s;
    let model = &served.model;
    r.note(format!(
        "model: {} B WYMA, mmap-loaded; client pool: {} unseen T-AB pairs",
        served.artifact_bytes,
        pool.len()
    ));

    // Closed loop: the next request goes out when the previous returns.
    let mut verdicts: Vec<Option<(bool, f32)>> = vec![None; pool.len()];
    let mut consistent = true;
    let mut best = util::Best::new(pool.len());
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < Duration::from_secs_f64(seconds) || i < MIN_ROUNDS * pool.len() {
        let k = i % pool.len();
        let (ex, s) = util::timed(|| model.explain(&pool[k]));
        r.op(ex.is_some());
        if let Some(ex) = ex {
            r.ops += 1;
            best.observe(k, s);
            let v = (ex.prediction, ex.probability);
            match verdicts[k] {
                None => verdicts[k] = Some(v),
                Some(w) => consistent &= w.0 == v.0 && w.1.to_bits() == v.1.to_bits(),
            }
        }
        i += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    r.best_s = best.times();
    r.throughput_per_s = r.best_s.len() as f64 / r.best_s.iter().sum::<f64>();

    // Every per-pair verdict and probability equals the batched path's.
    let batched = model.proba_batch(&pool);
    let agree = verdicts.iter().zip(&batched).all(|(v, &p)| {
        v.is_none_or(|(label, q)| label == (p >= 0.5) && q.to_bits() == p.to_bits())
    });
    r.check(
        "repeated requests for a pair get identical answers",
        consistent,
    );
    r.check("per-pair explain equals the batched path", agree);
    r.quality = util::f1(&batched, &pool);
    r.named("explain_p50_us", 1e6 * util::quantile(&r.best_s, 0.5), "us");
    r.named(
        "explain_p99_us",
        1e6 * util::quantile(&r.best_s, 0.99),
        "us",
    );
    r.named("explain_pairs_per_s", r.throughput_per_s, "pairs/s");
    r.named(
        "observed_explain_pairs_per_s",
        r.ops as f64 / loop_s,
        "pairs/s",
    );
    r.named("match_f1", r.quality, "ratio");

    if traced {
        trace_artifact(&mut r, model, &path, served.artifact_bytes);
        trace_requests(&mut r, model, &pool, &batched, best.per_op(), seconds);
    }
    let _ = std::fs::remove_file(&path);
    r
}

/// The explain path of one request, layer by layer, as
/// `WymModel::explain` runs it.
fn replay_explain(model: &WymModel, pair: &RecordPair, stats: &PairStats, req: u64) -> Explanation {
    let _root = trace::root("request", req);
    let cfg = model.config();
    let (rec, units) = replay::process(
        model.tokenizer(),
        model.embedder(),
        cfg,
        cfg.n_threads,
        pair,
        stats,
    );
    let raw = {
        let _s = trace::span("score.score_units");
        model.scorer().score_units(&rec, &units)
    };
    let rel = wym_core::rules::apply_rules(&cfg.rules, &rec, &units, &raw);
    let probability = {
        let _s = trace::span("classify.predict_proba");
        model.matcher().predict_proba(&units, &rel)
    };
    let impacts = {
        let _s = trace::span("explain.impacts");
        model.matcher().impacts(&units, &rel)
    };
    let _s = trace::span("explain.build");
    Explanation::build(
        &rec,
        model.attr_names(),
        &units,
        &rel,
        &impacts,
        probability >= 0.5,
        probability,
    )
}

fn trace_requests(
    r: &mut Report,
    model: &WymModel,
    pool: &[RecordPair],
    batched: &[f32],
    untraced_best_s: &[f64],
    seconds: f64,
) {
    // Stopwatch against the program's own `process` spans.
    replay::program_recording_on();
    let mut watch = 0.0;
    for p in pool.iter().take(500) {
        watch += util::timed(|| model.process(p)).1;
    }
    let process_span_s = replay::program_span_s(&wym_obs::snapshot(), "process");
    wym_obs::reset();

    trace::set_enabled(true);
    let stats = PairStats::default();
    let mut best = util::Best::new(pool.len());
    let mut n = 0usize;
    let mut same = true;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds / 2.0) || n < pool.len() {
        let k = n % pool.len();
        let (ex, s) = util::timed(|| replay_explain(model, &pool[k], &stats, n as u64 + 1));
        r.op(ex.is_some());
        let Some(ex) = ex else { break };
        n += 1;
        best.observe(k, s);
        same &= ex.probability.to_bits() == batched[k].to_bits();
        if k < 100 {
            let direct = model.explain(&pool[k]);
            same &= direct.units.len() == ex.units.len()
                && direct
                    .units
                    .iter()
                    .zip(&ex.units)
                    .all(|(a, b)| a.impact.to_bits() == b.impact.to_bits());
        }
    }
    trace::set_enabled(false);
    wym_obs::set_enabled(false);
    let t = trace::Trace::new(trace::take());
    r.check("traced replay explains like WymModel::explain", same);

    let requests = n;
    let n = n.max(1) as f64;
    r.layer(
        "tokenize.us_per_pair",
        replay::mean_us(&t, "tokenize.attributes"),
        "us",
    );
    r.layer(
        "embed.us_per_pair",
        replay::mean_us(&t, "embed.from_tokens"),
        "us",
    );
    r.layer(
        "pair.us_per_pair",
        replay::mean_us(&t, "pair.discover_units"),
        "us",
    );
    stats.report(r);
    r.layer(
        "score.us_per_pair",
        replay::mean_us(&t, "score.score_units"),
        "us",
    );
    let rows = stats.units() as f64;
    r.layer("nn.rows_per_forward", rows / n, "count");
    let flops = model
        .scorer()
        .model()
        .map_or(0.0, replay::forward_flops_per_row)
        * rows;
    r.layer(
        "nn.forward_gflops",
        flops / t.total_s("score.score_units").max(1e-12) / 1e9,
        "GFLOP/s",
    );
    r.layer(
        "classify.us_per_pair",
        replay::mean_us(&t, "classify.predict_proba"),
        "us",
    );
    r.layer(
        "explain.us_per_pair",
        1e6 * (t.total_s("explain.impacts") + t.total_s("explain.build")) / n,
        "us",
    );
    r.layer(
        "obs.trace_overhead_pct",
        replay::overhead_pct(best.per_op(), untraced_best_s),
        "%",
    );
    r.layer(
        "obs.span_gap_pct",
        replay::gap_pct(&[(watch, process_span_s)]),
        "%",
    );
    replay::self_times(t, requests, r);
}
