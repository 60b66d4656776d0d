//! `batch-swa`: a full-size unseen S-WA stream classified in request
//! batches through `process_many_parallel` + `predict_proba_batch` on every
//! core, against a model round-tripped through WYMA.

use crate::replay::{self, PairStats};
use crate::serve::{fit_save_load, trace_artifact};
use crate::trace;
use crate::util::{self, Report};
use std::path::Path;
use std::time::{Duration, Instant};
use wym_core::pipeline::SCORE_CHUNK_RECORDS;
use wym_core::{DecisionUnit, TokenizedRecord, WymModel};
use wym_data::RecordPair;

/// Upper bound on pairs per classify request.
const BATCH_PAIRS: usize = 1024;
const SETUPS: usize = 3;

/// A processed pair with its relevance scores.
type Scored = (TokenizedRecord, Vec<DecisionUnit>, Vec<f32>);
/// Passes over the stream at least, so each request's best time has
/// repeats.
const MIN_PASSES: usize = 3;

/// The batched path: per-record work and scoring fanned out over
/// `threads`, then one classifier call.
fn classify(model: &WymModel, pairs: &[RecordPair], threads: usize) -> Vec<f32> {
    let proc = model.process_many_parallel(pairs, threads);
    let rows: Vec<(&[DecisionUnit], &[f32])> = proc
        .iter()
        .map(|p| (p.units.as_slice(), p.relevances.as_slice()))
        .collect();
    model.matcher().predict_proba_batch(&rows)
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &Path) -> Report {
    let mut r = Report::default();
    let threads = wym_par::resolve_threads(0);
    let path = out.join(format!("batch-swa-{seed}.wyma"));
    let ((served, stream), setup_s) = util::repeat_setup(SETUPS, || {
        let served = fit_save_load("S-WA", seed, threads, &path)?;
        Ok((served, util::unseen_pairs("S-WA", seed, usize::MAX)))
    });
    r.setup_s = setup_s;
    let model = &served.model;
    // Near-equal requests of at most BATCH_PAIRS pairs.
    let per_batch = stream.len().div_ceil(stream.len().div_ceil(BATCH_PAIRS));
    let batches: Vec<&[RecordPair]> = stream.chunks(per_batch).collect();
    r.note(format!(
        "stream: {} unseen S-WA pairs in {} requests, {threads} threads",
        stream.len(),
        batches.len()
    ));

    // Closed loop over the stream, one request after another; every pass
    // must reproduce the first pass's output.
    let mut first: Vec<Option<Vec<f32>>> = vec![None; batches.len()];
    let mut consistent = true;
    let mut best = util::Best::new(batches.len());
    let (mut pairs_done, mut busy_s) = (0usize, 0.0);
    let cpu0 = util::cpu_s();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < Duration::from_secs_f64(seconds) || i < MIN_PASSES * batches.len() {
        let b = i % batches.len();
        let (probas, s) = util::timed(|| classify(model, batches[b], threads));
        r.op(probas.is_some());
        i += 1;
        let Some(probas) = probas else {
            if r.failed > 10 {
                util::fail("classify keeps failing");
            }
            continue;
        };
        r.ops += 1;
        best.observe(b, s);
        busy_s += s;
        pairs_done += batches[b].len();
        match &first[b] {
            None => first[b] = Some(probas),
            Some(f) => consistent &= util::same_bits(f, &probas),
        }
    }
    let efficiency = (util::cpu_s() - cpu0) / (threads as f64 * start.elapsed().as_secs_f64());
    r.best_s = best.times();
    r.throughput_per_s = stream.len() as f64 / best.per_op().iter().sum::<f64>();
    let nproc_out: Vec<f32> = first.into_iter().flatten().flatten().collect();
    r.check("repeated passes give identical output", consistent);
    let one_thread: Vec<f32> = batches.iter().flat_map(|b| classify(model, b, 1)).collect();
    r.check(
        "output at 1 thread equals output at nproc threads",
        util::same_bits(&one_thread, &nproc_out),
    );
    r.quality = util::f1(&nproc_out, &stream);
    r.named("classify_pairs_per_s", r.throughput_per_s, "pairs/s");
    r.named(
        "observed_classify_pairs_per_s",
        pairs_done as f64 / busy_s,
        "pairs/s",
    );
    r.named("match_f1", r.quality, "ratio");

    if traced {
        r.layer("par.efficiency", efficiency, "ratio");
        trace_artifact(&mut r, model, &path, served.artifact_bytes);
        trace_batches(
            &mut r,
            model,
            &batches,
            &nproc_out,
            threads,
            best.per_op(),
            seconds,
        );
    }
    let _ = std::fs::remove_file(&path);
    r
}

/// One request through the batch path, layer by layer: `wym_par` fans
/// `SCORE_CHUNK_RECORDS`-pair chunks out as `process_many_parallel` does,
/// each chunk is processed and scored in one forward pass as
/// `process_many_batched` does, then the classifier runs once.
fn replay_batch(
    model: &WymModel,
    pairs: &[RecordPair],
    threads: usize,
    stats: &PairStats,
    req: u64,
) -> Vec<f32> {
    let _root = trace::root("request", req);
    let cfg = model.config();
    let chunks: Vec<&[RecordPair]> = pairs.chunks(SCORE_CHUNK_RECORDS).collect();
    let scored: Vec<Vec<Scored>> = {
        let _s = trace::span("par.map_indexed");
        let parent = trace::current();
        wym_par::map_indexed(&chunks, threads, |_, chunk| {
            let _c = trace::span_under("par.chunk", parent);
            let proc: Vec<_> = chunk
                .iter()
                .map(|p| replay::process(model.tokenizer(), model.embedder(), cfg, 1, p, stats))
                .collect();
            let scores = replay::score_chunks(model.scorer(), cfg, &proc);
            proc.into_iter()
                .zip(scores)
                .map(|((rec, units), s)| (rec, units, s))
                .collect()
        })
    };
    let rows: Vec<(&[DecisionUnit], &[f32])> = scored
        .iter()
        .flatten()
        .map(|(_, u, s)| (u.as_slice(), s.as_slice()))
        .collect();
    let _s = trace::span("classify.predict_proba_batch");
    model.matcher().predict_proba_batch(&rows)
}

fn trace_batches(
    r: &mut Report,
    model: &WymModel,
    batches: &[&[RecordPair]],
    expected: &[f32],
    threads: usize,
    untraced_best_s: &[f64],
    seconds: f64,
) {
    // Stopwatch over whole `process_many_batched` calls on one thread
    // against the program's `process` and `score` spans inside them.
    replay::program_recording_on();
    let mut watch = 0.0;
    for chunk in batches[0].chunks(SCORE_CHUNK_RECORDS) {
        watch += util::timed(|| model.process_many_batched(chunk)).1;
    }
    let snap = wym_obs::snapshot();
    let inner_s = replay::program_span_s(&snap, "process") + replay::program_span_s(&snap, "score");
    wym_obs::reset();

    trace::set_enabled(true);
    let stats = PairStats::default();
    let mut best = util::Best::new(batches.len());
    let mut n = 0usize;
    let mut same = true;
    let mut pairs = 0usize;
    let start = Instant::now();
    while n < batches.len() || start.elapsed() < Duration::from_secs_f64(seconds / 2.0) {
        let b = n % batches.len();
        let (probas, s) =
            util::timed(|| replay_batch(model, batches[b], threads, &stats, n as u64 + 1));
        r.op(probas.is_some());
        let Some(probas) = probas else { break };
        let offset = b * batches[0].len();
        same &= util::same_bits(&expected[offset..offset + probas.len()], &probas);
        pairs += batches[b].len();
        n += 1;
        best.observe(b, s);
    }
    trace::set_enabled(false);
    wym_obs::set_enabled(false);
    let t = trace::Trace::new(trace::take());
    r.check("traced replay classifies like process_many_parallel", same);

    let per_pair = |name: &str| 1e6 * t.total_s(name) / pairs.max(1) as f64;
    r.layer(
        "tokenize.us_per_pair",
        per_pair("tokenize.attributes"),
        "us",
    );
    r.layer("embed.us_per_pair", per_pair("embed.from_tokens"), "us");
    r.layer("pair.us_per_pair", per_pair("pair.discover_units"), "us");
    stats.report(r);
    r.layer(
        "score.batch_us_per_pair",
        per_pair("score.score_batch"),
        "us",
    );
    let rows = stats.units() as f64;
    r.layer(
        "nn.rows_per_forward",
        rows / t.count("score.score_batch").max(1) as f64,
        "count",
    );
    let flops = model
        .scorer()
        .model()
        .map_or(0.0, replay::forward_flops_per_row)
        * rows;
    r.layer(
        "nn.forward_gflops",
        flops / t.total_s("score.score_batch").max(1e-12) / 1e9,
        "GFLOP/s",
    );
    r.layer(
        "classify.us_per_pair",
        per_pair("classify.predict_proba_batch"),
        "us",
    );
    r.layer(
        "obs.trace_overhead_pct",
        replay::overhead_pct(best.per_op(), untraced_best_s),
        "%",
    );
    r.layer(
        "obs.span_gap_pct",
        replay::gap_pct(&[(watch, inner_s)]),
        "%",
    );
    replay::self_times(t, n, r);
}
