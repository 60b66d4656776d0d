//! `train-tab`: `WymModel::fit` on a capped T-AB slice, one thread, a
//! closed loop of fits.

use crate::replay::{self, PairStats};
use crate::trace;
use crate::util::{self, Report};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wym_core::matcher::ExplainableMatcher;
use wym_core::pipeline::EmPredictor;
use wym_core::scorer::{eq2_target, unit_features, RelevanceScorer, ScorerKind};
use wym_core::{DecisionUnit, TokenizedRecord, UnitKey, WymConfig, WymModel};
use wym_data::{EmDataset, RecordPair, SplitIndices};
use wym_embed::Embedder;
use wym_linalg::{Matrix, Rng64};
use wym_nn::{Mlp, MlpConfig};
use wym_tokenize::Tokenizer;

const MIN_FITS: usize = 3;
const EVAL_PAIRS: usize = 3000;

pub fn run(seed: u64, seconds: f64, traced: bool, out: &std::path::Path) -> Report {
    let mut r = Report::default();
    let ((data, split, eval), setup_s) = util::repeat_setup(util::CHEAP_SETUPS, || {
        let (data, split) = util::labeled_slice("T-AB", seed);
        Ok((data, split, util::unseen_pairs("T-AB", seed, EVAL_PAIRS)))
    });
    r.setup_s = setup_s;
    let cfg = util::recipe(seed, 1);
    let labeled = split.train.len() + split.val.len();
    let test: Vec<RecordPair> = split.test.iter().map(|&i| data.pairs[i].clone()).collect();
    r.note(format!(
        "T-AB slice: {} labeled pairs fitted per op ({} train, {} val), {} test, {} unseen eval pairs",
        labeled,
        split.train.len(),
        split.val.len(),
        test.len(),
        eval.len()
    ));

    // Closed loop of fits. Every fit of the same inputs must give the same
    // test verdicts.
    let start = Instant::now();
    let mut model: Option<WymModel> = None;
    let mut first: Option<Vec<f32>> = None;
    let mut fit_s = Vec::new();
    while start.elapsed() < Duration::from_secs_f64(seconds) || fit_s.len() < MIN_FITS {
        let (fitted, s) = util::timed(|| WymModel::fit(&data, &split, cfg.clone()));
        r.op(fitted.is_some());
        let Some(fitted) = fitted else {
            if r.failed > 2 * MIN_FITS as u64 {
                break;
            }
            continue;
        };
        fit_s.push(s);
        let probas = fitted.proba_batch(&test);
        match &first {
            None => first = Some(probas),
            Some(f) => r.check(
                "repeated fits give identical test verdicts",
                util::same_bits(f, &probas),
            ),
        }
        model = Some(fitted);
    }
    let Some(model) = model else {
        util::fail("no fit completed")
    };
    let best = fit_s.iter().copied().fold(f64::INFINITY, f64::min);
    r.ops = fit_s.len();
    r.best_s = vec![best];
    r.throughput_per_s = labeled as f64 / best;
    r.quality = util::f1(&model.proba_batch(&eval), &eval);
    r.named("train_pairs_per_s", r.throughput_per_s, "pairs/s");
    r.named(
        "observed_train_pairs_per_s",
        (labeled * fit_s.len()) as f64 / fit_s.iter().sum::<f64>(),
        "pairs/s",
    );
    r.named("match_f1", r.quality, "ratio");

    // The fitted model round-trips through WYMA to identical test verdicts.
    let path = out.join(format!("train-tab-{seed}.wyma"));
    let manifest = wym_obs::Manifest::new("wymbench").with_seed(seed);
    let roundtrip = wym_artifact::save_model_with_sketch(&path, &model, &manifest, None)
        .and_then(|_| wym_artifact::load_model(&path, wym_artifact::LoadMode::Mmap));
    let _ = std::fs::remove_file(&path);
    match roundtrip {
        Ok(loaded) => r.check(
            "WYMA round trip keeps test verdicts",
            util::same_bits(
                first.as_deref().unwrap_or_default(),
                &loaded.model.proba_batch(&test),
            ),
        ),
        Err(e) => {
            eprintln!("wymbench: WYMA round trip failed: {e}");
            r.check("WYMA round trip keeps test verdicts", false);
        }
    }

    if traced {
        trace_fit(
            &mut r,
            &data,
            &split,
            &cfg,
            &test,
            first.as_deref().unwrap_or_default(),
            best,
            seconds,
        );
    }
    r
}

/// What one replayed fit produced.
struct Replayed {
    tokenizer: Tokenizer,
    embedder: Embedder,
    scorer: RelevanceScorer,
    matcher: ExplainableMatcher,
    rows: usize,
    epochs_run: usize,
    forward_flops_per_row: f64,
}

#[allow(clippy::too_many_arguments)]
fn trace_fit(
    r: &mut Report,
    data: &EmDataset,
    split: &SplitIndices,
    cfg: &WymConfig,
    test: &[RecordPair],
    expected: &[f32],
    untraced_best_s: f64,
    seconds: f64,
) {
    // Stopwatch against the program's own `fit` span.
    replay::program_recording_on();
    let (_, fit_watch) = util::timed(|| WymModel::fit(data, split, cfg.clone()));
    let agree = wym_obs::snapshot();
    let program_score_train = replay::program_span_s(&agree, "fit/score_train");

    wym_obs::reset();
    trace::set_enabled(true);
    let stats = PairStats::default();
    let start = Instant::now();
    let mut replays = Vec::new();
    let mut last = None;
    while replays.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds / 2.0) {
        let req = replays.len() as u64 + 1;
        let (out, s) = util::timed(|| replay_fit(data, split, cfg, &stats, req));
        r.op(out.is_some());
        let Some(out) = out else { break };
        replays.push(s);
        last = Some(out);
    }
    trace::set_enabled(false);
    let program = wym_obs::snapshot();
    wym_obs::set_enabled(false);
    let t = trace::Trace::new(trace::take());
    let Some(rep) = last else {
        r.check("traced replay completes", false);
        return;
    };

    // The replayed components decide exactly like the fitted model.
    let probas: Vec<f32> = test
        .iter()
        .map(|p| {
            let (rec, units) = replay::process(
                &rep.tokenizer,
                &rep.embedder,
                cfg,
                1,
                p,
                &PairStats::default(),
            );
            let raw = rep.scorer.score_units(&rec, &units);
            let rel = wym_core::rules::apply_rules(&cfg.rules, &rec, &units, &raw);
            rep.matcher.predict_proba(&units, &rel)
        })
        .collect();
    r.check(
        "traced replay gives the fitted model's test verdicts",
        util::same_bits(expected, &probas),
    );

    let n = replays.len() as f64;
    let nn_fit_s = t.total_s("nn.fit") / n;
    r.layer("score.fit_s", t.total_s("score.fit") / n, "s");
    r.layer("nn.fit_s", nn_fit_s, "s");
    r.layer("score.train_rows", rep.rows as f64, "count");
    // Forward, weight gradient and input gradient of every layer, per row
    // and epoch: three GEMMs of equal shape.
    let train_flops = 3.0 * rep.forward_flops_per_row * (rep.rows * rep.epochs_run) as f64;
    r.layer(
        "nn.train_gflops",
        train_flops / nn_fit_s.max(1e-12) / 1e9,
        "GFLOP/s",
    );
    r.layer("embed.fit_s", t.total_s("embed.fit") / n, "s");
    r.layer(
        "classify.pool_fit_s",
        t.total_s("classify.matcher_fit") / n,
        "s",
    );
    r.layer("pair.discover_s", t.total_s("pair.discover") / n, "s");
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
    let best_replay = replays.iter().copied().fold(f64::INFINITY, f64::min);
    r.layer(
        "obs.trace_overhead_pct",
        100.0 * (best_replay / untraced_best_s - 1.0),
        "%",
    );
    r.layer(
        "obs.span_gap_pct",
        replay::gap_pct(&[
            (fit_watch, replay::program_span_s(&agree, "fit")),
            (t.total_s("score.fit") / n, program_score_train),
            (
                t.total_s("nn.fit"),
                replay::program_span_s(&program, "nn_fit"),
            ),
        ]),
        "%",
    );
    replay::self_times(t, replays.len(), r);
}

/// `WymModel::fit` stage by stage through the public function of each
/// layer. The scorer stage repeats `RelevanceScorer::fit` so that the MLP
/// training call (`wym_nn::train::fit`) gets a span of its own.
fn replay_fit(
    data: &EmDataset,
    split: &SplitIndices,
    cfg: &WymConfig,
    stats: &PairStats,
    req: u64,
) -> Replayed {
    let _root = trace::root("fit", req);
    let tokenizer = Tokenizer::default();
    let embed_train: Vec<_> = split
        .train
        .iter()
        .take(cfg.max_embed_train_records)
        .map(|&i| {
            let p = &data.pairs[i];
            let _s = trace::span("tokenize.attributes");
            (
                tokenizer.tokenize_attributes(&p.left.values),
                tokenizer.tokenize_attributes(&p.right.values),
                p.label,
            )
        })
        .collect();
    let embedder = {
        let _s = trace::span("embed.fit");
        Embedder::fit(cfg.embedder_kind, cfg.embed_dim, cfg.seed, &embed_train)
    };

    let (train_proc, val_proc) = {
        let _s = trace::span("pair.discover");
        let process = |idx: &[usize]| -> Vec<(TokenizedRecord, Vec<DecisionUnit>)> {
            idx.iter()
                .map(|&i| replay::process(&tokenizer, &embedder, cfg, 1, &data.pairs[i], stats))
                .collect()
        };
        (process(&split.train), process(&split.val))
    };

    let (scorer, rows, epochs_run, forward_flops_per_row) = {
        let _s = trace::span("score.fit");
        let mut scorer_cfg = cfg.scorer.clone();
        scorer_cfg.seed = cfg.seed;
        assert_eq!(
            scorer_cfg.kind,
            ScorerKind::Neural,
            "the recipe trains the neural scorer"
        );
        // Eq. 3: one training row per unit occurrence, its target the mean
        // Eq. 2 target of its unit key.
        let mut sums: HashMap<UnitKey, (f64, usize)> = HashMap::new();
        for (rec, units) in &train_proc {
            let label = rec.label.expect("training records are labeled");
            for u in units {
                let e = sums.entry(u.key(rec)).or_insert((0.0, 0));
                e.0 += f64::from(eq2_target(u, label, scorer_cfg.alpha, scorer_cfg.beta));
                e.1 += 1;
            }
        }
        let mut rows: Vec<(Vec<f32>, f32)> = Vec::new();
        for (rec, units) in &train_proc {
            for u in units {
                let (sum, count) = sums[&u.key(rec)];
                rows.push((unit_features(rec, u), (sum / count as f64) as f32));
            }
        }
        if rows.len() > scorer_cfg.max_rows {
            let mut rng = Rng64::new(scorer_cfg.seed ^ 0x5C0E);
            let keep = rng.sample_indices(rows.len(), scorer_cfg.max_rows);
            rows = keep
                .into_iter()
                .map(|i| std::mem::take(&mut rows[i]))
                .collect();
        }
        let dim = rows[0].0.len();
        let mut x = Matrix::zeros(0, dim);
        let mut y = Matrix::zeros(0, 1);
        for (f, t) in &rows {
            x.push_row(f);
            y.push_row(&[*t]);
        }
        let mut mlp = Mlp::new(&MlpConfig::scorer(dim, scorer_cfg.seed));
        let mut train = scorer_cfg.train.clone();
        train.seed = scorer_cfg.seed;
        let report = {
            let _s = trace::span("nn.fit");
            wym_nn::train::fit(&mut mlp, &x, &y, &train)
        };
        let flops = replay::forward_flops_per_row(&mlp);
        (
            RelevanceScorer::from_parts(scorer_cfg, Some(mlp)),
            rows.len(),
            report.epochs_run,
            flops,
        )
    };

    let train_scores = replay::score_chunks(&scorer, cfg, &train_proc);
    let val_scores = replay::score_chunks(&scorer, cfg, &val_proc);
    let train_rows = labeled_rows(&train_proc, &train_scores);
    let val_rows = labeled_rows(&val_proc, &val_scores);
    let mut matcher_cfg = cfg.matcher.clone();
    matcher_cfg.n_threads = cfg.n_threads;
    let matcher = {
        let _s = trace::span("classify.matcher_fit");
        ExplainableMatcher::fit(&matcher_cfg, data.schema.len(), &train_rows, &val_rows)
    };
    Replayed {
        tokenizer,
        embedder,
        scorer,
        matcher,
        rows,
        epochs_run,
        forward_flops_per_row,
    }
}

/// The matcher's `(units, scores, label)` training rows.
fn labeled_rows<'a>(
    proc: &'a [(TokenizedRecord, Vec<DecisionUnit>)],
    scores: &'a [Vec<f32>],
) -> Vec<(&'a [DecisionUnit], &'a [f32], bool)> {
    proc.iter()
        .zip(scores)
        .map(|((r, u), s)| (u.as_slice(), s.as_slice(), r.label.unwrap_or(false)))
        .collect()
}
