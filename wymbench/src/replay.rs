//! Traced replay helpers: the per-record pipeline re-run through the public
//! function of each layer, one benchmark span around each call.

use crate::trace;
use crate::util::{Metric, Report};
use std::sync::atomic::{AtomicU64, Ordering};
use wym_core::pipeline::SCORE_CHUNK_RECORDS;
use wym_core::rules::apply_rules;
use wym_core::{discover_units_with_threads, DecisionUnit, TokenizedRecord, WymConfig};
use wym_data::RecordPair;
use wym_embed::Embedder;
use wym_nn::Mlp;
use wym_tokenize::Tokenizer;

/// Shape counters of the records the replay paired.
#[derive(Default)]
pub struct PairStats {
    records: AtomicU64,
    units: AtomicU64,
    entries: AtomicU64,
    screened_entries: AtomicU64,
}

impl PairStats {
    fn observe(&self, rec: &TokenizedRecord, units: usize) {
        let entries = (rec.left.token_count() * rec.right.token_count()) as u64;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units as u64, Ordering::Relaxed);
        self.entries.fetch_add(entries, Ordering::Relaxed);
        // The same gate unit discovery applies before it int8-screens the
        // similarity fill.
        if wym_core::pairing::worth_i8_screening(rec.left.embeds.dim(), entries as usize) {
            self.screened_entries.fetch_add(entries, Ordering::Relaxed);
        }
    }

    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// Adds `pair.units_per_pair`, `pair.sim_entries_per_pair` and
    /// `pair.i8_screen_share` (share of similarity entries in records the
    /// int8 screen runs on).
    pub fn report(&self, r: &mut Report) {
        let n = self.records().max(1) as f64;
        let entries = self.entries.load(Ordering::Relaxed);
        r.layer("pair.units_per_pair", self.units() as f64 / n, "count");
        r.layer("pair.sim_entries_per_pair", entries as f64 / n, "count");
        r.layer(
            "pair.i8_screen_share",
            self.screened_entries.load(Ordering::Relaxed) as f64 / entries.max(1) as f64,
            "ratio",
        );
    }
}

/// Tokenize → embed → discover units for one pair, as
/// `TokenizedRecord::from_pair` + `discover_units_with_threads` do.
pub fn process(
    tokenizer: &Tokenizer,
    embedder: &Embedder,
    cfg: &WymConfig,
    threads: usize,
    pair: &RecordPair,
    stats: &PairStats,
) -> (TokenizedRecord, Vec<DecisionUnit>) {
    let (left, right) = {
        let _s = trace::span("tokenize.attributes");
        (
            tokenizer.tokenize_attributes(&pair.left.values),
            tokenizer.tokenize_attributes(&pair.right.values),
        )
    };
    let rec = {
        let _s = trace::span("embed.from_tokens");
        TokenizedRecord::from_tokens(pair.id, Some(pair.label), left, right, embedder)
    };
    let units = {
        let _s = trace::span("pair.discover_units");
        discover_units_with_threads(&rec, &cfg.discovery, threads)
    };
    stats.observe(&rec, units.len());
    (rec, units)
}

/// Relevance scores of processed records through one batched scorer call
/// per `SCORE_CHUNK_RECORDS` records, rules applied, as the fit and batch
/// paths do.
pub fn score_chunks(
    scorer: &wym_core::scorer::RelevanceScorer,
    cfg: &WymConfig,
    proc: &[(TokenizedRecord, Vec<DecisionUnit>)],
) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(proc.len());
    for chunk in proc.chunks(SCORE_CHUNK_RECORDS) {
        let batch: Vec<(&TokenizedRecord, &[DecisionUnit])> =
            chunk.iter().map(|(r, u)| (r, u.as_slice())).collect();
        let raw = {
            let _s = trace::span("score.score_batch");
            scorer.score_batch(&batch)
        };
        out.extend(
            chunk
                .iter()
                .zip(raw)
                .map(|((r, u), raw)| apply_rules(&cfg.rules, r, u, &raw)),
        );
    }
    out
}

/// Floating-point operations of one forward pass of one row through the
/// MLP, computed from the layer shapes: `2·in·out` per dense layer.
pub fn forward_flops_per_row(mlp: &Mlp) -> f64 {
    mlp.layers()
        .iter()
        .map(|l| 2.0 * (l.in_dim() * l.out_dim()) as f64)
        .sum()
}

/// `100 · Σ|stopwatch − span| / Σ stopwatch` over `(stopwatch s, program
/// span s)` pairs.
pub fn gap_pct(pairs: &[(f64, f64)]) -> f64 {
    let den: f64 = pairs.iter().map(|p| p.0).sum();
    let num: f64 = pairs.iter().map(|p| (p.0 - p.1).abs()).sum();
    if den > 0.0 {
        100.0 * num / den
    } else {
        0.0
    }
}

/// `100 · (Σ traced / Σ untraced − 1)` over the ops both runs timed.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let (t, u) = traced
        .iter()
        .zip(untraced)
        .filter(|(t, u)| t.is_finite() && u.is_finite())
        .fold((0.0, 0.0), |(a, b), (t, u)| (a + t, b + u));
    if u > 0.0 {
        100.0 * (t / u - 1.0)
    } else {
        0.0
    }
}

/// Total seconds of the program's own spans whose path is `path` or ends
/// in `/path`.
pub fn program_span_s(snap: &wym_obs::Snapshot, path: &str) -> f64 {
    let suffix = format!("/{path}");
    snap.spans
        .iter()
        .filter(|s| s.path == path || s.path.ends_with(&suffix))
        .map(|s| s.total_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// A fresh enabled recorder for the program's own spans.
pub fn program_recording_on() {
    wym_obs::reset();
    wym_obs::set_enabled(true);
}

/// Adds `<layer>.self_ms` (self time per replayed op) for every layer the
/// trace saw, and keeps its spans for the run's trace file.
pub fn self_times(trace: trace::Trace, ops: usize, r: &mut Report) {
    for (layer, s) in trace.self_by_layer() {
        let name = if layer == "(root)" {
            "op".to_string()
        } else {
            layer.to_string()
        };
        r.layers.push(Metric {
            name: format!("{name}.self_ms"),
            value: 1e3 * s / ops.max(1) as f64,
            unit: "ms",
        });
    }
    r.spans.extend(trace.spans);
}

/// Mean duration of the spans named `name`, in microseconds.
pub fn mean_us(trace: &trace::Trace, name: &str) -> f64 {
    1e6 * trace.total_s(name) / trace.count(name).max(1) as f64
}
