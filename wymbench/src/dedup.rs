//! `dedup-synth`: `wym_block::block_table` on a synthetic deduplication
//! table with exact gold pairs, on every core.

use crate::replay;
use crate::trace;
use crate::util::{self, Report};
use std::time::{Duration, Instant};
use wym_block::{AnnIndex, BlockConfig, BlockOutput, SynthConfig, TokenIndex};
use wym_linalg::kernels;

/// Records in the table.
const RECORDS: usize = 100_000;
const MIN_CALLS: usize = 3;

/// True when `pairs` is what `block_table` promises: `i < j < n`, sorted
/// ascending, unique, and `checksum` is their fingerprint.
fn well_formed(out: &BlockOutput, n: usize) -> bool {
    out.pairs.iter().all(|&(i, j)| i < j && (j as usize) < n)
        && out.pairs.windows(2).all(|w| w[0] < w[1])
        && out.checksum == wym_block::pair_checksum(&out.pairs)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::default();
    let threads = wym_par::resolve_threads(0);
    let (table, setup_s) = util::repeat_setup(util::CHEAP_SETUPS, || {
        let table = wym_block::generate(&SynthConfig {
            n_records: RECORDS,
            seed,
            ..SynthConfig::default()
        });
        let texts: Vec<String> = table
            .records
            .iter()
            .map(wym_data::Entity::full_text)
            .collect();
        Ok((texts, table.gold))
    });
    r.setup_s = setup_s;
    let (texts, gold) = table;
    let config = BlockConfig {
        threads,
        ..BlockConfig::default()
    };
    r.note(format!(
        "table: {} records, {} gold duplicate pairs, {threads} threads",
        texts.len(),
        gold.len()
    ));

    let mut first: Option<BlockOutput> = None;
    let mut consistent = true;
    let mut call_s = Vec::new();
    let cpu0 = util::cpu_s();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) || call_s.len() < MIN_CALLS {
        let (out, s) = util::timed(|| wym_block::block_table(&texts, &config));
        r.op(out.is_some());
        let Some(out) = out else {
            if r.failed > MIN_CALLS as u64 {
                util::fail("block_table keeps failing");
            }
            continue;
        };
        call_s.push(s);
        match &first {
            None => {
                r.check(
                    "candidate pairs are sorted, unique and fingerprinted",
                    well_formed(&out, texts.len()),
                );
                first = Some(out);
            }
            Some(f) => consistent &= f.checksum == out.checksum && f.pairs == out.pairs,
        }
    }
    let efficiency = (util::cpu_s() - cpu0) / (threads as f64 * start.elapsed().as_secs_f64());
    let out = first.expect("at least one call completed");
    r.check("repeated calls give identical candidates", consistent);
    let best = call_s.iter().copied().fold(f64::INFINITY, f64::min);
    r.ops = call_s.len();
    r.best_s = vec![best];
    r.throughput_per_s = texts.len() as f64 / best;
    r.quality = wym_block::recall(&out.pairs, &gold);
    r.named("block_records_per_s", r.throughput_per_s, "records/s");
    r.named(
        "observed_block_records_per_s",
        (texts.len() * call_s.len()) as f64 / call_s.iter().sum::<f64>(),
        "records/s",
    );
    r.named("block_recall", r.quality, "ratio");
    r.note(format!(
        "candidates: {} pairs, checksum {:016x}",
        out.pairs.len(),
        out.checksum
    ));

    if traced {
        r.layer("par.efficiency", efficiency, "ratio");
        trace_block(&mut r, &texts, &gold, &config, &out, best);
    }
    r
}

/// `block_table` call by call: index build, lexical top-k, ANN build, ANN
/// candidates, then the same merge.
fn replay_block(texts: &[String], config: &BlockConfig) -> (BlockOutput, f64) {
    let _root = trace::root("block_table", 1);
    let imp = config.kernel.unwrap_or_else(kernels::active);
    let index = {
        let _s = trace::span("block.index");
        TokenIndex::build(
            texts,
            config.max_df_frac,
            config.min_df_cutoff,
            config.threads,
        )
    };
    let lexical = {
        let _s = trace::span("block.lexical");
        index.top_candidates(config.lexical_k, config.threads)
    };
    let ann_index = {
        let _s = trace::span("block.ann_index");
        AnnIndex::build(
            index.vocab(),
            index.all_record_tokens(),
            &config.ann,
            imp,
            config.threads,
        )
    };
    let (ann, ann_s) = {
        let _s = trace::span("block.ann");
        util::timed(|| ann_index.candidates(imp, config.threads))
    };
    let _s = trace::span("block.merge");
    let lexical_pairs: usize = lexical.iter().map(Vec::len).sum();
    let ann = ann.unwrap_or_default();
    let ann_pairs: usize = ann.iter().map(Vec::len).sum();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(lexical_pairs + ann_pairs);
    for (i, cands) in lexical.iter().enumerate() {
        let i = i as u32;
        pairs.extend(cands.iter().map(|&j| (i.min(j), i.max(j))));
    }
    for (i, cands) in ann.iter().enumerate() {
        pairs.extend(cands.iter().map(|&j| (i as u32, j)));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let checksum = wym_block::pair_checksum(&pairs);
    (
        BlockOutput {
            pairs,
            checksum,
            lexical_pairs,
            ann_pairs,
        },
        ann_s,
    )
}

fn trace_block(
    r: &mut Report,
    texts: &[String],
    gold: &[(u32, u32)],
    config: &BlockConfig,
    untraced: &BlockOutput,
    untraced_best_s: f64,
) {
    replay::program_recording_on();
    trace::set_enabled(true);
    let (out, replay_s) = util::timed(|| replay_block(texts, config));
    trace::set_enabled(false);
    let snap = wym_obs::snapshot();
    wym_obs::set_enabled(false);
    let t = trace::Trace::new(trace::take());
    r.op(out.is_some());
    let Some((out, ann_watch)) = out else {
        r.check("traced replay completes", false);
        return;
    };
    r.check(
        "block_table checksum equals the traced replay's",
        out.checksum == untraced.checksum,
    );

    r.layer("block.index_s", t.total_s("block.index"), "s");
    r.layer("block.lexical_s", t.total_s("block.lexical"), "s");
    r.layer("block.ann_index_s", t.total_s("block.ann_index"), "s");
    r.layer("block.ann_s", t.total_s("block.ann"), "s");
    r.layer("block.lexical_pairs", out.lexical_pairs as f64, "count");
    r.layer("block.ann_pairs", out.ann_pairs as f64, "count");
    r.layer("block.candidate_pairs", out.pairs.len() as f64, "count");
    let found = gold
        .iter()
        .filter(|g| out.pairs.binary_search(g).is_ok())
        .count();
    r.layer(
        "block.pair_precision",
        found as f64 / out.pairs.len().max(1) as f64,
        "ratio",
    );
    r.layer(
        "obs.trace_overhead_pct",
        100.0 * (replay_s / untraced_best_s - 1.0),
        "%",
    );
    r.layer(
        "obs.span_gap_pct",
        replay::gap_pct(&[(ann_watch, replay::program_span_s(&snap, "block_ann"))]),
        "%",
    );
    replay::self_times(t, 1, r);
}
