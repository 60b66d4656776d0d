//! Shared pieces: the training recipe, input generation, statistics,
//! process counters and the per-run report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wym_core::WymConfig;
use wym_data::{magellan, split::paper_split, EmDataset, RecordPair, SplitIndices};
use wym_nn::TrainConfig;

/// Labeled pairs per training slice (label-stratified subsample).
pub const CAP: usize = 400;

/// Salt that moves the generator seed of unseen evaluation pairs away from
/// the training slice's, so evaluation records are new entities.
const UNSEEN_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The experiment harness's default recipe: Siamese embedder at dim 64,
/// the scorer MLP trained 20 epochs at batch 256, the full classifier pool.
pub fn recipe(seed: u64, threads: usize) -> WymConfig {
    let mut cfg = WymConfig::default().with_seed(seed);
    cfg.n_threads = threads;
    cfg.scorer.train = TrainConfig {
        epochs: 20,
        batch_size: 256,
        lr: 1.5e-3,
        ..TrainConfig::default()
    };
    cfg
}

/// A capped labeled slice of a Table 2 dataset and its 60-20-20 split.
pub fn labeled_slice(name: &str, seed: u64) -> (EmDataset, SplitIndices) {
    let full = magellan::generate_by_name(name, seed).expect("dataset name is a Table 2 entry");
    let data = full.subsample(CAP, seed);
    let split = paper_split(&data, seed);
    (data, split)
}

/// The first `n` pairs of the dataset generated from a different seed
/// (all of them when `n` is `usize::MAX`).
pub fn unseen_pairs(name: &str, seed: u64, n: usize) -> Vec<RecordPair> {
    let mut pairs = magellan::generate_by_name(name, seed ^ UNSEEN_SALT)
        .expect("dataset name is a Table 2 entry")
        .pairs;
    pairs.truncate(n);
    pairs
}

/// F1 of the match class.
pub fn f1(probas: &[f32], pairs: &[RecordPair]) -> f64 {
    let preds: Vec<u8> = probas.iter().map(|&p| u8::from(p >= 0.5)).collect();
    let gold: Vec<u8> = pairs.iter().map(|p| u8::from(p.label)).collect();
    f64::from(wym_ml::f1_score(&preds, &gold))
}

/// True when two prediction lists agree to the bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f` and returns its result (`None` when it panicked) with its wall
/// time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Option<T>, f64) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (out, t.elapsed().as_secs_f64())
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest of p99 and p90 that has at least ten samples beyond it,
/// else the median, with the percentile used.
pub fn tail(v: &[f64]) -> (u32, f64) {
    for pct in [99u32, 90] {
        if v.len() as f64 * f64::from(100 - pct) / 100.0 >= 10.0 {
            return (pct, quantile(v, f64::from(pct) / 100.0));
        }
    }
    (50, quantile(v, 0.5))
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
/// Linux reports them in USER_HZ ticks, which is 100 per second.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: measured ops plus output checks.
    pub attempted: u64,
    /// Panicked or erroring ops plus failed output checks.
    pub failed: u64,
    /// Output checks by name with their verdict.
    pub checks: Vec<(String, bool)>,
    /// Median wall seconds of one set-up.
    pub setup_s: f64,
    /// Items of work per second (pairs fitted / explained / classified,
    /// records blocked) at the best time of each distinct op.
    pub throughput_per_s: f64,
    /// Ops measured, repeats included.
    pub ops: usize,
    /// Best wall seconds of each distinct op (input) over its repeats.
    pub best_s: Vec<f64>,
    /// Match F1 or blocking recall.
    pub quality: f64,
    /// The workload's own metrics under the names the docs use.
    pub named: Vec<Metric>,
    /// Per-layer metrics from the traced replay.
    pub layers: Vec<Metric>,
    /// Facts worth printing (sizes, resolved settings).
    pub notes: Vec<String>,
    /// Spans of the traced replay, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("wymbench: output check failed: {name}");
        }
        self.checks.push((name.to_string(), ok));
    }

    /// Counts one measured op; `ok` is false when it panicked or errored.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

/// Best (lowest) time per distinct op over its repeats. Timing noise on a
/// shared host only ever adds time, so the best of several repeats is the
/// steadiest estimate of what an op costs.
pub struct Best(Vec<f64>);

impl Best {
    pub fn new(distinct: usize) -> Best {
        Best(vec![f64::INFINITY; distinct])
    }

    pub fn observe(&mut self, k: usize, s: f64) {
        self.0[k] = self.0[k].min(s);
    }

    /// Best time per distinct op; infinite for an op that never ran.
    pub fn per_op(&self) -> &[f64] {
        &self.0
    }

    /// Best times of the ops that ran.
    pub fn times(&self) -> Vec<f64> {
        self.0.iter().copied().filter(|s| s.is_finite()).collect()
    }
}

/// Repeats of a set-up that takes well under a second, so that the median
/// spans a few seconds of host noise rather than one phase of it.
pub const CHEAP_SETUPS: usize = 9;

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time. The first failure aborts the run: without inputs there is
/// nothing to measure.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> Result<T, String>) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, s) = timed(&mut setup);
        match out {
            Some(Ok(v)) => last = Some(v),
            Some(Err(e)) => fail(&format!("set-up failed: {e}")),
            None => fail("set-up panicked"),
        }
        times.push(s);
    }
    (last.expect("reps > 0"), median(&times))
}

/// Aborts the run without printing a result.
pub fn fail(msg: &str) -> ! {
    eprintln!("wymbench: {msg}");
    std::process::exit(2);
}
