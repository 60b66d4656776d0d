//! The benchmark's own span recorder for the traced replay.
//!
//! Spans are opened by the benchmark around each public call it makes into
//! a layer; nothing inside the workspace is touched. A span holds its name
//! (`<layer>.<call>`, or a bare op name for the root of one replayed
//! operation), start, end, parent and request id. Spans stay in memory and
//! are written out when the run ends. With recording off, opening a span
//! costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed span. `parent` is 0 for a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the part of its name before the first
    /// `.`; roots (bare op names) belong to no layer.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Turns recording on or off (off by default).
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// An open span; records itself on drop.
#[must_use = "a span records on drop"]
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, u64)>,
}

fn open(name: &'static str, parent: u64, req: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, req)));
    Guard {
        open: Some((id, parent, req, name, now_ns())),
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let (parent, req) = STACK.with(|s| s.borrow().last().copied()).unwrap_or((0, 0));
    open(name, parent, req)
}

/// Opens the root span of one replayed operation with request id `req`.
pub fn root(name: &'static str, req: u64) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    open(name, 0, req)
}

/// The innermost open span of this thread, to hand to worker threads.
pub fn current() -> (u64, u64) {
    STACK.with(|s| s.borrow().last().copied()).unwrap_or((0, 0))
}

/// Opens a span on a worker thread under a parent captured with
/// [`current`] on the thread that fanned the work out.
pub fn span_under(name: &'static str, parent: (u64, u64)) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    open(name, parent.0, parent.1)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, req, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Removes and returns every recorded span, in close order.
pub fn take() -> Vec<Span> {
    SPANS
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default()
}

/// Recorded spans with their aggregates.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Self time per span id: duration minus the part of it that child
    /// spans cover (children on worker threads may overlap each other, so
    /// covered time is the union of their intervals).
    self_ns: HashMap<u64, u64>,
}

impl Trace {
    pub fn new(spans: Vec<Span>) -> Trace {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let self_ns = spans
            .iter()
            .map(|s| {
                let mut iv = children.remove(&s.id).unwrap_or_default();
                iv.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for (a, b) in iv {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.id, s.dur_ns().saturating_sub(covered))
            })
            .collect();
        Trace { spans, self_ns }
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per layer in seconds, summed over all its spans; roots
    /// are reported under `(root)`.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer().unwrap_or("(root)")).or_insert(0.0) +=
                self.self_ns[&s.id] as f64 / 1e9;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, self.self_ns[&s.id]
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let sp = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            req: 1,
            name: if parent == 0 { "op" } else { "layer.call" },
            start_ns,
            end_ns,
        };
        // Two overlapping children (worker threads) and one disjoint one.
        let t = Trace::new(vec![
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 40),
            sp(3, 1, 30, 50),
            sp(4, 1, 60, 70),
        ]);
        assert_eq!(t.self_ns[&1], 100 - 40 - 10);
        let by_layer = t.self_by_layer();
        assert_eq!(by_layer["(root)"], 50e-9);
        assert_eq!(by_layer["layer"], 60e-9);
    }
}
